"""Registries: language codes and names, and the per-dialect heading/template
vocabulary for parts of speech and semantic relation types.

The built-in language table ships as data/languages.tsv (one line per code:
code, english names, russian name). A user registry file in the same format
extends or overrides it. Parts of speech and relation types are fixed sets
and are carried as their canonical names, the strings the store rows hold;
headings and templates map to those names through module-level tables.
Everything is immutable after load and safe to share across threads and
worker processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

CODE_RE = re.compile(r"^[a-z0-9][a-z0-9-]{1,10}$")

# the POS of a slot with no heading or template in _POS_ALIASES
UNKNOWN_POS = "unknown"


class MalformedRegistryFile(ValueError):
    def __init__(self, path, line_no, problem):
        super().__init__(f"{path}:{line_no}: {problem}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class LanguageCode:
    code: str
    english_name: str
    russian_name: str = ""
    name_aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class DialectConfig:
    dialect: str  # "en" | "ru"

    def __post_init__(self):
        if self.dialect not in ("en", "ru"):
            raise ValueError(f"unsupported dialect: {self.dialect!r}")


# canonical relation type -> (en heading aliases, ru heading aliases)
_RELATION_ALIASES = {
    "synonym": (("Synonyms", "Synonym"), ("Синонимы",)),
    "antonym": (("Antonyms", "Antonym"), ("Антонимы",)),
    "hypernym": (("Hypernyms", "Hypernym"), ("Гиперонимы",)),
    "hyponym": (("Hyponyms", "Hyponym"), ("Гипонимы",)),
    "holonym": (("Holonyms", "Holonym"), ("Холонимы",)),
    "meronym": (("Meronyms", "Meronym"), ("Меронимы",)),
    "troponym": (("Troponyms", "Troponym"), ("Тропонимы",)),
    "coordinate_term": (("Coordinate terms", "Coordinate term"), ("Согипонимы",)),
    "see_also": (("See also",), ("См. также",)),
}
# a relation type's store id is its 1-based position here
RELATION_TYPE_NAMES = tuple(_RELATION_ALIASES)

# canonical POS -> (en heading aliases, ru morphology template prefixes)
_POS_ALIASES = {
    "noun": (("Noun",), ("сущ",)),
    "verb": (("Verb",), ("гл", "глагол")),
    "adjective": (("Adjective",), ("прил",)),
    "adverb": (("Adverb",), ("нареч", "adv")),
    "pronoun": (("Pronoun",), ("мест",)),
    "preposition": (("Preposition",), ("предл",)),
    "conjunction": (("Conjunction",), ("союз",)),
    "interjection": (("Interjection",), ("межд",)),
    "numeral": (("Numeral", "Number"), ("числ",)),
    "particle": (("Particle",), ("част",)),
    "proper_noun": (("Proper noun",), ()),
    "phrase": (("Phrase",), ("фраз",)),
}

FORM_OF_TEMPLATES = frozenset({
    "plural of", "past of", "present participle of", "comparative of",
    "superlative of", "form of",
})

TRANSLATION_TEMPLATES_EN = frozenset({"t", "t+", "t-", "tø"})
TRANSLATION_BLOCK_RU = "перев-блок"
RU_DEFINITIONS_HEADING = "значение"


def _by_alias(aliases, column: int) -> dict[str, str]:
    """Casefolded alias -> canonical name, from one column of an alias table."""
    return {a.casefold(): name for name, cols in aliases.items() for a in cols[column]}


_RELATION_BY_HEADING = {"en": _by_alias(_RELATION_ALIASES, 0),
                        "ru": _by_alias(_RELATION_ALIASES, 1)}
_POS_BY_HEADING_EN = _by_alias(_POS_ALIASES, 0)
_POS_BY_RU_PREFIX = _by_alias(_POS_ALIASES, 1)


class Registry:
    """Immutable lookup tables for one parse run."""

    def __init__(self, languages: dict[str, LanguageCode]):
        self.languages = dict(languages)
        self._by_english: dict[str, str] = {}
        for lang in self.languages.values():
            self._by_english.setdefault(lang.english_name.casefold(), lang.code)
            for alias in lang.name_aliases:
                self._by_english.setdefault(alias.casefold(), lang.code)

    # -- languages ----------------------------------------------------------

    def find_code(self, code: str) -> LanguageCode | None:
        return self.languages.get(code.strip().casefold())

    def find_english_name(self, name: str) -> LanguageCode | None:
        code = self._by_english.get(name.strip().casefold())
        return self.languages[code] if code else None

    # -- relation headings ---------------------------------------------------

    def find_relation_heading(self, inner: str, dialect: str) -> str | None:
        return _RELATION_BY_HEADING[dialect].get(inner.strip().casefold())

    # -- parts of speech ------------------------------------------------------

    def pos_for_heading_en(self, inner: str) -> str | None:
        return _POS_BY_HEADING_EN.get(inner.strip().casefold())

    def pos_for_ru_template(self, template_name: str) -> str | None:
        token = template_name.strip().split()[0].casefold() if template_name.strip() else ""
        pos = _POS_BY_RU_PREFIX.get(token)
        if pos is None and "-" in token:
            pos = _POS_BY_RU_PREFIX.get(token.split("-", 1)[0])
        return pos

    # -- dialects -------------------------------------------------------------

    def dialect_config(self, dialect: str) -> DialectConfig:
        return DialectConfig(dialect=dialect)


def _parse_registry_lines(lines, path) -> dict[str, LanguageCode]:
    out: dict[str, LanguageCode] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) not in (2, 3):
            raise MalformedRegistryFile(path, line_no, f"expected 2 or 3 columns, got {len(cols)}")
        code = cols[0].strip().casefold()
        if not CODE_RE.match(code):
            raise MalformedRegistryFile(path, line_no, f"bad language code {cols[0]!r}")
        names = [n.strip() for n in cols[1].split(";") if n.strip()]
        if not names:
            raise MalformedRegistryFile(path, line_no, "empty language name")
        russian = cols[2].strip() if len(cols) == 3 else ""
        out[code] = LanguageCode(code=code, english_name=names[0],
                                 russian_name=russian, name_aliases=tuple(names[1:]))
    return out


@lru_cache(maxsize=1)
def _builtin_languages() -> dict[str, LanguageCode]:
    text = resources.files("wiktmrd.data").joinpath("languages.tsv").read_text("utf-8")
    return _parse_registry_lines(text.splitlines(), "<builtin languages.tsv>")


def builtin_registry() -> Registry:
    return Registry(_builtin_languages())


def load_registry(path) -> Registry:
    """Built-in table extended/overridden by the entries in `path`."""
    languages = dict(_builtin_languages())
    with open(path, encoding="utf-8") as f:
        languages.update(_parse_registry_lines(f, path))
    return Registry(languages)
