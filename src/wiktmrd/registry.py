"""The language table, and each edition's heading/template vocabulary for
parts of speech and semantic relation types.

A Registry is the language table alone: codes, English names and aliases,
Russian names. The built-in table ships as data/languages.tsv (one line per
code: code, english names, russian name). A user registry file in the same
format extends or overrides it. Parts of speech and relation types are fixed
sets and are carried as their canonical names, the strings the store rows
hold; the edition records (pipeline.EDITIONS) map headings and templates to
those names through POS_HEADINGS_EN, RELATION_HEADINGS_* and pos_for_ru_template.
Everything is immutable after load and safe to share across threads and
worker processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

CODE_RE = re.compile(r"^[a-z0-9][a-z0-9-]{1,10}$")

# the POS of a slot whose heading or template names no canonical POS
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

# POS -> (en heading aliases, ru morphology template prefixes)
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
    # en headings of a part-of-speech slot outside the canonical set
    UNKNOWN_POS: (("Abbreviation", "Initialism", "Acronym", "Symbol", "Letter", "Prefix",
                   "Suffix", "Contraction", "Determiner", "Article"), ()),
}

FORM_OF_TEMPLATES = frozenset({
    "plural of", "past of", "present participle of", "comparative of",
    "superlative of", "form of",
})

TRANSLATION_TEMPLATES_EN = frozenset({"t", "t+", "t-", "tø"})
TRANSLATION_BLOCK_RU = "перев-блок"


def _by_alias(aliases, column: int) -> dict[str, str]:
    """Casefolded alias -> canonical name, from one column of an alias table."""
    return {a.casefold(): name for name, cols in aliases.items() for a in cols[column]}


# casefolded heading -> the relation type or POS it names, per edition
RELATION_HEADINGS_EN = _by_alias(_RELATION_ALIASES, 0)
RELATION_HEADINGS_RU = _by_alias(_RELATION_ALIASES, 1)
POS_HEADINGS_EN = _by_alias(_POS_ALIASES, 0)
_POS_BY_RU_PREFIX = _by_alias(_POS_ALIASES, 1)


def pos_for_ru_template(template_name: str) -> str | None:
    """The POS a ru morphology template's first word ("прил-ru": "прил") names."""
    token = template_name.strip().split()[0].casefold() if template_name.strip() else ""
    pos = _POS_BY_RU_PREFIX.get(token)
    if pos is None and "-" in token:
        pos = _POS_BY_RU_PREFIX.get(token.split("-", 1)[0])
    return pos


class Registry:
    """The language table of one parse run: codes, names and aliases."""

    def __init__(self, languages: dict[str, LanguageCode]):
        self.languages = dict(languages)
        self._by_english: dict[str, str] = {}
        for lang in self.languages.values():
            self._by_english.setdefault(lang.english_name.casefold(), lang.code)
            for alias in lang.name_aliases:
                self._by_english.setdefault(alias.casefold(), lang.code)

    def find_code(self, code: str) -> str | None:
        """`code` as registered (case and outer spaces ignored), or None; the
        table's own string, so that a pickle of many rows holds it once."""
        lang = self.languages.get(code.strip().casefold())
        return lang.code if lang else None

    def find_english_name(self, name: str) -> str | None:
        """The code of the language an English name or alias names, or None."""
        return self._by_english.get(name.strip().casefold())


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
