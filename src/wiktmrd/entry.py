"""Splitting one page into language sections, part-of-speech sections and
numbered definitions, plus word-form ("soft redirect") detection.

Editions differ structurally: the en edition marks languages with level-2
name headings ("==English=="), the ru edition with level-1 template headings
("= {{-en-}} ="), reads definitions from the "Значение" subsection and takes
the part of speech from the morphology template block. One Edition record
per edition (pipeline.EDITIONS) holds these rules; split_language_sections
is given it, and the PageOutline of its sections carries it to every later
stage. Anything unresolvable is skipped and recorded, never fatal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from . import wikitext as wt
from .registry import (FORM_OF_TEMPLATES, POS_HEADINGS_EN, UNKNOWN_POS, Registry,
                       pos_for_ru_template)

_ETYMOLOGY_RE = re.compile(r"^etymology(?:\s+(\d+))?$", re.IGNORECASE)
_RU_LANG_TEMPLATE_RE = re.compile(r"^-([a-z0-9][a-z0-9-]{1,10})-$")
# a list line ("*", "#" or ":" markers): its markers and its content
LIST_LINE_RE = re.compile(r"^([*#:]+)\s*(.*)$")


@dataclass(frozen=True)
class Edition:
    """Everything one edition's rules differ in."""

    language_level: int  # the level of its language headings
    resolve_language: Callable  # (heading text, registry) -> (code | None, skip reason)
    split_pos: Callable  # language section -> its (etymology, POS) sections, or []
    definitions_heading: str | None  # casefolded; None: definitions span the whole body
    relation_headings: dict[str, str]  # casefolded heading -> relation type
    bind_relation_lines: Callable  # see relations.bind_by_sense
    extract_translations: Callable  # (PosSection, registry) -> (boxes, skipped)


@dataclass
class Page:
    title: str
    raw_text: str
    is_redirect: bool = False
    record_id: int = 0


class PageOutline:
    """A page's UTF-8 bytes and headings, encoded and scanned once, and the
    edition whose rules read it. Sections of the page are byte ranges of it,
    so no stage rescans its own text or is given the edition again."""

    def __init__(self, text: str, edition: Edition):
        self.data = wt.encode(text)
        self.headings = wt.scan_headings(self.data)
        self.edition = edition

    def headings_in(self, start: int, end: int) -> list[wt.Heading]:
        """The headings whose line starts in [start, end)."""
        return [h for h in self.headings if start <= h.source_span[0] < end]

    def text(self, start: int, end: int) -> str:
        return wt.decode(self.data[start:end])

    def body_range(self, heads: list[wt.Heading], i: int, end: int,
                   level: int = 6) -> tuple[int, int]:
        """Byte range of the text under heads[i]: from the line after it up
        to the next heading in `heads` of level at most `level` (by default
        any), else up to `end`."""
        start = heads[i].source_span[1]
        if start < len(self.data) and self.data[start] == 0x0A:
            start += 1
        for nxt in heads[i + 1:]:
            if nxt.level <= level:
                return start, nxt.source_span[0]
        return start, end


@dataclass
class PosSection:
    """One (etymology, POS) part of a page; `span` is its body's byte range
    in `outline`. A whole language section is one too, of unknown POS and
    etymology 0."""

    language: str  # the registry's language code
    etymology_ordinal: int
    pos: str  # a canonical POS name, UNKNOWN_POS included
    span: tuple[int, int]
    outline: PageOutline = field(repr=False, compare=False)

    @property
    def body(self) -> str:
        return self.outline.text(*self.span)

    @cached_property
    def templates(self) -> list[wt.Template]:
        """The body's top-level templates, scanned once for every stage;
        their spans are byte offsets within the body."""
        return wt.scan_templates(self.outline.data[self.span[0]:self.span[1]])

    def headings(self) -> list[wt.Heading]:
        return self.outline.headings_in(*self.span)

    def subsection(self, heads: list[wt.Heading], i: int) -> str:
        """Text under heads[i] up to the next heading of its level or above."""
        return self.outline.text(
            *self.outline.body_range(heads, i, self.span[1], heads[i].level))

    def named_subsection(self, name: str) -> str | None:
        """Text under the first heading whose trimmed, casefolded text is `name`."""
        heads = self.headings()
        for i, head in enumerate(heads):
            if head.inner_text.strip().casefold() == name:
                return self.subsection(heads, i)
        return None


def split_language_sections(
    page: Page, edition: Edition, registry: Registry
) -> tuple[list[PosSection], list[str]]:
    """Partition the page body at `edition`'s language headings, one
    unknown-POS, etymology-0 section per language; the page's outline
    carries `edition` to every later stage.

    Unresolvable headings produce a skip reason each; the text under them is
    not parsed further.
    """
    outline = PageOutline(page.raw_text, edition)
    heads = [h for h in outline.headings if h.level == edition.language_level]
    sections: list[PosSection] = []
    skipped: list[str] = []
    for i, head in enumerate(heads):
        language, reason = edition.resolve_language(head.inner_text, registry)
        if language is None:
            skipped.append(reason)
            continue
        sections.append(PosSection(
            language=language, etymology_ordinal=0, pos=UNKNOWN_POS,
            span=outline.body_range(heads, i, len(outline.data)), outline=outline))
    return sections, skipped


def resolve_language_en(inner: str, registry: Registry):
    name = wt.strip_markup(inner) or inner.strip()
    code = registry.find_english_name(name)
    return (code, "") if code else (None, f"unknown language name: {name!r}")


def resolve_language_ru(inner: str, registry: Registry):
    templates = wt.scan_templates(inner)
    if len(templates) != 1:
        return None, "expected a single language template in the heading"
    m = _RU_LANG_TEMPLATE_RE.match(templates[0].name.casefold())
    if not m:
        return None, f"not a language template: {templates[0].name!r}"
    code = registry.find_code(m.group(1))
    return (code, "") if code else (None, f"unknown language code: {m.group(1)!r}")


def split_pos_sections(section: PosSection) -> list[PosSection]:
    """Split a language section into one PosSection per (etymology, POS) pair.

    A section with nothing recognizable is returned as it is, the single
    pos=unknown section spanning the whole body.
    """
    return section.outline.edition.split_pos(section) or [section]


def split_pos_en(section: PosSection) -> list[PosSection]:
    outline, section_end = section.outline, section.span[1]
    marks = []  # (heading, kind, payload)
    for head in outline.headings_in(*section.span):
        inner = head.inner_text.strip()
        m = _ETYMOLOGY_RE.match(inner)
        if m:
            marks.append((head, "etym", int(m.group(1) or 0)))
            continue
        pos = POS_HEADINGS_EN.get(inner.casefold())
        if pos is not None:
            marks.append((head, "pos", pos))
    heads = [head for head, _, _ in marks]
    out = []
    etym = 0
    for i, (head, kind, payload) in enumerate(marks):
        if kind == "etym":
            etym = payload
            continue
        start, end = outline.body_range(heads, i, section_end)
        out.append(PosSection(language=section.language, etymology_ordinal=etym,
                              pos=payload, span=(start, end), outline=outline))
    return out


def split_pos_ru(section: PosSection) -> list[PosSection]:
    outline, section_end = section.outline, section.span[1]
    homonym_heads = [h for h in outline.headings_in(*section.span) if h.level == 2]
    blocks = [(i + 1, *outline.body_range(homonym_heads, i, section_end))
              for i in range(len(homonym_heads))] or [(0, *section.span)]
    out = []
    for ordinal, start, end in blocks:
        ps = PosSection(language=section.language, etymology_ordinal=ordinal,
                        pos=UNKNOWN_POS, span=(start, end), outline=outline)
        for tpl in ps.templates:
            found = pos_for_ru_template(tpl.name)
            if found is not None:
                ps.pos = found
                break
        out.append(ps)
    return out


def is_definition_line(line: str) -> bool:
    """True for "#..." lines that are definitions, not quotes or sub-items."""
    return line.startswith("#") and not line.startswith(("#:", "#*", "##"))


def extract_definitions(pos_section: PosSection) -> list[tuple[int, str, list[str]]]:
    """Numbered definitions of one PosSection as the store's meaning rows,
    (ordinal, wikitext, ref_words), ordinals consecutive from 1; ref_words
    are the distinct wikilink targets of the definition, in source order."""
    heading = pos_section.outline.edition.definitions_heading
    region = pos_section.named_subsection(heading) if heading else pos_section.body
    meanings = []
    for line in (region or "").splitlines():
        if is_definition_line(line):
            wikitext = line[1:].strip()
            ref_words = list(dict.fromkeys(
                link.target for link in wt.scan_wikilinks(wikitext) if link.target))
            meanings.append((len(meanings) + 1, wikitext, ref_words))
    return meanings


def classify_soft_redirect(
    title: str, meanings: list[tuple[int, str, list[str]]]
) -> tuple[str, str] | None:
    """A word-form entry, exactly one meaning made of a single form-of
    template, as the store's (form_kind, lemma_title) row."""
    if len(meanings) != 1:
        return None
    data = wt.encode(meanings[0][1].strip())
    templates = wt.scan_templates(data)
    if len(templates) != 1:
        return None
    tpl = templates[0]
    if tpl.source_span != (0, len(data)):
        return None
    if tpl.name.strip().casefold() not in FORM_OF_TEMPLATES:
        return None
    lemma = wt.strip_markup(tpl.first_param()).strip()
    if not lemma or lemma == title:
        return None
    return tpl.name.strip(), lemma
