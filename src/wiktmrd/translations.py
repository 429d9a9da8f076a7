"""Translation extraction for both dialects.

en dialect: {{trans-top|gloss}} ... {{trans-bottom}} blocks with
"* Language: {{t+|code|word}}" lines (bare "[[word]] (translit)" accepted).
ru dialect: one {{перев-блок}} template per translated sense whose named
parameters are language codes holding wikilinked words.

Both return (boxes, skipped): boxes are the store's translation tuples
(gloss, [(lang_code, word, wikitext), ...]) (see store.py), skipped holds
one reason string per line that lost something: an unknown language name or
code. A template code that disagrees with its line's language name is kept.
"""

from __future__ import annotations

from . import wikitext as wt
from .entry import LIST_LINE_RE, PosSection
from .registry import TRANSLATION_BLOCK_RU, TRANSLATION_TEMPLATES_EN, LanguageCode, Registry

_TRANSLATIONS_HEADING = "translations"
_TRANS_TOP = "trans-top"
_TRANS_BOTTOM = "trans-bottom"


def extract_translations_en(
    pos_section: PosSection, registry: Registry
) -> tuple[list[tuple[str, list[tuple[str, str, str]]]], list[str]]:
    skipped: list[str] = []
    boxes = []
    for gloss_wikitext, region in _en_box_regions(pos_section):
        boxes.append((wt.strip_markup(gloss_wikitext),
                      _entries_from_en_lines(region, registry, skipped)))
    return boxes, skipped


def _en_box_regions(pos_section: PosSection):
    """(gloss wikitext, content text) per box."""
    outline = pos_section.outline
    offset, section_end = pos_section.span
    openers = []
    closers = []
    for tpl in pos_section.templates:
        name = tpl.name.strip().casefold()
        if name == _TRANS_TOP:
            openers.append(tpl)
        elif name == _TRANS_BOTTOM:
            closers.append(tpl.source_span[0])
    regions = []
    for i, tpl in enumerate(openers):
        start = tpl.source_span[1]
        next_open = (openers[i + 1].source_span[0]
                     if i + 1 < len(openers) else section_end - offset)
        end = next_open
        for c in closers:
            if start <= c < next_open:
                end = c
                break
        regions.append((tpl.first_param(), outline.text(offset + start, offset + end)))
    if regions:
        return regions
    # bare "Translations" heading with no trans-top: one box, empty gloss
    region = pos_section.named_subsection(_TRANSLATIONS_HEADING)
    return [] if region is None else [("", region)]


def _entries_from_en_lines(region: str, registry: Registry, skipped: list[str]):
    entries: list[tuple[str, str, str]] = []
    parent_lang: LanguageCode | None = None
    for line in region.splitlines():
        m = LIST_LINE_RE.match(line)
        if not m:
            continue
        markers, rest = m.groups()
        name, sep, payload = rest.partition(":")
        if not sep:
            continue
        name = name.strip()
        lang = registry.find_english_name(name) or registry.find_english_name(wt.strip_markup(name))
        is_sub_line = markers != "*"
        if lang is None:
            if is_sub_line and parent_lang is not None:
                lang = parent_lang
            else:
                skipped.append(f"unknown language name: {name!r}")
                continue
        elif not is_sub_line:
            parent_lang = lang
        dropped = _entries_from_en_payload(payload, lang.code, registry, entries)
        if dropped is not None:
            skipped.append(dropped)
    return entries


def _entries_from_en_payload(payload, line_code, registry, entries):
    """Append the entries of one line; return why one of its templates was
    dropped, or None when nothing was."""
    data = wt.encode(payload)
    templates = [t for t in wt.scan_templates(data)
                 if t.name.strip().casefold() in TRANSLATION_TEMPLATES_EN]
    dropped = None
    if templates:
        for tpl in templates:
            params = tpl.positional_params
            code = params[0].strip() if params else ""
            word_wikitext = params[1].strip() if len(params) > 1 else ""
            word = wt.strip_markup(word_wikitext)
            if not word:
                continue
            lang = registry.find_code(code)
            if lang is None:
                dropped = dropped or f"unknown language code: {code!r}"
                continue
            # the template's code wins over the line's language name
            s, e = tpl.source_span
            entries.append((lang.code, word, wt.decode(data[s:e])))
        return dropped
    _link_entries(data, line_code, entries)
    return None


def _link_entries(data: bytes, code: str, entries: list[tuple[str, str, str]]):
    """One entry per wikilink in `data` that has a target."""
    for link in wt.scan_wikilinks(data):
        if link.target:
            s, e = link.source_span
            entries.append((code, link.target, wt.decode(data[s:e])))


def extract_translations_ru(
    pos_section: PosSection, registry: Registry
) -> tuple[list[tuple[str, list[tuple[str, str, str]]]], list[str]]:
    boxes = []
    skipped: list[str] = []
    for tpl in pos_section.templates:
        if tpl.name.strip().casefold() != TRANSLATION_BLOCK_RU:
            continue
        entries: list[tuple[str, str, str]] = []
        for key, value in tpl.named_params.items():
            if key == "1":
                continue  # the gloss slot
            lang = registry.find_code(key)
            if lang is None:
                skipped.append(f"unknown language code: {key!r}")
                continue
            _link_entries(wt.encode(value), lang.code, entries)
        boxes.append((wt.strip_markup(tpl.first_param()), entries))
    return boxes, skipped
