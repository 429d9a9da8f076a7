"""Relation extraction: the cited entry fixtures and the line rules."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_page, pos_section
from wiktmrd import entry, relations, wikitext as wt
from wiktmrd.pipeline import EDITIONS
from wiktmrd.registry import RELATION_TYPE_NAMES


def pos_sections_for(page, dialect, registry):
    sections, _ = entry.split_language_sections(page, EDITIONS[dialect], registry)
    out = []
    for sec in sections:
        for ps in entry.split_pos_sections(sec):
            meanings = entry.extract_definitions(ps)
            out.append((ps, meanings))
    return out


def relation_types(rows):
    return {type_name for type_name, _, _, _ in rows}


def count_wikilinks_under_relation_headings(body, dialect):
    """Brute-force oracle: wikilinks below relation headings."""
    total = 0
    heads = wt.scan_headings(body)
    data = wt.encode(body)
    for i, head in enumerate(heads):
        if head.inner_text.strip().casefold() not in EDITIONS[dialect].relation_headings:
            continue
        end = len(data)
        for nxt in heads[i + 1:]:
            if nxt.level <= head.level:
                end = nxt.source_span[0]
                break
        total += len(wt.scan_wikilinks(wt.decode(data[head.source_span[1]:end])))
    return total


def test_toe_has_seven_relations_in_six_types(registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("en", "toe"), "en", registry)
    rows = relations.extract_relations(ps, meanings)
    assert len(rows) == 7
    assert relation_types(rows) == {
        "synonym", "antonym", "hyponym", "holonym", "meronym", "coordinate_term"}
    oracle = count_wikilinks_under_relation_headings(ps.body, "en")
    assert len(rows) == oracle


def test_paw_homonyms_counted_separately(registry):
    groups = pos_sections_for(fixture_page("en", "paw"), "en", registry)
    assert len(groups) == 2
    first = relations.extract_relations(*groups[0])
    second = relations.extract_relations(*groups[1])
    assert (len(first), len(relation_types(first))) == (12, 4)
    assert (len(second), len(relation_types(second))) == (7, 5)


def test_iron_has_six_distinct_types(registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("en", "iron"), "en", registry)
    rows = relations.extract_relations(ps, meanings)
    assert len(relation_types(rows)) == 6


def test_empty_relation_header_yields_nothing(registry):
    ps = pos_section("====Synonyms====\n")
    assert relations.extract_relations(ps, []) == []


def test_single_antonym_line(registry):
    ps = pos_section("# warm\n====Antonyms====\n* [[cold]]\n")
    meanings = entry.extract_definitions(ps)
    rows = relations.extract_relations(ps, meanings)
    assert rows == [("antonym", "cold", "[[cold]]", None)]


def test_sense_gloss_alignment(registry):
    [(ps, meanings)] = [g for g in pos_sections_for(fixture_page("en", "dog"), "en", registry)
                        if g[0].pos == "noun"]
    rows = relations.extract_relations(ps, meanings)
    ordinal_of = {word: ordinal for _, word, _, ordinal in rows}
    # {{sense|animal}} aligns to the first meaning, whose text holds "animal"
    assert ordinal_of["hound"] == meanings[0][0]
    assert ordinal_of["canine"] == meanings[0][0]
    assert ordinal_of["bounder"] == meanings[1][0]
    # hyponym lines carry no {{sense}}: alignment stays unresolved
    assert ordinal_of["puppy"] is None


def test_unmatched_sense_gloss_maps_to_none(registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("en", "toe"), "en", registry)
    rows = relations.extract_relations(ps, meanings)
    # its {{sense|digit of the foot}} is in no meaning's text
    [digit_ordinal] = [ordinal for _, word, _, ordinal in rows if word == "digit"]
    assert digit_ordinal is None


def test_bare_word_lines_split_on_commas(registry):
    ps = pos_section("====Synonyms====\n* hound, cur; tyke\n")
    rows = relations.extract_relations(ps, [])
    assert [word for _, word, _, _ in rows] == ["hound", "cur", "tyke"]
    assert all(wikitext == word for _, word, wikitext, _ in rows)


def test_link_template_acts_as_wikilink(registry):
    ps = pos_section("====Synonyms====\n* {{l|en|hound}}\n")
    rows = relations.extract_relations(ps, [])
    assert len(rows) == 1
    assert rows[0][1] == "hound"


@pytest.mark.parametrize("line, expected", [
    # links opened inside a leading {{sense}} are not the line's words
    ("{{sense|[[a}} b]] [[c]]", [("synonym", "c", "[[c]]", None)]),
    ("{{sense|[[a}} b]]", [("synonym", "b]]", "b]]", None)]),
    # every [[...]] pair counts, with or without a target
    ("[[|x]], [[ ]], {{l|en|y}}",
     [("synonym", "x", "[[|x]]", None), ("synonym", "y", "y", None)]),
    # a link inside {{l}} gives way to the template
    ("{{l|en|[[p]]}} [[q]]",
     [("synonym", "p", "[[p]]", None), ("synonym", "q", "[[q]]", None)]),
    ("{{sense|animal}} hound, cur",
     [("synonym", "hound", "hound", 1), ("synonym", "cur", "cur", 1)]),
    # an empty gloss names no meaning
    ("{{sense|}} hound", [("synonym", "hound", "hound", None)]),
])
def test_line_edge_cases(registry, line, expected):
    ps = pos_section(f"# an [[animal]]\n# rogue\n====Synonyms====\n* {line}\n")
    meanings = entry.extract_definitions(ps)
    assert relations.extract_relations(ps, meanings) == expected


def test_ru_lines_align_to_meaning_ordinals(registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("ru", "ангел"), "ru", registry)
    rows = relations.extract_relations(ps, meanings)
    assert [(word, ordinal) for t, word, _, ordinal in rows if t == "synonym"] == [
        ("вестник", 1), ("посланник", 1), ("добряк", 2)]
    # the second antonym line is the "-" placeholder: it consumes ordinal 2
    assert [(word, ordinal) for t, word, _, ordinal in rows if t == "antonym"] == [
        ("демон", 1), ("чёрт", 1)]


def test_ru_empty_headers_yield_zero_records(registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("ru", "собака"), "ru", registry)
    rows = relations.extract_relations(ps, meanings)
    assert [(type_name, word) for type_name, word, _, _ in rows] == [("synonym", "пёс")]


@pytest.mark.parametrize("marker", ["#:", "##", "#*", "**", "*:", ":"])
def test_ru_nested_lines_hold_no_meaning(marker):
    # only a line of one "#" or "*" marker takes a meaning's place
    ps = pos_section("==== Значение ====\n# пёс\n# кобель\n==== Синонимы ====\n"
                     f"# [[пёс]]\n{marker} пример\n# [[кобель]]\n", dialect="ru")
    assert relations.extract_relations(ps, entry.extract_definitions(ps)) == [
        ("synonym", "пёс", "[[пёс]]", 1), ("synonym", "кобель", "[[кобель]]", 2)]


def test_target_word_is_stripped_wikitext(registry):
    # the invariant target_word == strip_markup(target_wikitext)
    for name in ("toe", "paw", "iron", "dog"):
        for ps, meanings in pos_sections_for(fixture_page("en", name), "en", registry):
            for _, word, wikitext, _ in relations.extract_relations(ps, meanings):
                assert word == wt.strip_markup(wikitext)
                assert word


# Bodies built from tokens, so relation headings, list lines, links and
# {{sense}} glosses actually occur and the row invariants get exercised.
_RELATION_TOKENS = (
    "\n====Synonyms====\n", "\n====Antonyms====\n", "\n==== Синонимы ====\n",
    "\n==== Антонимы ====\n", "\n=== Значение ===\n", "\n# an [[animal]]\n",
    "\n# rogue\n", "\n* [[hound]], [[cur]]\n", "\n* {{sense|animal}} [[dog]]\n",
    "\n* {{l|en|пёс}}\n", "\n* -\n", "\n* word; rogue\n",
    "* [[", "]]", "* ", "{{sense|", "{{l|en|", "}}", "|", ", ", "; ", "-", "—",
    "\n", "=", "'''", "word", "пёс", "animal", "rogue",
)


@given(st.lists(st.sampled_from(_RELATION_TOKENS), min_size=8, max_size=60).map("".join))
@settings(max_examples=150)
def test_relation_extraction_never_raises(registry, body):
    for dialect in ("en", "ru"):
        ps = pos_section(body, dialect=dialect)
        meanings = entry.extract_definitions(ps)
        rows = relations.extract_relations(ps, meanings)
        assert len(relation_types(rows)) <= min(len(rows), 9)
        for type_name, word, wikitext, ordinal in rows:
            assert word
            assert word == wt.strip_markup(wikitext)
            assert type_name in RELATION_TYPE_NAMES
            assert ordinal is None or 1 <= ordinal <= len(meanings)
