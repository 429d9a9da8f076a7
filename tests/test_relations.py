"""Relation extraction: the cited entry fixtures and the line rules."""

from hypothesis import given, settings, strategies as st

from conftest import fixture_page
from wiktmrd import entry, relations, wikitext as wt


def pos_sections_for(page, dialect, registry):
    sections, _ = entry.split_language_sections(page, dialect, registry)
    out = []
    for sec in sections:
        for ps in entry.split_pos_sections(sec, dialect, registry):
            meanings = entry.extract_definitions(ps, dialect, registry)
            out.append((ps, meanings))
    return out


def relation_types(records):
    return {r.relation_type.canonical_name for r in records}


def count_wikilinks_under_relation_headings(body, dialect, registry):
    """Brute-force oracle: wikilinks below relation headings."""
    total = 0
    heads = wt.scan_headings(body)
    data = wt.encode(body)
    for i, head in enumerate(heads):
        if registry.find_relation_heading(head.inner_text, dialect.dialect) is None:
            continue
        end = len(data)
        for nxt in heads[i + 1:]:
            if nxt.level <= head.level:
                end = nxt.source_span[0]
                break
        total += len(wt.scan_wikilinks(wt.decode(data[head.source_span[1]:end])))
    return total


def test_toe_has_seven_relations_in_six_types(en, registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("en", "toe"), en, registry)
    records = relations.extract_relations(ps, meanings, en, registry)
    assert len(records) == 7
    assert {r.relation_type.canonical_name for r in records} == {
        "synonym", "antonym", "hyponym", "holonym", "meronym", "coordinate_term"}
    oracle = count_wikilinks_under_relation_headings(ps.body, en, registry)
    assert len(records) == oracle


def test_paw_homonyms_counted_separately(en, registry):
    groups = pos_sections_for(fixture_page("en", "paw"), en, registry)
    assert len(groups) == 2
    first = relations.extract_relations(*groups[0], en, registry)
    second = relations.extract_relations(*groups[1], en, registry)
    assert (len(first), len(relation_types(first))) == (12, 4)
    assert (len(second), len(relation_types(second))) == (7, 5)


def test_iron_has_six_distinct_types(en, registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("en", "iron"), en, registry)
    records = relations.extract_relations(ps, meanings, en, registry)
    assert len(relation_types(records)) == 6


def test_empty_relation_header_yields_nothing(en, registry):
    ps = entry.PosSection(language=registry.lookup_code("en"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="====Synonyms====\n")
    assert relations.extract_relations(ps, [], en, registry) == []


def test_single_antonym_line(en, registry):
    ps = entry.PosSection(language=registry.lookup_code("en"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="# warm\n====Antonyms====\n* [[cold]]\n")
    meanings = entry.extract_definitions(ps, en, registry)
    records = relations.extract_relations(ps, meanings, en, registry)
    assert len(records) == 1
    rec = records[0]
    assert rec.relation_type.canonical_name == "antonym"
    assert rec.target_word == "cold"
    assert rec.target_wikitext == "[[cold]]"


def test_sense_gloss_alignment(en, registry):
    [(ps, meanings)] = [g for g in pos_sections_for(fixture_page("en", "dog"), en, registry)
                        if g[0].pos.canonical_name == "noun"]
    records = relations.extract_relations(ps, meanings, en, registry)
    by_word = {r.target_word: r for r in records}
    assert by_word["hound"].meaning is meanings[0]
    assert by_word["hound"].sense_gloss == "animal"
    assert by_word["canine"].meaning is meanings[0]
    assert by_word["bounder"].meaning is meanings[1]
    # hyponym lines carry no {{sense}}: alignment stays unresolved
    assert by_word["puppy"].meaning is None


def test_unmatched_sense_gloss_maps_to_none(en, registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("en", "toe"), en, registry)
    records = relations.extract_relations(ps, meanings, en, registry)
    digit = next(r for r in records if r.target_word == "digit")
    assert digit.sense_gloss == "digit of the foot"
    assert digit.meaning is None


def test_bare_word_lines_split_on_commas(en, registry):
    ps = entry.PosSection(language=registry.lookup_code("en"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="====Synonyms====\n* hound, cur; tyke\n")
    records = relations.extract_relations(ps, [], en, registry)
    assert [r.target_word for r in records] == ["hound", "cur", "tyke"]
    assert all(r.target_wikitext == r.target_word for r in records)


def test_link_template_acts_as_wikilink(en, registry):
    ps = entry.PosSection(language=registry.lookup_code("en"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="====Synonyms====\n* {{l|en|hound}}\n")
    records = relations.extract_relations(ps, [], en, registry)
    assert len(records) == 1
    assert records[0].target_word == "hound"


def test_ru_lines_align_to_meaning_ordinals(ru, registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("ru", "ангел"), ru, registry)
    records = relations.extract_relations(ps, meanings, ru, registry)
    synonyms = [r for r in records if r.relation_type.canonical_name == "synonym"]
    assert [(r.target_word, r.meaning.ordinal) for r in synonyms] == [
        ("вестник", 1), ("посланник", 1), ("добряк", 2)]
    antonyms = [r for r in records if r.relation_type.canonical_name == "antonym"]
    # the second antonym line is the "-" placeholder: it consumes ordinal 2
    assert [(r.target_word, r.meaning.ordinal) for r in antonyms] == [
        ("демон", 1), ("чёрт", 1)]


def test_ru_empty_headers_yield_zero_records(ru, registry):
    [(ps, meanings)] = pos_sections_for(fixture_page("ru", "собака"), ru, registry)
    records = relations.extract_relations(ps, meanings, ru, registry)
    assert [(r.relation_type.canonical_name, r.target_word) for r in records] == [
        ("synonym", "пёс")]


def test_target_word_is_stripped_wikitext(en, registry):
    # the invariant target_word == strip_markup(target_wikitext)
    for name in ("toe", "paw", "iron", "dog"):
        for ps, meanings in pos_sections_for(fixture_page("en", name), en, registry):
            for rec in relations.extract_relations(ps, meanings, en, registry):
                assert rec.target_word == wt.strip_markup(rec.target_wikitext)
                assert rec.target_word


@given(st.text(alphabet=st.sampled_from(list("=*#[]{}|,;-—' \nabcdцеф")), max_size=300))
@settings(max_examples=150)
def test_relation_extraction_never_raises(registry, body):
    for dialect in ("en", "ru"):
        cfg = registry.dialect_config(dialect)
        ps = entry.PosSection(language=registry.lookup_code(dialect), etymology_ordinal=0,
                              pos=registry.parts_of_speech["noun"], body=body)
        meanings = entry.extract_definitions(ps, cfg, registry)
        records = relations.extract_relations(ps, meanings, cfg, registry)
        assert len(relation_types(records)) <= min(len(records), 9)
        for rec in records:
            assert rec.target_word
