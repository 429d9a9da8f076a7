"""Translation extraction under both dialects."""

from hypothesis import given, settings, strategies as st

from conftest import fixture_page
from wiktmrd import entry, translations


def noun_section(page, dialect, registry):
    sections, _ = entry.split_language_sections(page, dialect, registry)
    for sec in sections:
        for ps in entry.split_pos_sections(sec, dialect, registry):
            if ps.pos.canonical_name == "noun":
                return ps
    raise AssertionError("no noun section")


def test_bush_translations(en, registry):
    ps = noun_section(fixture_page("en", "bush"), en, registry)
    boxes, skipped = translations.extract_translations_en(ps, registry)
    assert skipped == []
    assert len(boxes) == 1
    box, entries = boxes[0]
    assert box.gloss == "woody plant"
    assert [(e.language.code, e.target_word) for e in entries] == [
        ("fi", "pensas"), ("ko", "수풀")]
    assert entries[0].target_wikitext == "{{t+|fi|pensas}}"
    assert entries[1].target_wikitext == "[[수풀]]"


def test_dog_has_two_boxes(en, registry):
    ps = noun_section(fixture_page("en", "dog"), en, registry)
    boxes, _ = translations.extract_translations_en(ps, registry)
    assert [b.gloss for b, _ in boxes] == ["animal", "scoundrel"]
    assert [[e.target_word for e in es] for _, es in boxes] == [["koira", "개"], ["lurjus"]]


def test_unknown_language_name_skipped(en, registry):
    ps = entry.PosSection(language=registry.lookup_code("en"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="{{trans-top|x}}\n* Qqzish: [[x]]\n{{trans-bottom}}\n")
    boxes, skipped = translations.extract_translations_en(ps, registry)
    assert len(boxes) == 1 and boxes[0][1] == []
    assert len(skipped) == 1 and "Qqzish" in skipped[0].reason


def test_code_name_conflict_keeps_template_code(en, registry):
    # a classic editor misprint: the label says Estonian, the template says es
    ps = entry.PosSection(language=registry.lookup_code("en"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="{{trans-top|x}}\n* Estonian: {{t|es|arbusto}}\n{{trans-bottom}}\n")
    boxes, skipped = translations.extract_translations_en(ps, registry)
    entries = boxes[0][1]
    assert [(e.language.code, e.target_word) for e in entries] == [("es", "arbusto")]
    assert [s.reason for s in skipped] == ["code–name conflict"]


def test_bare_translations_heading_is_one_empty_gloss_box(en, registry):
    ps = entry.PosSection(language=registry.lookup_code("en"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="# a word\n====Translations====\n* Finnish: {{t|fi|sana}}\n")
    boxes, skipped = translations.extract_translations_en(ps, registry)
    assert len(boxes) == 1
    box, entries = boxes[0]
    assert box.gloss == ""
    assert [(e.language.code, e.target_word) for e in entries] == [("fi", "sana")]
    assert skipped == []


def test_nested_subline_attaches_to_parent_language(en, registry):
    body = ("{{trans-top|x}}\n* Chinese:\n*: Mandarin: {{t|zh|狗}}\n"
            "* Finnish: {{t+|fi|koira}}\n{{trans-bottom}}\n")
    ps = entry.PosSection(language=registry.lookup_code("en"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"], body=body)
    boxes, skipped = translations.extract_translations_en(ps, registry)
    entries = boxes[0][1]
    assert [(e.language.code, e.target_word) for e in entries] == [("zh", "狗"), ("fi", "koira")]


def test_ru_translation_block(ru, registry):
    ps = noun_section(fixture_page("ru", "ангел"), ru, registry)
    boxes, skipped = translations.extract_translations_ru(ps, registry)
    assert skipped == []
    assert len(boxes) == 1
    box, entries = boxes[0]
    assert box.gloss == "посланец бога"
    assert [(e.language.code, e.target_word) for e in entries] == [
        ("en", "angel"), ("fi", "enkeli"), ("ko", "천사")]


def test_ru_empty_block(ru, registry):
    ps = entry.PosSection(language=registry.lookup_code("ru"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"], body="{{перев-блок}}\n")
    boxes, skipped = translations.extract_translations_ru(ps, registry)
    assert len(boxes) == 1
    assert boxes[0][1] == [] and skipped == []


def test_ru_codes_taken_at_face_value(ru, registry):
    # "et" stays Estonian even if the editor meant Spanish
    ps = entry.PosSection(language=registry.lookup_code("ru"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="{{перев-блок||et=[[x]]}}\n")
    boxes, skipped = translations.extract_translations_ru(ps, registry)
    assert [(e.language.code, e.target_word) for e in boxes[0][1]] == [("et", "x")]
    assert skipped == []


def test_ru_unknown_code_skipped(ru, registry):
    ps = entry.PosSection(language=registry.lookup_code("ru"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="{{перев-блок||qqz9=[[x]]|fi=[[y]]}}\n")
    boxes, skipped = translations.extract_translations_ru(ps, registry)
    assert [(e.language.code, e.target_word) for e in boxes[0][1]] == [("fi", "y")]
    assert len(skipped) == 1 and "qqz9" in skipped[0].reason


def test_ru_multiple_links_in_one_value(ru, registry):
    ps = entry.PosSection(language=registry.lookup_code("ru"), etymology_ordinal=0,
                          pos=registry.parts_of_speech["noun"],
                          body="{{перев-блок||fi=[[a]], [[b]]}}\n")
    boxes, _ = translations.extract_translations_ru(ps, registry)
    assert [e.target_word for e in boxes[0][1]] == ["a", "b"]


def test_box_count_matches_openings(en, ru, registry):
    en_ps = entry.PosSection(language=registry.lookup_code("en"), etymology_ordinal=0,
                             pos=registry.parts_of_speech["noun"],
                             body="{{trans-top|a}}\n{{trans-bottom}}\n{{trans-top|b}}\n{{trans-bottom}}\n")
    boxes, _ = translations.extract_translations_en(en_ps, registry)
    assert len(boxes) == 2

    ru_ps = entry.PosSection(language=registry.lookup_code("ru"), etymology_ordinal=0,
                             pos=registry.parts_of_speech["noun"],
                             body="{{перев-блок|a}}\n{{перев-блок|b}}\n")
    boxes, _ = translations.extract_translations_ru(ru_ps, registry)
    assert [b.gloss for b, _ in boxes] == ["a", "b"]


@given(st.text(alphabet=st.sampled_from(list("={}[]|*#:() \nабвtfi수")), max_size=300))
@settings(max_examples=150)
def test_translation_extraction_never_raises(registry, body):
    for dialect in ("en", "ru"):
        cfg = registry.dialect_config(dialect)
        ps = entry.PosSection(language=registry.lookup_code(dialect), etymology_ordinal=0,
                              pos=registry.parts_of_speech["noun"], body=body)
        if dialect == "en":
            boxes, _ = translations.extract_translations_en(ps, registry)
        else:
            boxes, _ = translations.extract_translations_ru(ps, registry)
        for _, entries in boxes:
            for e in entries:
                assert e.target_word
                assert registry.find_code(e.language.code) is not None
