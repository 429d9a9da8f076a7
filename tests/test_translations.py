"""Translation extraction under both editions."""

from hypothesis import given, settings, strategies as st

from conftest import fixture_page, pos_section
from wiktmrd import entry, translations
from wiktmrd.pipeline import EDITIONS


def noun_section(page, dialect, registry):
    sections, _ = entry.split_language_sections(page, EDITIONS[dialect], registry)
    for sec in sections:
        for ps in entry.split_pos_sections(sec):
            if ps.pos == "noun":
                return ps
    raise AssertionError("no noun section")


def test_bush_translations(registry):
    ps = noun_section(fixture_page("en", "bush"), "en", registry)
    boxes, skipped = translations.extract_translations_en(ps, registry)
    assert skipped == []
    assert len(boxes) == 1
    assert boxes[0] == ("woody plant", [("fi", "pensas", "{{t+|fi|pensas}}"),
                                        ("ko", "수풀", "[[수풀]]")])


def test_dog_has_two_boxes(registry):
    ps = noun_section(fixture_page("en", "dog"), "en", registry)
    boxes, _ = translations.extract_translations_en(ps, registry)
    assert [gloss for gloss, _ in boxes] == ["animal", "scoundrel"]
    assert [[word for _, word, _ in es] for _, es in boxes] == [["koira", "개"], ["lurjus"]]


def test_unknown_language_name_skipped(registry):
    ps = pos_section("{{trans-top|x}}\n* Qqzish: [[x]]\n{{trans-bottom}}\n")
    boxes, skipped = translations.extract_translations_en(ps, registry)
    assert len(boxes) == 1 and boxes[0][1] == []
    assert len(skipped) == 1 and "Qqzish" in skipped[0]


def test_code_name_conflict_keeps_template_code(registry):
    # a classic editor misprint: the label says Estonian, the template says es
    ps = pos_section("{{trans-top|x}}\n* Estonian: {{t|es|arbusto}}\n{{trans-bottom}}\n")
    boxes, skipped = translations.extract_translations_en(ps, registry)
    entries = boxes[0][1]
    assert [(code, word) for code, word, _ in entries] == [("es", "arbusto")]
    assert skipped == []


def test_bare_translations_heading_is_one_empty_gloss_box(registry):
    ps = pos_section("# a word\n====Translations====\n* Finnish: {{t|fi|sana}}\n")
    boxes, skipped = translations.extract_translations_en(ps, registry)
    assert len(boxes) == 1
    gloss, entries = boxes[0]
    assert gloss == ""
    assert [(code, word) for code, word, _ in entries] == [("fi", "sana")]
    assert skipped == []


def test_nested_subline_attaches_to_parent_language(registry):
    body = ("{{trans-top|x}}\n* Chinese:\n*: Mandarin: {{t|zh|狗}}\n"
            "* Finnish: {{t+|fi|koira}}\n{{trans-bottom}}\n")
    ps = pos_section(body)
    boxes, skipped = translations.extract_translations_en(ps, registry)
    entries = boxes[0][1]
    assert [(code, word) for code, word, _ in entries] == [("zh", "狗"), ("fi", "koira")]


def test_lines_without_a_colon_or_a_word_give_no_entry(registry):
    body = ("{{trans-top|x}}\n* Finnish {{t|fi|sana}}\n"
            "* Finnish: {{t|fi|}}, {{t+|fi|koira}}\n{{trans-bottom}}\n")
    boxes, skipped = translations.extract_translations_en(pos_section(body), registry)
    assert boxes == [("x", [("fi", "koira", "{{t+|fi|koira}}")])]
    assert skipped == []


def test_subline_with_unknown_name_takes_parent_language(registry):
    body = "{{trans-top|x}}\n* Chinese:\n*: Qqzish: [[狗]]\n{{trans-bottom}}\n"
    boxes, skipped = translations.extract_translations_en(pos_section(body), registry)
    assert boxes == [("x", [("zh", "狗", "[[狗]]")])]
    assert skipped == []


def test_ru_translation_block(registry):
    ps = noun_section(fixture_page("ru", "ангел"), "ru", registry)
    boxes, skipped = translations.extract_translations_ru(ps, registry)
    assert skipped == []
    assert len(boxes) == 1
    gloss, entries = boxes[0]
    assert gloss == "посланец бога"
    assert [(code, word) for code, word, _ in entries] == [
        ("en", "angel"), ("fi", "enkeli"), ("ko", "천사")]


def test_ru_empty_block(registry):
    ps = pos_section("{{перев-блок}}\n", dialect="ru")
    boxes, skipped = translations.extract_translations_ru(ps, registry)
    assert len(boxes) == 1
    assert boxes[0][1] == [] and skipped == []


def test_ru_named_gloss_slot_is_the_gloss(registry):
    ps = pos_section("{{перев-блок|1=[[зверь]]|fi=[[koira]]}}\n", dialect="ru")
    boxes, skipped = translations.extract_translations_ru(ps, registry)
    assert boxes == [("зверь", [("fi", "koira", "[[koira]]")])]
    assert skipped == []


def test_ru_codes_taken_at_face_value(registry):
    # "et" stays Estonian even if the editor meant Spanish
    ps = pos_section("{{перев-блок||et=[[x]]}}\n", dialect="ru")
    boxes, skipped = translations.extract_translations_ru(ps, registry)
    assert [(code, word) for code, word, _ in boxes[0][1]] == [("et", "x")]
    assert skipped == []


def test_ru_unknown_code_skipped(registry):
    ps = pos_section("{{перев-блок||qqz9=[[x]]|fi=[[y]]}}\n", dialect="ru")
    boxes, skipped = translations.extract_translations_ru(ps, registry)
    assert [(code, word) for code, word, _ in boxes[0][1]] == [("fi", "y")]
    assert len(skipped) == 1 and "qqz9" in skipped[0]


def test_ru_multiple_links_in_one_value(registry):
    ps = pos_section("{{перев-блок||fi=[[a]], [[b]]}}\n", dialect="ru")
    boxes, _ = translations.extract_translations_ru(ps, registry)
    assert [word for _, word, _ in boxes[0][1]] == ["a", "b"]


def test_box_count_matches_openings(registry):
    en_ps = pos_section("{{trans-top|a}}\n{{trans-bottom}}\n{{trans-top|b}}\n{{trans-bottom}}\n")
    boxes, _ = translations.extract_translations_en(en_ps, registry)
    assert len(boxes) == 2

    ru_ps = pos_section("{{перев-блок|a}}\n{{перев-блок|b}}\n", dialect="ru")
    boxes, _ = translations.extract_translations_ru(ru_ps, registry)
    assert [gloss for gloss, _ in boxes] == ["a", "b"]


# Bodies built from tokens, so translation boxes, language lines and
# translation templates actually occur and the row invariants get exercised.
_TRANSLATION_TOKENS = (
    "\n{{trans-top|animal}}\n", "\n{{trans-bottom}}\n", "\n====Translations====\n",
    "\n* Finnish: {{t+|fi|koira}}\n", "\n* Chinese:\n*: Mandarin: {{t|zh|狗}}\n",
    "\n* Estonian: {{t|es|perro}}\n", "\n* Qqzish: [[x]]\n", "\n* Korean: [[개]]\n",
    "{{перев-блок|animal\n|fi=[[koira]]\n}}\n", "{{перев-блок|animal\n",
    "|en=[[dog]], [[hound]]\n", "|qqz=[[x]]\n",
    "{{trans-top|", "* Finnish: {{t+|fi|", "{{перев-блок|", "|fi=", "fi=",
    "[[", "]]", "}}", "|", ", ", "\n", "word", "koira", "수풀",
)


@given(st.lists(st.sampled_from(_TRANSLATION_TOKENS), min_size=8, max_size=60).map("".join))
@settings(max_examples=150)
def test_translation_extraction_never_raises(registry, body):
    for dialect in ("en", "ru"):
        ps = pos_section(body, dialect=dialect)
        if dialect == "en":
            boxes, skipped = translations.extract_translations_en(ps, registry)
        else:
            boxes, skipped = translations.extract_translations_ru(ps, registry)
        assert all(isinstance(reason, str) and reason for reason in skipped)
        for _, entries in boxes:
            for code, word, _ in entries:
                assert word
                assert registry.find_code(code) is not None
