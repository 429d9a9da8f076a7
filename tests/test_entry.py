"""Sectioning, definition extraction and soft-redirect classification."""

from hypothesis import given, settings, strategies as st

from conftest import fixture_page
from wiktmrd import entry, wikitext as wt
from wiktmrd.entry import Page


# -- language sections --------------------------------------------------------

def test_en_two_language_sections(en, registry):
    page = Page(title="x", raw_text="==English==\nbody one\n==Albanian==\nbody two\n")
    sections, skipped = entry.split_language_sections(page, en, registry)
    assert [s.language for s in sections] == ["en", "sq"]
    assert skipped == []
    assert sections[0].body == "body one\n"
    assert sections[1].body == "body two\n"


def test_ru_language_template_heading(ru, registry):
    page = Page(title="x", raw_text="= {{-en-}} =\nbody\n")
    sections, skipped = entry.split_language_sections(page, ru, registry)
    assert [s.language for s in sections] == ["en"]
    assert skipped == []


def test_ru_heading_with_stray_brace(ru, registry):
    # tolerates sloppy markup around the language template
    page = Page(title="x", raw_text="= {{-sq-}}} =\nbody\n")
    sections, _ = entry.split_language_sections(page, ru, registry)
    assert [s.language for s in sections] == ["sq"]


def test_en_unknown_language_skipped(en, registry):
    page = Page(title="x", raw_text="==Qqzish==\nstuff\n")
    sections, skipped = entry.split_language_sections(page, en, registry)
    assert sections == []
    assert len(skipped) == 1 and "Qqzish" in skipped[0]


def test_partition_property_on_fixture(en, registry):
    page = fixture_page("en", "dog")
    data = wt.encode(page.raw_text)
    sections, _ = entry.split_language_sections(page, en, registry)
    for s in sections:
        assert wt.decode(data[s.span[0]:s.span[1]]) == s.body
    spans = [s.span for s in sections]
    assert spans == sorted(spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


# -- POS sections ---------------------------------------------------------------

def section_of(page, dialect, registry, index=0):
    sections, _ = entry.split_language_sections(page, dialect, registry)
    return sections[index]


def test_en_numbered_etymologies(en, registry):
    body = ("==English==\n===Etymology 1===\nx\n====Noun====\none\n"
            "===Etymology 2===\ny\n====Verb====\ntwo\n")
    sec = section_of(Page(title="t", raw_text=body), en, registry)
    ps = entry.split_pos_sections(sec, en, registry)
    assert [(p.etymology_ordinal, p.pos) for p in ps] == [
        (1, "noun"), (2, "verb")]


def test_en_single_pos(en, registry):
    sec = section_of(Page(title="t", raw_text="==English==\n===Noun===\nbody\n"), en, registry)
    ps = entry.split_pos_sections(sec, en, registry)
    assert len(ps) == 1
    assert ps[0].pos == "noun" and ps[0].etymology_ordinal == 0


def test_en_no_headings_yields_unknown(en, registry):
    sec = section_of(Page(title="t", raw_text="==English==\njust text\n"), en, registry)
    ps = entry.split_pos_sections(sec, en, registry)
    assert len(ps) == 1
    assert ps[0].pos == "unknown"
    assert ps[0].body == sec.body


def test_ru_pos_from_morphology_template(ru, registry):
    sec = section_of(fixture_page("ru", "ангел"), ru, registry)
    ps = entry.split_pos_sections(sec, ru, registry)
    assert len(ps) == 1
    assert ps[0].pos == "noun"
    assert ps[0].etymology_ordinal == 0


def test_ru_homonym_blocks(ru, registry):
    sec = section_of(fixture_page("ru", "замок"), ru, registry)
    ps = entry.split_pos_sections(sec, ru, registry)
    assert [(p.etymology_ordinal, p.pos) for p in ps] == [
        (1, "noun"), (2, "noun")]


# -- definitions -----------------------------------------------------------------

def reference_definition_filter(body: str) -> list[str]:
    """Line-by-line oracle for the definition rule."""
    out = []
    for line in body.split("\n"):
        if line.startswith("#") and not (
                line.startswith("#:") or line.startswith("#*") or line.startswith("##")):
            out.append(line[1:].strip())
    return out


def test_extract_definitions_line_rules(en, registry):
    body = "# A [[dog]].\n#: ''usage''\n# A scoundrel."
    ps = entry.PosSection(language="en", etymology_ordinal=0, pos="noun", body=body)
    got = entry.extract_definitions(ps, en, registry)
    assert [m.definition_plain for m in got] == ["A dog.", "A scoundrel."]
    assert [m.definition_wikitext for m in got] == reference_definition_filter(body)
    assert [m.ordinal for m in got] == [1, 2]


def test_extract_definitions_empty(en, registry):
    ps = entry.PosSection(language="en", etymology_ordinal=0, pos="noun", body="")
    assert entry.extract_definitions(ps, en, registry) == []


def test_extract_definitions_form_of_template(en, registry):
    ps = entry.PosSection(language="en", etymology_ordinal=0,
                          pos="noun", body="# {{plural of|dog}}\n")
    got = entry.extract_definitions(ps, en, registry)
    assert len(got) == 1
    assert got[0].definition_wikitext == "{{plural of|dog}}"


def test_ru_definitions_come_from_their_subsection(ru, registry):
    sec = section_of(fixture_page("ru", "ангел"), ru, registry)
    ps = entry.split_pos_sections(sec, ru, registry)[0]
    got = entry.extract_definitions(ps, ru, registry)
    assert len(got) == 2
    assert got[0].definition_plain.startswith("посланец бога")


@given(st.text(alphabet=st.sampled_from(list("#:*abc \n[]{}|='")), max_size=200))
@settings(max_examples=200)
def test_definition_ordinals_consecutive(registry, body):
    en_cfg = registry.dialect_config("en")
    ps = entry.PosSection(language="en", etymology_ordinal=0, pos="noun", body=body)
    got = entry.extract_definitions(ps, en_cfg, registry)
    assert [m.ordinal for m in got] == list(range(1, len(got) + 1))
    assert [m.definition_wikitext for m in got] == reference_definition_filter(body)


@given(st.text(alphabet=st.sampled_from(list("={}[]#|*' \nabцdйfg")), max_size=300))
@settings(max_examples=150)
def test_sectioning_never_raises(registry, text):
    for dialect in ("en", "ru"):
        cfg = registry.dialect_config(dialect)
        page = Page(title="fuzz", raw_text=text)
        sections, _ = entry.split_language_sections(page, cfg, registry)
        for sec in sections:
            for ps in entry.split_pos_sections(sec, cfg, registry):
                meanings = entry.extract_definitions(ps, cfg, registry)
                entry.classify_soft_redirect(page, ps, meanings, registry)


# -- soft redirects -----------------------------------------------------------------

def make_pos_section(registry, body):
    return entry.PosSection(language="en", etymology_ordinal=0, pos="noun", body=body)


def test_soft_redirect_plural(en, registry):
    page = Page(title="dogs", raw_text="")
    ps = make_pos_section(registry, "# {{plural of|dog}}\n")
    meanings = entry.extract_definitions(ps, en, registry)
    soft = entry.classify_soft_redirect(page, ps, meanings, registry)
    assert soft == ("plural of", "dog")


def test_soft_redirect_needs_single_meaning(en, registry):
    page = Page(title="dogs", raw_text="")
    ps = make_pos_section(registry, "# {{plural of|dog}}\n# Also a real word.\n")
    meanings = entry.extract_definitions(ps, en, registry)
    assert entry.classify_soft_redirect(page, ps, meanings, registry) is None


def test_soft_redirect_needs_template(en, registry):
    page = Page(title="tool", raw_text="")
    ps = make_pos_section(registry, "# A tool.\n")
    meanings = entry.extract_definitions(ps, en, registry)
    assert entry.classify_soft_redirect(page, ps, meanings, registry) is None


def test_soft_redirect_rejects_self_reference(en, registry):
    page = Page(title="dog", raw_text="")
    ps = make_pos_section(registry, "# {{plural of|dog}}\n")
    meanings = entry.extract_definitions(ps, en, registry)
    assert entry.classify_soft_redirect(page, ps, meanings, registry) is None


def test_soft_redirect_extra_text_disqualifies(en, registry):
    page = Page(title="dogs", raw_text="")
    ps = make_pos_section(registry, "# {{plural of|dog}} extra words\n")
    meanings = entry.extract_definitions(ps, en, registry)
    assert entry.classify_soft_redirect(page, ps, meanings, registry) is None
