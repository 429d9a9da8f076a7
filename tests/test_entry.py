"""Sectioning, definition extraction and soft-redirect classification."""

import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR, fixture_page, pos_section
from wiktmrd import entry, wikitext as wt
from wiktmrd.entry import Page
from wiktmrd.pipeline import EDITIONS, edition_for
from wiktmrd.registry import RELATION_TYPE_NAMES


# -- language sections --------------------------------------------------------

def test_en_two_language_sections(registry):
    page = Page(title="x", raw_text="==English==\nbody one\n==Albanian==\nbody two\n")
    sections, skipped = entry.split_language_sections(page, EDITIONS["en"], registry)
    assert [s.language for s in sections] == ["en", "sq"]
    assert skipped == []
    assert sections[0].body == "body one\n"
    assert sections[1].body == "body two\n"


def test_ru_language_template_heading(registry):
    page = Page(title="x", raw_text="= {{-en-}} =\nbody\n")
    sections, skipped = entry.split_language_sections(page, EDITIONS["ru"], registry)
    assert [s.language for s in sections] == ["en"]
    assert skipped == []


def test_ru_heading_with_stray_brace(registry):
    # tolerates sloppy markup around the language template
    page = Page(title="x", raw_text="= {{-sq-}}} =\nbody\n")
    sections, _ = entry.split_language_sections(page, EDITIONS["ru"], registry)
    assert [s.language for s in sections] == ["sq"]


@pytest.mark.parametrize("heading, reason", [
    ("= Foo =", "expected a single language template in the heading"),
    ("= {{-en-}} {{-de-}} =", "expected a single language template in the heading"),
    ("= {{перевод}} =", "not a language template: 'перевод'"),
], ids=["no_template", "two_templates", "other_template"])
def test_ru_heading_without_one_language_template_skipped(registry, heading, reason):
    page = Page(title="x", raw_text=f"{heading}\nbody\n= {{{{-sq-}}}} =\nmore\n")
    sections, skipped = entry.split_language_sections(page, EDITIONS["ru"], registry)
    assert [s.language for s in sections] == ["sq"]
    assert skipped == [reason]


def test_unknown_dialect_refused():
    with pytest.raises(ValueError, match="unsupported dialect: 'fi'"):
        edition_for("fi")
    assert edition_for("en") is EDITIONS["en"]


def test_en_unknown_language_skipped(registry):
    page = Page(title="x", raw_text="==Qqzish==\nstuff\n")
    sections, skipped = entry.split_language_sections(page, EDITIONS["en"], registry)
    assert sections == []
    assert len(skipped) == 1 and "Qqzish" in skipped[0]


def test_partition_property_on_fixture(registry):
    page = fixture_page("en", "dog")
    data = wt.encode(page.raw_text)
    sections, _ = entry.split_language_sections(page, EDITIONS["en"], registry)
    for s in sections:
        assert wt.decode(data[s.span[0]:s.span[1]]) == s.body
    spans = [s.span for s in sections]
    assert spans == sorted(spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


# -- POS sections ---------------------------------------------------------------

def section_of(page, dialect, registry, index=0):
    sections, _ = entry.split_language_sections(page, EDITIONS[dialect], registry)
    return sections[index]


def test_en_numbered_etymologies(registry):
    body = ("==English==\n===Etymology 1===\nx\n====Noun====\none\n"
            "===Etymology 2===\ny\n====Verb====\ntwo\n")
    sec = section_of(Page(title="t", raw_text=body), "en", registry)
    ps = entry.split_pos_sections(sec)
    assert [(p.etymology_ordinal, p.pos) for p in ps] == [
        (1, "noun"), (2, "verb")]


def test_en_single_pos(registry):
    sec = section_of(Page(title="t", raw_text="==English==\n===Noun===\nbody\n"), "en", registry)
    ps = entry.split_pos_sections(sec)
    assert len(ps) == 1
    assert ps[0].pos == "noun" and ps[0].etymology_ordinal == 0


def test_en_unknown_pos_heading(registry):
    body = "==English==\n===Noun===\none\n===Abbreviation===\ntwo\n"
    sec = section_of(Page(title="t", raw_text=body), "en", registry)
    ps = entry.split_pos_sections(sec)
    assert [(p.pos, p.body) for p in ps] == [("noun", "one\n"), ("unknown", "two\n")]


def test_en_no_headings_yields_unknown(registry):
    sec = section_of(Page(title="t", raw_text="==English==\njust text\n"), "en", registry)
    ps = entry.split_pos_sections(sec)
    assert len(ps) == 1 and ps[0] is sec  # the language section itself
    assert ps[0].pos == "unknown" and ps[0].etymology_ordinal == 0
    assert ps[0].body == sec.body


def test_ru_pos_from_morphology_template(registry):
    sec = section_of(fixture_page("ru", "ангел"), "ru", registry)
    ps = entry.split_pos_sections(sec)
    assert len(ps) == 1
    assert ps[0].pos == "noun"
    assert ps[0].etymology_ordinal == 0


def test_ru_homonym_blocks(registry):
    sec = section_of(fixture_page("ru", "замок"), "ru", registry)
    ps = entry.split_pos_sections(sec)
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


def test_extract_definitions_line_rules():
    body = "# A [[dog]].\n#: ''usage''\n# A scoundrel."
    ps = pos_section(body)
    got = entry.extract_definitions(ps)
    assert got == [(1, "A [[dog]].", ["dog"]), (2, "A scoundrel.", [])]
    assert [wikitext for _, wikitext, _ in got] == reference_definition_filter(body)


def test_extract_definitions_empty():
    ps = pos_section("")
    assert entry.extract_definitions(ps) == []


def test_extract_definitions_form_of_template():
    ps = pos_section("# {{plural of|dog}}\n")
    assert entry.extract_definitions(ps) == [(1, "{{plural of|dog}}", [])]


def test_ru_definitions_come_from_their_subsection(registry):
    sec = section_of(fixture_page("ru", "ангел"), "ru", registry)
    ps = entry.split_pos_sections(sec)[0]
    got = entry.extract_definitions(ps)
    assert len(got) == 2
    assert wt.strip_markup(got[0][1]).startswith("посланец бога")


@given(st.text(alphabet=st.sampled_from(list("#:*abc \n[]{}|='")), max_size=200))
@settings(max_examples=200)
def test_definition_ordinals_consecutive(body):
    got = entry.extract_definitions(pos_section(body))
    assert [ordinal for ordinal, _, _ in got] == list(range(1, len(got) + 1))
    assert [wikitext for _, wikitext, _ in got] == reference_definition_filter(body)


@given(st.text(alphabet=st.sampled_from(list("={}[]#|*' \nabцdйfg")), max_size=300))
@settings(max_examples=150)
def test_sectioning_never_raises(registry, text):
    for dialect in ("en", "ru"):
        page = Page(title="fuzz", raw_text=text)
        sections, _ = entry.split_language_sections(page, EDITIONS[dialect], registry)
        for sec in sections:
            for ps in entry.split_pos_sections(sec):
                meanings = entry.extract_definitions(ps)
                entry.classify_soft_redirect(page.title, meanings)


# -- soft redirects -----------------------------------------------------------------

def soft_redirect(title, body):
    meanings = entry.extract_definitions(pos_section(body))
    return entry.classify_soft_redirect(title, meanings)


def test_soft_redirect_plural():
    assert soft_redirect("dogs", "# {{plural of|dog}}\n") == ("plural of", "dog")


def test_soft_redirect_needs_single_meaning():
    assert soft_redirect("dogs", "# {{plural of|dog}}\n# Also a real word.\n") is None


def test_soft_redirect_needs_template():
    assert soft_redirect("tool", "# A tool.\n") is None


def test_soft_redirect_rejects_self_reference():
    assert soft_redirect("dog", "# {{plural of|dog}}\n") is None


def test_soft_redirect_extra_text_disqualifies():
    assert soft_redirect("dogs", "# {{plural of|dog}} extra words\n") is None


# -- the README's library example ---------------------------------------------------

def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("\n```", start)]
    shutil.copy(os.path.join(DATA_DIR, "entries_en", "toe.txt"), tmp_path / "toe.wiki")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "en noun 0"
    assert out[1] == "1 Each of the five digits on the end of the [[foot]]. ['foot']"
    assert "None" in out
    assert "antonym finger None" in out
    assert len([line for line in out if line.split()[0] in RELATION_TYPE_NAMES]) == 7
