import pytest

from wiktmrd import registry as reg
from wiktmrd.pipeline import EDITIONS


@pytest.fixture(scope="module")
def builtin():
    return reg.builtin_registry()


def test_lookup_code_examples(builtin):
    assert builtin.languages[builtin.find_code("fi")].english_name == "Finnish"
    assert builtin.languages[builtin.find_code("sq")].english_name == "Albanian"
    assert builtin.find_code("zz-bogus") is None


def test_lookup_code_case_insensitive(builtin):
    assert builtin.find_code("FI") == "fi"
    # the table's own string, which a pickle of many rows holds once
    assert builtin.find_code(" FI ") is builtin.find_code("fi")


def test_lookup_english_name_examples(builtin):
    assert builtin.find_english_name("Finnish") == "fi"
    assert builtin.find_english_name("Korean") == "ko"
    assert builtin.find_english_name("Klingonish") is None


def test_builtin_size_at_least_540(builtin):
    assert len(builtin.languages) >= 540


def test_builtin_bijection(builtin):
    for lang in builtin.languages.values():
        assert builtin.find_english_name(lang.english_name) == lang.code


def test_fixture_languages_resolve(builtin):
    for code in ("en", "ru", "fi", "ko", "sq", "et", "es"):
        assert builtin.find_code(code) == code
    for name in ("English", "Russian", "Finnish", "Korean", "Albanian"):
        assert builtin.find_english_name(name) is not None


def test_exactly_nine_relation_types():
    assert len(reg.RELATION_TYPE_NAMES) == 9
    # every type has a heading in each edition, and headings name no other type
    for edition in EDITIONS.values():
        assert set(edition.relation_headings.values()) == set(reg.RELATION_TYPE_NAMES)


@pytest.mark.parametrize("inner,dialect,expected", [
    ("Synonyms", "en", "synonym"),
    ("Coordinate terms", "en", "coordinate_term"),
    ("synonym", "en", "synonym"),
    ("Синонимы", "ru", "synonym"),
    ("Антонимы", "ru", "antonym"),
])
def test_classify_relation_heading(inner, dialect, expected):
    assert EDITIONS[dialect].relation_headings.get(inner.strip().casefold()) == expected


def test_classify_relation_heading_rejects_other_sections():
    for edition in EDITIONS.values():
        assert "pronunciation" not in edition.relation_headings


def test_classification_is_total():
    for edition in EDITIONS.values():
        # keys are casefolded, as relations.extract_relations looks them up
        assert all(heading == heading.casefold() for heading in edition.relation_headings)
        for s in ("", "  ", "Synonyms", "Etymology", "123", "=x=", "\x00"):
            rt = edition.relation_headings.get(s.strip().casefold())
            assert rt is None or rt in reg.RELATION_TYPE_NAMES


def test_load_registry_extends_builtin(tmp_path):
    path = tmp_path / "extra.tsv"
    path.write_text("# comment\nzzx\tZizzish\tЗиззский\nfi\tFinnish\tФинский\n", encoding="utf-8")
    r = reg.load_registry(path)
    assert r.languages["zzx"].english_name == "Zizzish"
    assert r.languages["fi"].russian_name == "Финский"
    assert len(r.languages) >= 541


def test_load_registry_empty_file_equals_builtin(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    r = reg.load_registry(path)
    assert set(r.languages) == set(reg.builtin_registry().languages)


def test_load_registry_single_column_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("fi\tFinnish\nnocolumns\n", encoding="utf-8")
    with pytest.raises(reg.MalformedRegistryFile) as exc:
        reg.load_registry(path)
    assert exc.value.line_no == 2


def test_load_registry_empty_name_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("fi\tFinnish\nzzx\t ; ;\tЗиззский\n", encoding="utf-8")
    with pytest.raises(reg.MalformedRegistryFile, match="empty language name") as exc:
        reg.load_registry(path)
    assert exc.value.line_no == 2


def test_load_registry_bad_code_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("X!\tBroken\n", encoding="utf-8")
    with pytest.raises(reg.MalformedRegistryFile):
        reg.load_registry(path)


def test_pos_lookups():
    assert reg.POS_HEADINGS_EN["noun"] == "noun"
    assert reg.POS_HEADINGS_EN["proper noun"] == "proper_noun"
    assert reg.POS_HEADINGS_EN["abbreviation"] == reg.UNKNOWN_POS
    assert "etymology" not in reg.POS_HEADINGS_EN
    assert reg.pos_for_ru_template("сущ ru m ina 5a") == "noun"
    assert reg.pos_for_ru_template("гл ru нсв") == "verb"
    assert reg.pos_for_ru_template("прил-ru") == "adjective"
    assert reg.pos_for_ru_template("table of contents") is None
