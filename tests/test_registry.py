import pytest

from wiktmrd import registry as reg


@pytest.fixture(scope="module")
def builtin():
    return reg.builtin_registry()


def test_lookup_code_examples(builtin):
    assert builtin.find_code("fi").english_name == "Finnish"
    assert builtin.find_code("sq").english_name == "Albanian"
    assert builtin.find_code("zz-bogus") is None


def test_lookup_code_case_insensitive(builtin):
    assert builtin.find_code("FI").code == "fi"


def test_lookup_english_name_examples(builtin):
    assert builtin.find_english_name("Finnish").code == "fi"
    assert builtin.find_english_name("Korean").code == "ko"
    assert builtin.find_english_name("Klingonish") is None


def test_builtin_size_at_least_540(builtin):
    assert len(builtin.languages) >= 540


def test_builtin_bijection(builtin):
    for lang in builtin.languages.values():
        assert builtin.find_english_name(lang.english_name).code == lang.code


def test_fixture_languages_resolve(builtin):
    for code in ("en", "ru", "fi", "ko", "sq", "et", "es"):
        assert builtin.find_code(code).code == code
    for name in ("English", "Russian", "Finnish", "Korean", "Albanian"):
        assert builtin.find_english_name(name) is not None


def test_exactly_nine_relation_types():
    assert len(reg.RELATION_TYPE_NAMES) == 9
    # every type has a heading in both dialects, and headings name no other type
    for dialect in ("en", "ru"):
        assert set(reg._RELATION_BY_HEADING[dialect].values()) == set(reg.RELATION_TYPE_NAMES)


@pytest.mark.parametrize("inner,dialect,expected", [
    ("Synonyms", "en", "synonym"),
    ("Coordinate terms", "en", "coordinate_term"),
    ("synonym", "en", "synonym"),
    ("Синонимы", "ru", "synonym"),
    ("Антонимы", "ru", "antonym"),
])
def test_classify_relation_heading(builtin, inner, dialect, expected):
    assert builtin.find_relation_heading(inner, dialect) == expected


def test_classify_relation_heading_rejects_other_sections(builtin):
    assert builtin.find_relation_heading("Pronunciation", "en") is None


def test_classification_is_total(builtin):
    for s in ("", "  ", "Synonyms", "Etymology", "123", "=x=", "\x00"):
        rt = builtin.find_relation_heading(s, "en")
        assert rt is None or rt in reg.RELATION_TYPE_NAMES


def test_load_registry_extends_builtin(tmp_path):
    path = tmp_path / "extra.tsv"
    path.write_text("# comment\nzzx\tZizzish\tЗиззский\nfi\tFinnish\tФинский\n", encoding="utf-8")
    r = reg.load_registry(path)
    assert r.find_code("zzx").english_name == "Zizzish"
    assert r.find_code("fi").russian_name == "Финский"
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


def test_load_registry_bad_code_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("X!\tBroken\n", encoding="utf-8")
    with pytest.raises(reg.MalformedRegistryFile):
        reg.load_registry(path)


def test_dialect_config(builtin):
    assert builtin.dialect_config("en").dialect == "en"
    assert builtin.dialect_config("ru").dialect == "ru"
    with pytest.raises(ValueError):
        builtin.dialect_config("fi")


def test_pos_lookups(builtin):
    assert builtin.pos_for_heading_en("Noun") == "noun"
    assert builtin.pos_for_heading_en("Proper noun") == "proper_noun"
    assert builtin.pos_for_heading_en("Etymology") is None
    assert builtin.pos_for_ru_template("сущ ru m ina 5a") == "noun"
    assert builtin.pos_for_ru_template("гл ru нсв") == "verb"
    assert builtin.pos_for_ru_template("прил-ru") == "adjective"
    assert builtin.pos_for_ru_template("table of contents") is None
