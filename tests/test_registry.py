import pytest

from wiktmrd import registry as reg


@pytest.fixture(scope="module")
def builtin():
    return reg.builtin_registry()


def test_lookup_code_examples(builtin):
    assert builtin.lookup_code("fi").english_name == "Finnish"
    assert builtin.lookup_code("sq").english_name == "Albanian"
    with pytest.raises(reg.UnknownLanguage):
        builtin.lookup_code("zz-bogus")


def test_lookup_code_case_insensitive(builtin):
    assert builtin.lookup_code("FI").code == "fi"


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
        assert builtin.lookup_code(code).code == code
    for name in ("English", "Russian", "Finnish", "Korean", "Albanian"):
        assert builtin.find_english_name(name) is not None


def test_exactly_nine_relation_types(builtin):
    assert len(builtin.relation_types) == 9
    assert set(builtin.relation_types) == set(reg.RELATION_TYPE_NAMES)


@pytest.mark.parametrize("inner,dialect,expected", [
    ("Synonyms", "en", "synonym"),
    ("Coordinate terms", "en", "coordinate_term"),
    ("synonym", "en", "synonym"),
    ("Синонимы", "ru", "synonym"),
    ("Антонимы", "ru", "antonym"),
])
def test_classify_relation_heading(builtin, inner, dialect, expected):
    assert builtin.find_relation_heading(inner, dialect).canonical_name == expected


def test_classify_relation_heading_rejects_other_sections(builtin):
    assert builtin.find_relation_heading("Pronunciation", "en") is None


def test_classification_is_total(builtin):
    for s in ("", "  ", "Synonyms", "Etymology", "123", "=x=", "\x00"):
        rt = builtin.find_relation_heading(s, "en")
        assert rt is None or rt.canonical_name in reg.RELATION_TYPE_NAMES


def test_load_registry_extends_builtin(tmp_path):
    path = tmp_path / "extra.tsv"
    path.write_text("# comment\nzzx\tZizzish\tЗиззский\nfi\tFinnish\tФинский\n", encoding="utf-8")
    r = reg.load_registry(path)
    assert r.lookup_code("zzx").english_name == "Zizzish"
    assert r.lookup_code("fi").russian_name == "Финский"
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
    cfg = builtin.dialect_config("en")
    assert cfg.native_language.code == "en"
    cfg = builtin.dialect_config("ru")
    assert cfg.native_language.code == "ru"
    with pytest.raises(ValueError):
        reg.DialectConfig(dialect="en", native_language=builtin.lookup_code("fi"))


def test_pos_lookups(builtin):
    assert builtin.pos_for_heading_en("Noun").canonical_name == "noun"
    assert builtin.pos_for_heading_en("Proper noun").canonical_name == "proper_noun"
    assert builtin.pos_for_heading_en("Etymology") is None
    assert builtin.pos_for_ru_template("сущ ru m ina 5a").canonical_name == "noun"
    assert builtin.pos_for_ru_template("гл ru нсв").canonical_name == "verb"
    assert builtin.pos_for_ru_template("прил-ru").canonical_name == "adjective"
    assert builtin.pos_for_ru_template("table of contents") is None
