"""Statistics: formula checks on published Wiktionary counts and brute-force oracles."""

import math
import random
from collections import Counter

import pytest

from wiktmrd import stats
from wiktmrd.registry import RELATION_TYPE_NAMES
from wiktmrd.store import MrdStore, WordBundle


def make_store(path, description, native="en"):
    """description: list of (title, lang_code, [relation type names])."""
    store = MrdStore(path, native_code=native, dialect=native)
    for i, (title, lang, types) in enumerate(description):
        store.save_word(WordBundle(title=title, record_id=i, lang_pos=[(
            lang, "noun", 0,
            [(1, f"def of {title}", [])],
            [(t, f"t{k}", f"[[t{k}]]", 1) for k, t in enumerate(types)],
            [], None)]))
    return store


def random_description(rng, max_words=60, langs=("en", "fi", "ru")):
    words = rng.randint(0, max_words)
    out = []
    for i in range(words):
        types = [rng.choice(RELATION_TYPE_NAMES)
                 for _ in range(rng.randint(0, 15))]
        out.append((f"word{i}", rng.choice(langs), types))
    return out


# -- formulas on published Wiktionary database counts -------------------------------

def test_average_relations_formula_ru_column():
    ns = stats.NativeStats.from_counts(
        words_with_relations=25747, native_words=129669,
        native_native_relations=83968, content_pages=241573)
    assert ns.avg_relations_per_native_word == pytest.approx(0.65, abs=0.005)
    assert ns.native_fraction * 100 == pytest.approx(53.68, abs=0.005)
    assert ns.relations_fraction * 100 == pytest.approx(10.66, abs=0.005)


def test_average_relations_formula_en_column():
    ns = stats.NativeStats.from_counts(
        words_with_relations=100268, native_words=315343,
        native_native_relations=43814, content_pages=1721584)
    assert ns.avg_relations_per_native_word == pytest.approx(0.14, abs=0.005)
    assert ns.relations_fraction * 100 == pytest.approx(5.82, abs=0.005)


def test_ratio_report_published_table_sizes():
    ratios = stats.ratio_report(
        {"relation": 157198, "translation": 59321},
        {"relation": 100121, "translation": 38306})
    assert ratios["relation"] == pytest.approx(1.57, abs=0.005)
    assert ratios["translation"] == pytest.approx(1.55, abs=0.005)


def test_ratio_report_division_by_zero(tmp_path):
    ratios = stats.ratio_report({"x": 5}, {"x": 0})
    assert math.isinf(ratios["x"])
    assert stats.format_ratio(ratios["x"]) == "∞"


def test_ratio_report_identity():
    sizes = {"a": 3, "b": 7, "c": 0}
    ratios = stats.ratio_report(sizes, sizes)
    assert ratios["a"] == 1.0 and ratios["b"] == 1.0
    assert math.isinf(ratios["c"])


def test_ratio_report_mismatched_tables():
    with pytest.raises(stats.MismatchedTables):
        stats.ratio_report({"a": 1}, {"b": 1})


# -- store-backed metrics ----------------------------------------------------------

def test_empty_store_stats(tmp_path):
    with MrdStore(tmp_path / "s.db", native_code="en", dialect="en") as store:
        ns = stats.compute_native_stats(store)
        assert ns.empty_store
        assert ns.avg_relations_per_native_word == 0.0
        hist = stats.relation_histogram(store)
        assert sum(hist.buckets) == store.table_sizes()["lang_pos"] == 0


def test_native_native_requires_target_resolution(tmp_path):
    desc = [("warm", "en", ["antonym"]), ("hot", "en", [])]
    with make_store(tmp_path / "s.db", desc) as store:
        # target "t0" is not a native entry
        assert stats.compute_native_stats(store).native_native_relations == 0
        store.save_word(WordBundle(title="t0", record_id=9, lang_pos=[
            ("en", "noun", 0, [], [], [], None)]))
        assert stats.compute_native_stats(store).native_native_relations == 1
        # foreign-owned relations never count as native-to-native
        store.save_word(WordBundle(title="kuuma", record_id=10, lang_pos=[
            ("fi", "noun", 0, [], [("synonym", "t0", "[[t0]]", None)], [], None)]))
        assert stats.compute_native_stats(store).native_native_relations == 1


def _brute_force_native_native(store, native):
    """native_native_relations worked out in Python from the table rows."""
    native_lang = {i for i, code in store.query("SELECT id, code FROM lang") if code == native}
    title = dict(store.query("SELECT id, title FROM page"))
    native_entries = {i: title[page_id] for i, page_id, lang_id in store.query(
        "SELECT id, page_id, lang_id FROM lang_pos") if lang_id in native_lang}
    native_titles = set(native_entries.values())
    linked = {text for text, word in store.query(
        "SELECT wiki_text_id, page_ref_title FROM wiki_text_words") if word in native_titles}
    return sum(1 for lang_pos_id, text in store.query(
        "SELECT lang_pos_id, wiki_text_id FROM relation")
        if lang_pos_id in native_entries and text in linked)


def test_native_native_matches_brute_force(tmp_path):
    def entry(lang, etymology=0, meanings=(), relations=()):
        return (lang, "noun", etymology, list(meanings), list(relations), [], None)

    both = "[[large]], [[great]]"  # one relation text linking two native titles
    pages = {
        "cold": [entry("en", 1), entry("en", 2)],  # two native entries
        "large": [entry("en")], "great": [entry("en")],
        "kuuma": [entry("fi")],                    # non-native only
        "warm": [entry("en", relations=[("antonym", "cold", "[[cold]]", None),
                                        ("synonym", "kuuma", "[[kuuma]]", None)])],
        "big": [entry("en", meanings=[(1, both, ["large", "great"])],
                      relations=[("synonym", "large", both, 1)])],
    }
    with MrdStore(tmp_path / "s.db", native_code="en", dialect="en") as store:
        for i, (title, lang_pos) in enumerate(pages.items()):
            store.save_word(WordBundle(title=title, record_id=i, lang_pos=lang_pos))
        assert stats.compute_native_stats(store).native_native_relations == 2
        assert _brute_force_native_native(store, "en") == 2

    rng = random.Random(20100406)
    titles = [f"w{i}" for i in range(12)]
    for trial in range(10):
        with MrdStore(tmp_path / f"r{trial}.db", native_code="en", dialect="en") as store:
            for i, title in enumerate(titles):
                targets = rng.sample(titles + ["absent"], rng.randint(0, 4))
                store.save_word(WordBundle(title=title, record_id=i, lang_pos=[
                    entry(rng.choice(("en", "fi")), etymology, relations=[
                        ("synonym", t, f"[[{t}]]", None) for t in targets])
                    for etymology in range(rng.randint(1, 2))]))
            assert (stats.compute_native_stats(store).native_native_relations
                    == _brute_force_native_native(store, "en"))


def test_histogram_single_entry_with_seven(tmp_path):
    with make_store(tmp_path / "s.db",
                    [("toe", "en", ["synonym"] * 7)]) as store:
        hist = stats.relation_histogram(store)
        assert hist.buckets[7] == 1
        assert sum(hist.buckets) == store.table_sizes()["lang_pos"] == 1


def test_type_distribution_fixture_counts(tmp_path):
    desc = [
        ("iron", "en", ["synonym", "hypernym", "hyponym", "meronym",
                        "holonym", "coordinate_term"]),
        ("paw1", "en", ["synonym"] * 6 + ["hypernym"] * 3 +
                       ["hyponym"] * 2 + ["coordinate_term"]),
        ("paw2", "en", ["synonym", "synonym", "antonym", "hypernym",
                        "hypernym", "meronym", "see_also"]),
    ]
    with make_store(tmp_path / "s.db", desc) as store:
        dist = stats.type_count_distribution(store)
        assert dist.counts[6] == 1
        assert dist.counts[4] == 1
        assert dist.counts[5] == 1
        assert sum(dist.counts.values()) == 3


def test_histogram_and_distribution_match_oracle(tmp_path):
    rng = random.Random(20100405)
    for trial in range(25):
        desc = random_description(rng)
        with make_store(tmp_path / f"s{trial}.db", desc) as store:
            hist = stats.relation_histogram(store)
            expected = Counter(min(len(types), 13) for _, _, types in desc)
            assert hist.buckets == [expected.get(n, 0) for n in range(14)]
            assert sum(hist.buckets) == len(desc)

            dist = stats.type_count_distribution(store)
            expected_types = Counter(
                len(set(types)) for _, _, types in desc if types)
            assert dist.counts == {k: expected_types.get(k, 0) for k in range(1, 10)}


def test_avg_times_native_words_equals_relations():
    ns = stats.NativeStats.from_counts(10, 7, 23, 100)
    assert ns.avg_relations_per_native_word * ns.native_words == pytest.approx(23)


# -- cross-dictionary comparison ------------------------------------------------------

def test_compare_identical_stores(tmp_path):
    desc = [("dog", "en", ["synonym"]), ("hund", "fi", [])]
    with make_store(tmp_path / "a.db", desc) as a, \
         make_store(tmp_path / "b.db", desc) as b:
        report = stats.compare_dictionaries(a, b)
        assert report.red_list_a == report.red_list_b == []
        for cov in report.per_language.values():
            assert cov.only_a == cov.only_b == 0
            assert cov.both > 0
        assert report.better_in_a == [] and report.better_in_b == []


def test_compare_simple_difference(tmp_path):
    with make_store(tmp_path / "a.db", [("dog", "en", [])]) as a, \
         make_store(tmp_path / "b.db", [("dog", "en", []), ("cat", "en", [])]) as b:
        report = stats.compare_dictionaries(a, b)
        cov = report.per_language["en"]
        assert (cov.only_a, cov.only_b, cov.both) == (0, 1, 1)
        assert report.better_in_b == ["en"]


def test_compare_red_list(tmp_path):
    with make_store(tmp_path / "a.db", [("dog", "en", []), ("qen", "sq", [])]) as a, \
         make_store(tmp_path / "b.db", [("dog", "en", []), ("koira", "fi", [])]) as b:
        report = stats.compare_dictionaries(a, b)
        assert report.red_list_a == ["sq"]
        assert report.red_list_b == ["fi"]


def test_compare_matches_set_oracle(tmp_path):
    rng = random.Random(988)
    for trial in range(10):
        desc_a = random_description(rng, max_words=25)
        desc_b = random_description(rng, max_words=25)
        with make_store(tmp_path / f"a{trial}.db", desc_a) as a, \
             make_store(tmp_path / f"b{trial}.db", desc_b) as b:
            report = stats.compare_dictionaries(a, b)
            words_a = {}
            words_b = {}
            for title, lang, _ in desc_a:
                words_a.setdefault(lang, set()).add(title)
            for title, lang, _ in desc_b:
                words_b.setdefault(lang, set()).add(title)
            for code in set(words_a) | set(words_b):
                cov = report.per_language[code]
                in_a = words_a.get(code, set())
                in_b = words_b.get(code, set())
                assert cov.only_a == len(in_a - in_b)
                assert cov.only_b == len(in_b - in_a)
                assert cov.both == len(in_a & in_b)
            assert report.red_list_a == sorted(set(words_a) - set(words_b))
            assert report.red_list_b == sorted(set(words_b) - set(words_a))
