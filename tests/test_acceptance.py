"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v`. Golden TSV exports live in
tests/data/golden_en and golden_ru; regenerate with
WIKTMRD_REGEN_GOLDEN=1 after a deliberate behavior change and review the diff.
"""

import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import DATA_DIR, fixture_dump_pages, write_dump
from wiktmrd import stats
from wiktmrd.pipeline import ParseConfig, run_parse
from wiktmrd.registry import RELATION_TYPE_NAMES, builtin_registry
from wiktmrd.store import MrdStore

REGEN = bool(os.environ.get("WIKTMRD_REGEN_GOLDEN"))


def _export_of_corpus(tmp_path, dialect):
    dump = write_dump(tmp_path / f"{dialect}.xml", fixture_dump_pages(dialect))
    store_path = tmp_path / f"{dialect}.db"
    report = run_parse(ParseConfig(dialect=dialect, dump_path=dump,
                                   store_path=store_path))
    assert report.pages_failed == 0
    export_dir = tmp_path / f"export_{dialect}"
    with MrdStore(store_path) as store:
        store.export_tsv(export_dir)
    return store_path, export_dir


def _compare_to_golden(export_dir, golden_dir):
    if REGEN:
        if os.path.isdir(golden_dir):
            shutil.rmtree(golden_dir)
        shutil.copytree(export_dir, golden_dir)
        return
    names = sorted(os.listdir(golden_dir))
    assert sorted(os.listdir(export_dir)) == names
    for name in names:
        got = Path(export_dir, name).read_bytes()
        want = Path(golden_dir, name).read_bytes()
        assert got == want, f"{name} deviates from the golden export"


def _relation_groups(store, title):
    """{(etymology, pos): (relation count, distinct type count)} for a page."""
    rows = store.query(
        "SELECT lp.etymology_ordinal, po.name, COUNT(r.id), "
        "COUNT(DISTINCT r.relation_type_id) "
        "FROM lang_pos lp "
        "JOIN page p ON p.id=lp.page_id "
        "JOIN pos po ON po.id=lp.pos_id "
        "LEFT JOIN relation r ON r.lang_pos_id=lp.id "
        "WHERE p.title=? GROUP BY lp.id", (title,))
    return {(etym, pos): (n, t) for etym, pos, n, t in rows}


def test_criterion_1_fixture_golden_suite(tmp_path):
    t0 = time.monotonic()
    en_store_path, en_export = _export_of_corpus(tmp_path, "en")
    ru_store_path, ru_export = _export_of_corpus(tmp_path, "ru")

    with MrdStore(en_store_path) as store:
        assert _relation_groups(store, "toe") == {(0, "noun"): (7, 6)}
        paw = _relation_groups(store, "paw")
        assert paw == {(1, "noun"): (12, 4), (2, "noun"): (7, 5)}
        iron = _relation_groups(store, "iron")
        assert iron[(0, "noun")][1] == 6
        # bush: Finnish pensas + Korean 수풀 (supul)
        rows = store.query(
            "SELECT l.code, w.text FROM translation_entry e "
            "JOIN translation t ON t.id=e.translation_id "
            "JOIN lang_pos lp ON lp.id=t.lang_pos_id "
            "JOIN page p ON p.id=lp.page_id "
            "JOIN lang l ON l.id=e.lang_id "
            "JOIN wiki_text w ON w.id=e.wiki_text_id "
            "WHERE p.title='bush' ORDER BY e.id")
        assert rows == [("fi", "{{t+|fi|pensas}}"), ("ko", "[[수풀]]")]
        assert store.query(
            "SELECT is_soft_redirect, redirect_target FROM page WHERE title='dogs'"
        ) == [(1, "dog")]
        inflect = store.query(
            "SELECT form_kind, lemma_title FROM inflection i "
            "JOIN lang_pos lp ON lp.id=i.lang_pos_id "
            "JOIN page p ON p.id=lp.page_id WHERE p.title='dogs'")
        assert inflect == [("plural of", "dog")]

    with MrdStore(ru_store_path) as store:
        rows = store.query(
            "SELECT l.code, ww.page_ref_title FROM translation_entry e "
            "JOIN translation t ON t.id=e.translation_id "
            "JOIN lang_pos lp ON lp.id=t.lang_pos_id "
            "JOIN page p ON p.id=lp.page_id "
            "JOIN lang l ON l.id=e.lang_id "
            "JOIN wiki_text_words ww ON ww.wiki_text_id=e.wiki_text_id "
            "WHERE p.title='ангел' ORDER BY e.id")
        assert rows == [("en", "angel"), ("fi", "enkeli"), ("ko", "천사")]
        # собака: empty relation headers yield exactly the one synonym
        assert _relation_groups(store, "собака") == {(0, "noun"): (1, 1)}
        # замок: homonyms counted separately
        assert _relation_groups(store, "замок") == {
            (1, "noun"): (1, 1), (2, "noun"): (2, 1)}

    _compare_to_golden(en_export, os.path.join(DATA_DIR, "golden_en"))
    _compare_to_golden(ru_export, os.path.join(DATA_DIR, "golden_ru"))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"golden suite took {elapsed:.2f}s (budget 5s)"
    print(f"\nACCEPTANCE 1 PASS: fixture golden suite exact match in {elapsed:.2f}s")


def test_criterion_2_formula_reproduction():
    ru = stats.NativeStats.from_counts(25747, 129669, 83968, 241573)
    assert ru.avg_relations_per_native_word == pytest.approx(0.65, abs=0.005)
    en = stats.NativeStats.from_counts(100268, 315343, 43814, 1721584)
    assert en.avg_relations_per_native_word == pytest.approx(0.14, abs=0.005)
    ratios = stats.ratio_report(
        {"relation": 157198, "translation": 59321},
        {"relation": 100121, "translation": 38306})
    assert ratios["relation"] == pytest.approx(1.57, abs=0.005)
    assert ratios["translation"] == pytest.approx(1.55, abs=0.005)
    print("\nACCEPTANCE 2 PASS: published-count formulas reproduce "
          "(0.65, 0.14, 1.57, 1.55 within ±0.005)")


def _random_store_description(rng, max_words=500):
    langs = ("en", "ru", "fi", "ko", "sq", "de")
    out = []
    for i in range(rng.randint(0, max_words)):
        n_rel = rng.randint(0, 15)
        types = [rng.choice(RELATION_TYPE_NAMES) for _ in range(n_rel)]
        out.append((f"word{rng.randrange(2 * max_words)}", rng.choice(langs), types))
    # titles must be unique per store (idempotent upsert would merge them)
    seen = set()
    unique = []
    for title, lang, types in out:
        if title not in seen:
            seen.add(title)
            unique.append((title, lang, types))
    return unique


def _store_from_description(description):
    store = MrdStore(":memory:", dialect="en")
    store.begin()
    for i, (title, lang, types) in enumerate(description):
        store.save_word(title, i, [(
            lang, "noun", 0,
            [(1, f"def {title}", [])],
            [(t, f"t{k}", f"[[t{k}]]", None) for k, t in enumerate(types)],
            [], None)])
    store.commit()
    return store


def test_criterion_3_oracle_equivalence():
    rng = random.Random(61010)
    descriptions = [_random_store_description(rng) for _ in range(200)]
    for trial, desc in enumerate(descriptions):
        with _store_from_description(desc) as store:
            hist = stats.relation_histogram(store)
            expected = Counter(min(len(types), 13) for _, _, types in desc)
            assert hist.buckets == [expected.get(n, 0) for n in range(14)], trial
            assert sum(hist.buckets) == len(desc)

            dist = stats.type_count_distribution(store)
            expected_types = Counter(len(set(t)) for _, _, t in desc if t)
            assert dist.counts == {k: expected_types.get(k, 0) for k in range(1, 10)}

    for trial in range(0, 200, 2):
        desc_a, desc_b = descriptions[trial], descriptions[trial + 1]
        with _store_from_description(desc_a) as a, _store_from_description(desc_b) as b:
            report = stats.compare_dictionaries(a, b)
            set_a, set_b = {}, {}
            for title, lang, _ in desc_a:
                set_a.setdefault(lang, set()).add(title)
            for title, lang, _ in desc_b:
                set_b.setdefault(lang, set()).add(title)
            for code in set(set_a) | set(set_b):
                cov = report.per_language[code]
                in_a, in_b = set_a.get(code, set()), set_b.get(code, set())
                assert cov.only_a == len(in_a - in_b)
                assert cov.only_b == len(in_b - in_a)
                assert cov.both == len(in_a & in_b)
            assert report.red_list_a == sorted(set(set_a) - set(set_b))
            assert report.red_list_b == sorted(set(set_b) - set(set_a))
    print("\nACCEPTANCE 3 PASS: 200 randomized stores match brute-force oracles exactly")


_FUZZ_TOKENS = (
    "{{", "}}", "[[", "]]", "|", "=", "==", "# ", "#: ", "* ", "'''", "''",
    "\n", "\n\n", "word", "слово", "수풀", "t+", "fi", "Synonyms", "English",
    "==English==\n", "===Noun===\n", "# def [[x]]\n", "====Synonyms====\n",
    "* [[y]]\n", "{{t+|fi|", "{{plural of|", "= {{-en-}} =\n", "{{перев-блок|",
    "======x======\n", "=======asym==\n", "{{a|b={{c|d}}|e}}",
)


def _fuzz_page_text(rng, size):
    parts = []
    total = 0
    while total < size:
        token = rng.choice(_FUZZ_TOKENS)
        parts.append(token)
        total += len(token)
    return "".join(parts)


def test_criterion_4_fuzzed_dump_robustness(tmp_path):
    rng = random.Random(0xFACADE)
    pages = []
    for i in range(10000):
        size = 100_000 if i % 1000 == 0 else rng.randint(200, 1500)
        pages.append((f"fuzz{i:05d}", _fuzz_page_text(rng, size)))
    dump = write_dump(tmp_path / "fuzz.xml", pages)
    store_path = tmp_path / "fuzz.db"
    report = run_parse(ParseConfig(dialect="en", dump_path=dump,
                                   store_path=store_path))
    assert report.pages_seen == 10000
    assert report.pages_seen == (report.pages_parsed + report.pages_skipped_redirect
                                 + report.pages_skipped_namespace + report.pages_failed)
    with MrdStore(store_path) as store:
        store.export_tsv(tmp_path / "export")  # runs the referential check
    print(f"\nACCEPTANCE 4 PASS: 10,000 fuzzed pages "
          f"({report.pages_parsed} parsed, {report.pages_failed} failed, accounted), "
          f"integrity clean, {report.elapsed:.1f}s")


def _resume_corpus(n=1000):
    pages = []
    for i in range(n):
        pages.append((
            f"entry{i:04d}",
            f"==English==\n===Noun===\n# Sense [[w{i}]], a thing.\n"
            f"====Synonyms====\n* [[s{i}a]], [[s{i}b]]\n"
            f"====Translations====\n{{{{trans-top|thing}}}}\n"
            f"* Finnish: {{{{t+|fi|f{i}}}}}\n{{{{trans-bottom}}}}\n"))
    return pages


def _cli(args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "wiktmrd.cli", *args],
                          capture_output=True, text=True, env=env)


def test_criterion_5_resume_equivalence(tmp_path):
    dump = write_dump(tmp_path / "resume.xml", _resume_corpus())
    base = ["parse", "--dialect", "en", "--dump", str(dump),
            "--checkpoint-interval", "37"]

    clean = _cli([*base, "--store", str(tmp_path / "clean.db")])
    assert clean.returncode == 0, clean.stderr
    with MrdStore(tmp_path / "clean.db") as store:
        store.export_tsv(tmp_path / "export_clean")
    reference = {
        name: Path(tmp_path / "export_clean", name).read_bytes()
        for name in sorted(os.listdir(tmp_path / "export_clean"))}

    rng = random.Random(55)
    kill_points = sorted(rng.sample(range(5, 995), 5))
    for point in kill_points:
        store_path = tmp_path / f"crash{point}.db"
        crashed = _cli([*base, "--store", str(store_path)],
                       env_extra={"WIKTMRD_CRASH_AFTER_PAGES": str(point)})
        assert crashed.returncode == 86
        resumed = _cli([*base, "--store", str(store_path)])
        assert resumed.returncode == 0, resumed.stderr
        export = tmp_path / f"export{point}"
        with MrdStore(store_path) as store:
            store.export_tsv(export)
        for name, want in reference.items():
            got = Path(export, name).read_bytes()
            assert got == want, f"kill at {point}: {name} deviates"
    print(f"\nACCEPTANCE 5 PASS: kill-and-resume at pages {kill_points} "
          "reproduces the uninterrupted export byte for byte")


def _realistic_corpus(n):
    rng = random.Random(4242)
    pos_blocks = ("Noun", "Verb", "Adjective")
    rels = ("Synonyms", "Antonyms", "Hypernyms", "Hyponyms")
    pages = []
    for i in range(n):
        pos = rng.choice(pos_blocks)
        parts = [f"==English==\n\n===Etymology===\nFrom {{{{etyl|ang}}}} "
                 f"{{{{term|w{i}}}}}.\n\n==={pos}===\n{{{{en-noun}}}}\n\n"]
        for k in range(rng.randint(1, 3)):
            parts.append(f"# A [[sense{i % 97}]] of kind {k}, "
                         f"''rarely'' seen in the wild.\n")
        parts.append(f"\n===={rng.choice(rels)}====\n")
        for k in range(rng.randint(1, 4)):
            parts.append(f"* [[rel{(i * 7 + k) % 503}]]\n")
        parts.append("\n====Translations====\n{{trans-top|the sense}}\n"
                     f"* Finnish: {{{{t+|fi|sana{i % 211}}}}}\n"
                     f"* Russian: {{{{t+|ru|слово{i % 211}}}}}\n"
                     "{{trans-bottom}}\n")
        pages.append((f"entry{i:05d}", "".join(parts)))
    return pages


def test_criterion_6_throughput(tmp_path):
    n = 10000
    dump = write_dump(tmp_path / "big.xml", _realistic_corpus(n))
    t0 = time.monotonic()
    report = run_parse(ParseConfig(dialect="en", dump_path=dump,
                                   store_path=tmp_path / "big.db"))
    elapsed = time.monotonic() - t0
    assert report.pages_parsed == n
    assert elapsed <= 60.0, f"{n} entries took {elapsed:.1f}s (budget 60s)"
    print(f"\nACCEPTANCE 6 PASS: {n} realistic entries parsed and stored "
          f"in {elapsed:.1f}s ({n / elapsed:.0f} pages/s)")


def test_criterion_7_registry_completeness():
    registry = builtin_registry()
    assert len(registry.languages) >= 540
    fixture_codes = ("en", "ru", "fi", "ko", "sq", "es", "et", "zh")
    for code in fixture_codes:
        assert registry.find_code(code) == code
    for name in ("English", "Russian", "Finnish", "Korean", "Albanian",
                 "Spanish", "Estonian", "Chinese"):
        assert registry.find_english_name(name) is not None, name
    print(f"\nACCEPTANCE 7 PASS: {len(registry.languages)} built-in codes; "
          "all fixture languages resolve")
