"""Lexicographic statistics over a store and comparison between two stores:
native-language metrics, per-entry relation histogram, relation-type-count
distribution, table-size ratios and cross-dictionary coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .store import MrdStore

INFINITY_MARK = "∞"


@dataclass
class NativeStats:
    words_with_relations: int = 0
    native_words: int = 0
    native_native_relations: int = 0
    content_pages: int = 0
    native_fraction: float = 0.0            # native words / content pages
    relations_fraction: float = 0.0         # words with relations / content pages
    avg_relations_per_native_word: float = 0.0
    empty_store: bool = False

    @classmethod
    def from_counts(cls, words_with_relations: int, native_words: int,
                    native_native_relations: int, content_pages: int = 0) -> "NativeStats":
        return cls(
            words_with_relations=words_with_relations,
            native_words=native_words,
            native_native_relations=native_native_relations,
            content_pages=content_pages,
            native_fraction=(native_words / content_pages) if content_pages else 0.0,
            relations_fraction=(words_with_relations / content_pages) if content_pages else 0.0,
            avg_relations_per_native_word=(
                native_native_relations / native_words) if native_words else 0.0,
            empty_store=not (words_with_relations or native_words
                             or native_native_relations or content_pages),
        )


@dataclass
class RelationHistogram:
    """buckets[n] = entries with exactly n relations for n in 0..12;
    buckets[13] collects 13 and more."""

    buckets: list[int] = field(default_factory=lambda: [0] * 14)

    OVERFLOW = 13


@dataclass
class TypeCountDistribution:
    """counts[k] = words whose relations span exactly k distinct types, k=1..9."""

    counts: dict[int, int] = field(default_factory=lambda: {k: 0 for k in range(1, 10)})


def compute_native_stats(store: MrdStore) -> NativeStats:
    native = store.native_code
    words_with_relations = store.query(
        "SELECT COUNT(DISTINCT lang_pos_id) FROM relation")[0][0]
    native_words = store.query(
        "SELECT COUNT(*) FROM lang_pos lp JOIN lang l ON l.id=lp.lang_id WHERE l.code=?",
        (native,))[0][0]
    # a native-to-native relation: the owning entry is native and its text
    # links a word that exists as a native entry. The texts linking a native
    # title are collected once, not searched for each relation.
    native_native = store.query(
        "SELECT COUNT(*) FROM relation r "
        "JOIN lang_pos lp ON lp.id = r.lang_pos_id "
        "JOIN lang l ON l.id = lp.lang_id "
        "WHERE l.code = ? AND r.wiki_text_id IN ("
        "  SELECT w.wiki_text_id FROM wiki_text_words w WHERE w.page_ref_title IN ("
        "    SELECT p2.title FROM page p2 "
        "    JOIN lang_pos lp2 ON lp2.page_id = p2.id "
        "    JOIN lang l2 ON l2.id = lp2.lang_id WHERE l2.code = ?))",
        (native, native))[0][0]
    content_pages = store.query("SELECT COUNT(*) FROM page")[0][0]
    return NativeStats.from_counts(words_with_relations, native_words,
                                   native_native, content_pages)


def relation_histogram(store: MrdStore) -> RelationHistogram:
    hist = RelationHistogram()
    grouped = store.query(
        "SELECT lang_pos_id, COUNT(*) FROM relation GROUP BY lang_pos_id")
    total_lang_pos = store.query("SELECT COUNT(*) FROM lang_pos")[0][0]
    hist.buckets[0] = total_lang_pos - len(grouped)
    for _, count in grouped:
        hist.buckets[min(count, RelationHistogram.OVERFLOW)] += 1
    return hist


def type_count_distribution(store: MrdStore) -> TypeCountDistribution:
    dist = TypeCountDistribution()
    grouped = store.query(
        "SELECT lang_pos_id, COUNT(DISTINCT relation_type_id) FROM relation "
        "GROUP BY lang_pos_id")
    for _, k in grouped:
        if 1 <= k <= 9:
            dist.counts[k] += 1
    return dist


def ratio_report(sizes_a: dict[str, int], sizes_b: dict[str, int]) -> dict[str, float]:
    """Per-table a/b rounded to 2 decimals, for two dicts with the same
    tables; division by zero becomes inf."""
    out = {}
    for name in sorted(sizes_a):
        b = sizes_b[name]
        out[name] = round(sizes_a[name] / b, 2) if b else math.inf
    return out


def format_ratio(value: float) -> str:
    return INFINITY_MARK if math.isinf(value) else f"{value:.2f}"


@dataclass
class LanguageCoverage:
    code: str
    only_a: int = 0
    only_b: int = 0
    both: int = 0
    meanings_a: int = 0
    meanings_b: int = 0
    relations_a: int = 0
    relations_b: int = 0


@dataclass
class CoverageReport:
    per_language: dict[str, LanguageCoverage]
    red_list_a: list[str]   # languages present only in store A
    red_list_b: list[str]
    better_in_a: list[str]  # ordered by meaning advantage, then relations
    better_in_b: list[str]


def _words_by_language(store: MrdStore) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for code, title in store.query(
            "SELECT l.code, p.title FROM lang_pos lp "
            "JOIN lang l ON l.id=lp.lang_id JOIN page p ON p.id=lp.page_id"):
        out.setdefault(code, set()).add(title)
    return out


def _counts_by_language(store: MrdStore, table: str) -> dict[str, int]:
    rows = store.query(
        f"SELECT l.code, COUNT(*) FROM {table} t "
        "JOIN lang_pos lp ON lp.id=t.lang_pos_id "
        "JOIN lang l ON l.id=lp.lang_id GROUP BY l.code")
    return dict(rows)


def compare_dictionaries(store_a: MrdStore, store_b: MrdStore) -> CoverageReport:
    """Word coverage/intersection per language, unique-language red list and
    which store presents each language better (meanings, then relations)."""
    words_a = _words_by_language(store_a)
    words_b = _words_by_language(store_b)
    meanings_a = _counts_by_language(store_a, "meaning")
    meanings_b = _counts_by_language(store_b, "meaning")
    relations_a = _counts_by_language(store_a, "relation")
    relations_b = _counts_by_language(store_b, "relation")

    per_language = {}
    for code in sorted(set(words_a) | set(words_b)):
        in_a = words_a.get(code, set())
        in_b = words_b.get(code, set())
        per_language[code] = LanguageCoverage(
            code=code,
            only_a=len(in_a - in_b),
            only_b=len(in_b - in_a),
            both=len(in_a & in_b),
            meanings_a=meanings_a.get(code, 0),
            meanings_b=meanings_b.get(code, 0),
            relations_a=relations_a.get(code, 0),
            relations_b=relations_b.get(code, 0),
        )

    red_a = sorted(set(words_a) - set(words_b))
    red_b = sorted(set(words_b) - set(words_a))

    def advantage(cov: LanguageCoverage) -> tuple[int, int]:
        return (cov.meanings_a - cov.meanings_b, cov.relations_a - cov.relations_b)

    better_a = [c.code for c in sorted(
        (c for c in per_language.values() if advantage(c) > (0, 0)),
        key=advantage, reverse=True)]
    better_b = [c.code for c in sorted(
        (c for c in per_language.values() if advantage(c) < (0, 0)),
        key=advantage)]
    return CoverageReport(per_language=per_language, red_list_a=red_a,
                          red_list_b=red_b, better_in_a=better_a, better_in_b=better_b)
