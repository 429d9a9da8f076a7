"""Spans and counters around wiktmrd's public functions, from outside the program.

`install()` replaces module attributes of wiktmrd with wrappers that record a
span (name, start, end, parent) per call, or only count calls for the tiny
wikitext helpers, and attaches a statement trace and a VM progress handler to
every store connection. Spans stay in memory; `summary()` reduces them when
the run ends to per-layer busy time (self time: a span's duration minus its
child spans' durations), inclusive time and call counts.

Pool workers are forked from a traced process, so they inherit the wrappers.
Each analysed page carries its worker-side spans and counts back to the main
process, which merges them when it takes the page off the result iterator.
"""

from __future__ import annotations

import functools
import sqlite3
import threading
import time
from collections import Counter
from multiprocessing import pool as mp_pool

_CARRY = "_perfbench_trace"   # attribute that ships worker spans with a result
VM_OPS_PER_TICK = 100         # SQLite VM instructions between progress callbacks


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
        stack.append(index)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, t0, t1, self.spans[index][3])

    def spanned(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- worker hand-off -------------------------------------------------------

    def carrying(self, fn):
        """Wrap the pool's task function: ship the task's spans with its result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = len(self.spans)
            before = Counter(self.counts)
            result = fn(*args, **kwargs)
            batch = [(n, t0, t1, p - mark if p >= mark else -1)
                     for n, t0, t1, p in self.spans[mark:]]
            del self.spans[mark:]
            delta = self.counts - before
            self.counts.clear()
            self.counts.update(before)
            self._stack().clear()
            setattr(result, _CARRY, (batch, dict(delta)))
            return result
        return wrapper

    def merge_carried(self, results: list):
        """Take the carried spans off one chunk of pool results."""
        for result in results:
            batch, delta = getattr(result, _CARRY)
            delattr(result, _CARRY)
            base = len(self.spans)
            self.spans.extend((n, t0, t1, p + base if p >= 0 else -1)
                              for n, t0, t1, p in batch)
            self.counts.update(delta)

    # -- reduction ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "total_s", "self_s"} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[i]
        return out


class _TimedIterator:
    """Times each next() of a generator as one span (its lazy work happens there)."""

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._name, next, self._it)


def _attach_sql_counters(tracer: Tracer, conn: sqlite3.Connection):
    counts = tracer.counts

    def on_statement(sql: str):
        counts["sql.statements"] += 1
        if sql.startswith("SELECT id FROM wiki_text WHERE"):
            counts["sql.wiki_text_selects"] += 1

    def on_progress():
        counts["sql.vm_ticks"] += 1
        return 0

    conn.set_trace_callback(on_statement)
    conn.set_progress_handler(on_progress, VM_OPS_PER_TICK)


def vm_kops(tracer: Tracer) -> float:
    return tracer.counts["sql.vm_ticks"] * VM_OPS_PER_TICK / 1000


def install(tracer: Tracer):
    """Wrap wiktmrd's layer entry points; returns a function that undoes it."""
    from wiktmrd import entry, pipeline, relations, stats, store, translations
    from wiktmrd import wikitext as wt

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(owner, attr, name, on_result=None):
        patch(owner, attr, tracer.spanned(name, getattr(owner, attr), on_result))

    def count_records(tr, records):
        tr.counts["relations.records"] += len(records)

    def count_entries(tr, result):
        boxes, skipped = result
        tr.counts["translations.entries"] += sum(len(entries) for _, entries in boxes)
        tr.counts["translations.lines_skipped"] += len(skipped)

    def count_page(tr, analyzed):
        tr.counts[f"pipeline.kind.{analyzed.kind}"] += 1

    # pipeline: dump reading, identity, analysis and the worker hand-off
    iterate = pipeline.iterate_dump
    patch(pipeline, "iterate_dump", functools.wraps(iterate)(
        lambda *a, **k: _TimedIterator(tracer, "pipeline.iterate_dump", iterate(*a, **k))))
    span(pipeline, "dump_identity", "pipeline.dump_identity")
    span(pipeline, "analyze_page", "pipeline.analyze_page", count_page)
    span(pipeline, "builtin_registry", "registry.builtin_registry")
    patch(pipeline, "_pool_analyze", tracer.carrying(pipeline._pool_analyze))

    wait_next = mp_pool.IMapIterator.next

    def next_chunk(self, timeout=None):
        # Pool.imap with chunksize > 1 iterates this per chunk of results
        chunk = tracer.call("pipeline.wait_workers", wait_next, self, timeout)
        tracer.merge_carried(chunk)
        return chunk
    patch(mp_pool.IMapIterator, "next", next_chunk)
    patch(mp_pool.IMapIterator, "__next__", next_chunk)

    # analysis layers
    for name in ("split_language_sections", "split_pos_sections",
                 "extract_definitions", "classify_soft_redirect"):
        span(entry, name, f"entry.{name}")
    span(relations, "extract_relations", "relations.extract_relations", count_records)
    span(translations, "extract_translations_en", "translations.extract", count_entries)
    span(translations, "extract_translations_ru", "translations.extract", count_entries)

    # wikitext: exact call counts for the small helpers, time for strip_markup
    for name in ("encode", "decode", "scan_templates", "scan_wikilinks", "scan_headings"):
        patch(wt, name, tracer.counted(f"wikitext.{name}", getattr(wt, name)))
    patch(wt, "strip_markup", tracer.counted(
        "wikitext.strip_markup", tracer.spanned("wikitext.strip_markup", wt.strip_markup)))

    # store: write side, read side, SQL work on every connection
    cls = store.MrdStore
    for name in ("save_word", "commit", "build_index_tables", "lookup_word",
                 "reverse_lookup", "export_tsv", "import_tsv"):
        span(cls, name, f"store.{name}")
    init = cls.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _attach_sql_counters(tracer, self._conn)
    patch(cls, "__init__", traced_init)

    # stats
    for name in ("compute_native_stats", "relation_histogram",
                 "type_count_distribution", "compare_dictionaries"):
        span(stats, name, f"stats.{name}")

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def kernel_mb_per_s(texts: list[str], min_seconds: float = 0.3) -> dict[str, float]:
    """Throughput of the active kernel's four byte-level primitives over `texts`."""
    from wiktmrd import wikitext as wt

    kernel = wt._kernel
    blobs = [wt.encode(t) for t in texts]
    total = sum(len(b) for b in blobs)
    jobs = {
        "template_spans": kernel.template_spans,
        "wikilink_spans": kernel.wikilink_spans,
        "heading_spans": kernel.heading_spans,
        "top_level_marks": lambda d: kernel.top_level_marks(d, 0, len(d), 0x7C),
    }
    out = {}
    for name, fn in jobs.items():
        rounds = 0
        t0 = time.perf_counter()
        while True:
            for blob in blobs:
                fn(blob)
            rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        out[name] = total * rounds / elapsed / 1e6
    return out
