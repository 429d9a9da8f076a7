#!/usr/bin/env python3
"""The wiktmrd benchmark: seeded synthetic dumps, parsed and queried end to end.

    python3 perfbench/run.py --workload parse_en --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Every workload generates its inputs from --seed, parses dumps with the real
`wiktmrd parse` in a subprocess timed from outside, and queries two stores
through the public store and stats API in a closed loop with one client (a
subprocess too, so that each program process has its own resource usage).
Every parse and every query answer is checked against the generator's oracle.

Workloads (see WORKLOADS for sizes, BENCHMARK.json for the reasons):
  parse_en          en dump, bz2, --workers 1: one serial critical path.
  parse_ru_workers  ru dump, plain XML, --workers 2, wide translation blocks
                    whose texts repeat: the single writer sets the pace.
  query             the read side on an en and a ru store built at set-up.

The timed phase repeats rounds until --seconds have passed (at least
MIN_ROUNDS): on the parse workloads a round is a set-up sample (a parse of
an empty dump), a parse of the main dump and two query passes over a small
store pair; on `query` it is a build of its two stores (the set-up sample)
and two query passes over them. The parse workloads report the query
metrics as a control that a parse-side change must leave alone.

--trace 0 prints the end-to-end metrics; --trace 1 runs the main operation
once untraced and once under perfbench/tracing.py and prints the per-layer
metrics, with the tracing overhead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it records
the environment (kernel lane, Python, nproc, workers, seed, input sizes),
and the full result is also written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import bz2
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

MIN_ROUNDS = 4           # rounds per run at least, whatever --seconds says
# Distinct requests of a query pass: every pass sends the same lists, and the
# reported tail percentiles (p99, p95) have ten requests beyond them.
LOOKUPS = 1000
REVERSES = 200


@dataclass(frozen=True)
class Workload:
    main: gen.DumpSpec | None      # the dump the timed parse reads (None: query)
    compress: bool
    workers: int
    query_en: gen.DumpSpec         # the store pair the query passes read
    query_ru: gen.DumpSpec


_SMALL_EN = gen.DumpSpec("en", 200, vocab=300, langs_per_block=(3, 8), seed_salt="q")
_SMALL_RU = gen.DumpSpec("ru", 150, vocab=200, langs_per_block=(10, 20), seed_salt="q")

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "parse_en": Workload(
        main=gen.DumpSpec("en", 700, vocab=2000, langs_per_block=(3, 8)),
        compress=True, workers=1, query_en=_SMALL_EN, query_ru=_SMALL_RU),
    "parse_ru_workers": Workload(
        main=gen.DumpSpec("ru", 1000, vocab=300, langs_per_block=(15, 30)),
        compress=False, workers=2, query_en=_SMALL_EN, query_ru=_SMALL_RU),
    "query": Workload(
        main=None, compress=False, workers=1,
        query_en=gen.DumpSpec("en", 400, vocab=600, langs_per_block=(3, 8), seed_salt="q"),
        query_ru=gen.DumpSpec("ru", 250, vocab=300, langs_per_block=(10, 20), seed_salt="q")),
}


class BenchError(Exception):
    """The benchmark could not run the program at all."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Dump:
    path: Path
    spec: gen.DumpSpec
    oracle: gen.Oracle
    xml_bytes: int
    file_bytes: int


def write_dump(work: Path, name: str, spec: gen.DumpSpec, seed: int, compress: bool) -> Dump:
    xml, oracle = gen.make_dump(spec, seed)
    path = work / (f"{name}.xml.bz2" if compress else f"{name}.xml")
    path.write_bytes(bz2.compress(xml, 9) if compress else xml)
    return Dump(path, spec, oracle, len(xml), path.stat().st_size)


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------

@dataclass
class ProcResult:
    wall_s: float
    max_rss_mb: float
    stdout: str


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def run_proc(args: list[str], work: Path, tag: str) -> ProcResult:
    """Run one program process to completion; time it and take its rusage."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT, env=_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text("utf-8", "replace")[-2000:]
        raise BenchError(f"{' '.join(args[:6])} ... exited {proc.returncode}:\n{tail}")
    return ProcResult(wall, usage.ru_maxrss / 1024, out_path.read_text("utf-8"))


def remove_store(path: Path):
    for suffix in ("", "-wal", "-shm"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(f"{path}{suffix}")


def run_parse(dump: Dump, store: Path, workers: int, work: Path, tag: str,
              trace_out: Path | None = None) -> ProcResult:
    remove_store(store)
    cli_args = ["parse", "--dialect", dump.spec.dialect, "--dump", str(dump.path),
                "--store", str(store), "--workers", str(workers)]
    if trace_out is None:
        cmd = [sys.executable, "-m", "wiktmrd.cli", *cli_args]
    else:
        cmd = [sys.executable, str(BENCH / "client.py"), "parse", str(trace_out), "--", *cli_args]
    return run_proc(cmd, work, tag)


def run_query(work: Path, en: Path, ru: Path, en_oracle: gen.Oracle,
              seed: int, tag: str, trace: bool = False) -> tuple[ProcResult, dict]:
    """One pass of the query client over the store pair."""
    lookups, reverses = gen.query_samples(en_oracle, seed, LOOKUPS, REVERSES)
    qdir = work / tag
    shutil.rmtree(qdir, ignore_errors=True)
    qdir.mkdir()
    request = qdir / "request.json"
    request.write_text(json.dumps({"en": str(en), "ru": str(ru), "lookups": lookups,
                                   "reverses": reverses, "work": str(qdir)}))
    out = qdir / "result.json"
    cmd = [sys.executable, str(BENCH / "client.py"), "query", str(request), str(out)]
    proc = run_proc(cmd + (["--trace"] if trace else []), work, tag)
    return proc, json.loads(out.read_text("utf-8"))


# ---------------------------------------------------------------------------
# Output checks against the oracle
# ---------------------------------------------------------------------------

_REPORT_LINES = {
    "pages seen": "pages_seen", "pages parsed": "pages_parsed",
    "pages skipped (redirect)": "pages_redirect",
    "pages skipped (namespace)": "pages_namespace", "pages failed": "pages_failed",
    "sections skipped (unknown language)": "sections_skipped",
    "translation lines skipped": "translation_lines_skipped",
}


def parse_report(stdout: str) -> dict[str, int]:
    """The counters `wiktmrd parse` prints (its ParseReport)."""
    report = {}
    for line in stdout.splitlines():
        label, sep, value = line.partition(":")
        if sep and label.strip() in _REPORT_LINES:
            report[_REPORT_LINES[label.strip()]] = int(value.split()[0])
    return report


def check_parse(report: dict[str, int], oracle: gen.Oracle, store_path: Path) -> list[str]:
    """Problems with one finished parse: its report and its store."""
    from wiktmrd.store import CorruptStore, MrdStore

    problems = []
    expected = {"pages_seen": oracle.pages_seen, "pages_parsed": oracle.pages_parsed,
                "pages_redirect": oracle.pages_redirect,
                "pages_namespace": oracle.pages_namespace, "pages_failed": 0,
                "sections_skipped": oracle.sections_skipped,
                "translation_lines_skipped": oracle.translation_lines_skipped}
    for key, want in expected.items():
        if report.get(key) != want:
            problems.append(f"report {key}: got {report.get(key)}, expected {want}")
    accounted = report.get("pages_seen") == sum(
        report.get(k, -1) for k in ("pages_parsed", "pages_redirect",
                                    "pages_namespace", "pages_failed"))
    if not accounted:
        problems.append(f"ParseReport.accounted() fails: {report}")
    with MrdStore(store_path) as store:
        sizes = store.table_sizes()
        for table, want in oracle.tables.items():
            if sizes.get(table) != want:
                problems.append(f"table {table}: {sizes.get(table)} rows, expected {want}")
        try:
            store.check_referential_integrity()
        except CorruptStore as exc:
            problems.append(f"referential integrity: {exc}")
    return problems


def check_query(result: dict, oracle: gen.Oracle, qdir: Path) -> list[str]:
    """Problems with one query client run: wrong answers, errors, round trip."""
    problems = []
    if result["errors"]:
        problems.append(f"{result['errors']} query operations raised")
    for word, rows in result["reverse_answers"].items():
        got = [tuple(r) for r in rows]
        want = oracle.reverse.get(word, set())
        if len(got) != len(set(got)) or set(got) != want:
            problems.append(f"reverse_lookup({word!r}): got {sorted(got)[:5]}, "
                            f"expected {sorted(want)[:5]}")
    for title, n in result["lookup_answers"].items():
        if n != oracle.sections.get(title, 0):
            problems.append(f"lookup_word({title!r}): {n} sections, "
                            f"expected {oracle.sections.get(title, 0)}")
    problems += compare_dirs(qdir / "export", qdir / "reexport")
    return problems


def compare_dirs(a: Path, b: Path) -> list[str]:
    """import_tsv -> export_tsv must give back the original export byte for byte."""
    names_a = sorted(p.name for p in a.iterdir()) if a.is_dir() else []
    names_b = sorted(p.name for p in b.iterdir()) if b.is_dir() else []
    if not names_a or names_a != names_b:
        return [f"round trip: files differ: {names_a} vs {names_b}"]
    return [f"round trip: {n} differs" for n in names_a
            if (a / n).read_bytes() != (b / n).read_bytes()]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def store_bytes(path: Path) -> int:
    return sum(os.path.getsize(f"{path}{s}") for s in ("", "-wal")
               if os.path.exists(f"{path}{s}"))


def upper_decile(values: list[float]) -> float:
    """The time a run reports for a repeated operation (see Run.end_to_end)."""
    return percentile(values, 0.9)


def request_latencies(results: list[dict], key: str) -> list[float]:
    """One latency per request: the upper decile of its repeats in all passes."""
    return [upper_decile([ms for repeats in per_pass for ms in repeats])
            for per_pass in zip(*(p[key] for p in results))]


def query_metrics(results: list[dict]) -> dict[str, float]:
    """Percentiles over the requests, so that the tails measure the costly
    requests rather than the moments the host was busy."""
    lookups = request_latencies(results, "lookup_ms")
    reverses = request_latencies(results, "reverse_ms")
    return {
        "lookup_p50_ms": percentile(lookups, 0.5),
        "lookup_p99_ms": percentile(lookups, 0.99),
        "reverse_p50_ms": percentile(reverses, 0.5),
        "reverse_p95_ms": percentile(reverses, 0.95),
        **{key: upper_decile([v for p in results for v in p[key]])
           for key in ("stats_s", "compare_s", "export_s", "import_s")},
    }


def parse_layer_metrics(trace: dict, db_bytes: int) -> dict[str, float]:
    spans, counts = trace["spans"], trace["counts"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    pages = sum(v for k, v in counts.items() if k.startswith("pipeline.kind."))
    per_page = max(1, pages)
    entries = counts.get("translations.entries", 0)
    skipped = counts.get("translations.lines_skipped", 0)
    m = {
        "pipeline.iterate_dump_s": self_s("pipeline.iterate_dump"),
        "pipeline.dump_identity_s": self_s("pipeline.dump_identity"),
        "pipeline.analyze_page_s": self_s("pipeline.analyze_page"),
        "pipeline.analyze_page_total_s": spans.get("pipeline.analyze_page", {}).get("total_s", 0.0),
        "pipeline.pages": pages,
        "pipeline.parsed_frac": counts.get("pipeline.kind.parsed", 0) / per_page,
        "pipeline.wait_workers_s": self_s("pipeline.wait_workers"),
        "entry.split_language_sections_s": self_s("entry.split_language_sections"),
        "entry.split_pos_sections_s": self_s("entry.split_pos_sections"),
        "entry.extract_definitions_s": self_s("entry.extract_definitions"),
        "entry.classify_soft_redirect_s": self_s("entry.classify_soft_redirect"),
        "relations.extract_relations_s": self_s("relations.extract_relations"),
        "translations.extract_s": self_s("translations.extract"),
        "relations.records": counts.get("relations.records", 0),
        "translations.entries": entries,
        "translations.lines_skipped_frac": skipped / max(1, skipped + entries),
        "wikitext.strip_markup_s": self_s("wikitext.strip_markup"),
        "store.save_word_s": self_s("store.save_word"),
        "store.commit_s": self_s("store.commit"),
        "store.build_index_tables_s": self_s("store.build_index_tables"),
        "store.statements_per_page": counts.get("sql.statements", 0) / per_page,
        "store.wiki_text_selects_per_page": counts.get("sql.wiki_text_selects", 0) / per_page,
        "store.vm_kops_per_page": counts.get("sql.vm_ticks", 0) * 0.1 / per_page,
        "store.db_bytes": db_bytes,
        "registry.builtin_registry_s": spans.get("registry.builtin_registry", {}).get("total_s", 0.0),
    }
    for name in ("encode", "decode", "scan_templates", "scan_wikilinks",
                 "scan_headings", "strip_markup"):
        m[f"wikitext.{name}_per_page"] = counts.get(f"wikitext.{name}", 0) / per_page
    for name, rate in trace["kernel_mb_per_s"].items():
        m[f"wikitext.{name}_mb_per_s"] = rate
    return m


def query_layer_metrics(result: dict) -> dict[str, float]:
    spans = result["spans"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    return {
        "store.lookup_word_vm_kops": statistics.median(result["lookup_vm_kops"]),
        "store.reverse_lookup_vm_kops": statistics.median(result["reverse_vm_kops"]),
        "store.export_rows_per_s": result["export_rows"] / statistics.median(result["export_s"]),
        "store.import_rows_per_s": result["export_rows"] / statistics.median(result["import_s"]),
        "stats.compute_native_stats_s": self_s("stats.compute_native_stats"),
        "stats.relation_histogram_s": self_s("stats.relation_histogram"),
        "stats.type_count_distribution_s": self_s("stats.type_count_distribution"),
        "stats.compare_dictionaries_s": self_s("stats.compare_dictionaries"),
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.max_rss_mb = 0.0
        self.dumps: dict[str, Dump] = {}
        self.details: dict = {}

    # -- pieces ------------------------------------------------------------------

    def make_inputs(self):
        wl = self.wl
        if wl.main is not None:
            self.dumps["main"] = write_dump(self.work, "main", wl.main, self.seed, wl.compress)
        self.dumps["query_en"] = write_dump(self.work, "query_en", wl.query_en, self.seed, False)
        self.dumps["query_ru"] = write_dump(self.work, "query_ru", wl.query_ru, self.seed, False)

    def parse(self, dump: Dump, store: Path, workers: int, tag: str,
              trace_out: Path | None = None) -> ProcResult:
        proc = run_parse(dump, store, workers, self.work, tag, trace_out)
        self.max_rss_mb = max(self.max_rss_mb, proc.max_rss_mb)
        report = parse_report(proc.stdout)
        problems = check_parse(report, dump.oracle, store)
        self.attempted += report.get("pages_seen", 0) or 1
        self.failed += report.get("pages_failed", 0) or bool(problems)
        self.problems += [f"{tag}: {p}" for p in problems]
        return proc

    def query(self, en: Path, ru: Path, tag: str, trace: bool = False) -> dict:
        proc, result = run_query(self.work, en, ru, self.dumps["query_en"].oracle,
                                 self.seed, tag, trace)
        self.max_rss_mb = max(self.max_rss_mb, proc.max_rss_mb)
        problems = check_query(result, self.dumps["query_en"].oracle, self.work / tag)
        self.attempted += result["ops"]
        self.failed += result["errors"] + len(problems)
        self.problems += [f"{tag}: {p}" for p in problems]
        shutil.rmtree(self.work / tag)
        return result

    def build_query_stores(self, tag: str) -> tuple[Path, Path, ProcResult, ProcResult]:
        en, ru = self.work / "query_en.db", self.work / "query_ru.db"
        p_en = self.parse(self.dumps["query_en"], en, 1, f"{tag}_en")
        p_ru = self.parse(self.dumps["query_ru"], ru, 1, f"{tag}_ru")
        return en, ru, p_en, p_ru

    def empty_dump(self) -> Dump:
        dialect = self.wl.main.dialect
        path = self.work / "empty.xml"
        path.write_bytes(gen.empty_dump(dialect))
        return Dump(path, gen.DumpSpec(dialect, 0, 0, (0, 0)), gen.Oracle(), 0, 0)

    # -- the two kinds of run ------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Rounds of (query pass, set-up, main parse, query pass) until
        --seconds have passed.

        The cores of a shared host switch between a fast state and one
        about 1.5x slower, for a second or a few at a time, and the share of
        the fast state differs from run to run (from none to most of a run)
        by more than the bounds. A mean or a median of a run's short samples
        moves with that share; their upper decile stays with the slow state,
        which every run measured so far included. So the times of short repeated operations
        (requests, stats, compare, export, import; 16 or more samples each)
        are upper deciles over the run. A parse spans many switches, so its
        wall time is already a mix; parse times and set-up are medians.
        """
        setup, walls, queries = [], [], []
        if self.wl.main is not None:
            main, main_store = self.dumps["main"], self.work / "main.db"
            empty = self.empty_dump()
            en, ru, _, _ = self.build_query_stores("qstore")

            def one_round(i):
                queries.append(self.query(en, ru, f"query{i}a"))
                setup.append(self.parse(empty, self.work / "empty.db", self.wl.workers,
                                        f"setup{i}").wall_s)
                walls.append(self.parse(main, main_store, self.wl.workers, f"parse{i}").wall_s)
                queries.append(self.query(en, ru, f"query{i}b"))
        else:
            main, main_store = self.dumps["query_en"], self.work / "query_en.db"

            def one_round(i):
                en, ru, p_en, p_ru = self.build_query_stores(f"build{i}")
                setup.append(p_en.wall_s + p_ru.wall_s)
                walls.append(p_en.wall_s)
                queries.append(self.query(en, ru, f"query{i}a"))
                queries.append(self.query(en, ru, f"query{i}b"))

        t0 = time.perf_counter()
        while len(walls) < MIN_ROUNDS or time.perf_counter() - t0 < self.seconds:
            one_round(len(walls))
        wall = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "pages_per_s": main.oracle.pages_seen / wall,
            "xml_mb_per_s": main.xml_bytes / 1e6 / wall,
            "peak_rss_mb": self.max_rss_mb,
            "store_bytes_per_xml_byte": store_bytes(main_store) / main.xml_bytes,
        }
        metrics.update(query_metrics(queries))
        self.details = {"rounds": len(walls), "setup_s": setup, "parse_walls_s": walls,
                        **{f"{key}_samples": sum(len(repeats) for r in queries
                                                 for repeats in r[f"{key}_ms"])
                           for key in ("lookup", "reverse")},
                        **{key: [r[key] for r in queries] for key in
                           ("stats_s", "compare_s", "export_s", "import_s")}}
        return metrics

    def traced(self) -> dict[str, float]:
        if self.wl.main is not None:
            main, workers = self.dumps["main"], self.wl.workers
        else:
            main, workers = self.dumps["query_en"], 1
        store = self.work / "traced.db"
        plain = self.parse(main, store, workers, "untraced")
        db_bytes = store_bytes(store)
        trace_out = self.work / "parse_trace.json"
        traced = self.parse(main, store, workers, "traced", trace_out)
        trace = json.loads(trace_out.read_text("utf-8"))
        metrics = parse_layer_metrics(trace, db_bytes)
        metrics["store.wiki_text_rows"] = _count_rows(store, "wiki_text")
        # the traced process also measures kernel throughput after the parse
        traced_wall = traced.wall_s - trace["post_s"]
        metrics["trace.parse_overhead_frac"] = traced_wall / plain.wall_s - 1

        en, ru, _, _ = self.build_query_stores("qstore")
        plain_q = self.query(en, ru, "query")
        traced_q = self.query(en, ru, "query_traced", trace=True)
        metrics.update(query_layer_metrics(traced_q))
        metrics["trace.query_overhead_frac"] = traced_q["wall_s"] / plain_q["wall_s"] - 1
        self.details = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced_wall}
        return metrics


def _count_rows(store_path: Path, table: str) -> int:
    from wiktmrd.store import MrdStore

    with MrdStore(store_path) as store:
        return store.table_sizes()[table]


def environment(run: Run) -> dict:
    from wiktmrd import wikitext

    return {
        "workload": run.name, "seed": run.seed, "seconds": run.seconds,
        "kernel": wikitext.kernel_name(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "workers": run.wl.workers,
        "inputs": {name: {"dialect": d.spec.dialect, "pages": d.oracle.pages_seen,
                          "xml_mb": round(d.xml_bytes / 1e6, 3),
                          "file_mb": round(d.file_bytes / 1e6, 3),
                          "compressed": d.path.suffix == ".bz2"}
                   for name, d in run.dumps.items()},
    }


def _import_program():
    cli = SRC / "wiktmrd" / "cli.py"
    if not cli.is_file():
        raise BenchError(f"the program is missing: no {cli.relative_to(ROOT)} in {ROOT}")
    sys.path.insert(0, str(SRC))
    import wiktmrd

    if not Path(wiktmrd.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported wiktmrd from {wiktmrd.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, work)
    try:
        run.make_inputs()
        metrics = run.traced() if args.trace else run.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(run)
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for problem in run.problems[:50]:
        print(f"CHECK FAILED {problem}")
    for name, value in metrics.items():
        print(f"{args.workload:18s} {name:40s} {value:14.6g} {declared.get(name, '')}")
    print(f"{args.workload:18s} {'failed_frac':40s} "
          f"{run.failed / max(1, run.attempted):14.6g} ratio")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "details": run.details, "problems": run.problems,
                    "all_metrics": metrics, **result}, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def _declared_metrics(kind: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares of this kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
