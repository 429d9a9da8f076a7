"""The processes that exercise wiktmrd for the benchmark, one per invocation.

    python perfbench/client.py parse OUT.json -- parse --dialect en --dump D --store S
        `wiktmrd parse` under the tracer; writes the span summary, counters
        and the active kernel's primitive throughput to OUT.json.
    python perfbench/client.py query REQUEST.json OUT.json [--trace]
        One pass of a closed loop with one client over the public store and
        stats API: REPEATS times a slice of the lookup_word and reverse_lookup
        requests, `stats --json` and compare_dictionaries, so that every
        request is sent SWEEPS times; then TSV_REPEATS times export_tsv and
        import_tsv. Writes each request's latencies, per-operation times and
        the answers the oracle checks to OUT.json.

The untraced parse does not use this file: it runs `python -m wiktmrd.cli`.
Both modes import wiktmrd from the checkout's src/ (PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time

import tracing

REPEATS = 10      # slices of requests, stats and compare calls per pass
SWEEPS = 2        # times each request is sent per pass, half a pass apart
TSV_REPEATS = 2   # export and import pairs per pass


def _traced_parse(out_path: str, cli_args: list[str]) -> int:
    from wiktmrd import cli, pipeline

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        rc = cli.main(cli_args)
    finally:
        uninstall()
    t_post = time.perf_counter()
    dump = cli_args[cli_args.index("--dump") + 1]
    texts, size = [], 0
    for page in pipeline.iterate_dump(dump):
        texts.append(page.raw_text)
        size += len(page.raw_text)
        if size > 2_000_000:
            break
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.summary(), "counts": tracer.counts,
                   "kernel_mb_per_s": tracing.kernel_mb_per_s(texts),
                   "post_s": time.perf_counter() - t_post}, f)
    return rc


def _query(request_path: str, out_path: str, trace: bool) -> int:
    from wiktmrd import cli, stats
    from wiktmrd.store import MrdStore

    with open(request_path, encoding="utf-8") as f:
        req = json.load(f)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer) if trace else (lambda: None)
    # lookup_ms[k] and reverse_ms[k] hold the latencies of request k
    out = {"lookup_ms": [[] for _ in req["lookups"]],
           "reverse_ms": [[] for _ in req["reverses"]], "stats_s": [], "compare_s": [],
           "export_s": [], "import_s": [], "export_rows": 0, "lookup_answers": {},
           "reverse_answers": {}, "errors": 0, "ops": 0}
    work = req["work"]
    t_start = time.perf_counter()
    try:
        with MrdStore(req["en"]) as en, MrdStore(req["ru"]) as ru:
            parts = REPEATS // SWEEPS
            for i in range(REPEATS):
                # requests are spread over the pass rather than sent in one burst
                _timed_calls(out, "lookup_ms", en.lookup_word, req["lookups"], i % parts, parts,
                             out["lookup_answers"], len, tracer, "lookup_vm_kops")
                _timed_calls(out, "reverse_ms", en.reverse_lookup, req["reverses"],
                             i % parts, parts,
                             out["reverse_answers"], lambda rows: [list(r) for r in rows],
                             tracer, "reverse_vm_kops")
                with contextlib.redirect_stdout(io.StringIO()) as sink:
                    t0 = time.perf_counter()
                    rc = cli.main(["stats", "--store", req["en"], "--json"])
                    out["stats_s"].append(time.perf_counter() - t0)
                if rc != 0 or not sink.getvalue():
                    out["errors"] += 1
                t0 = time.perf_counter()
                stats.compare_dictionaries(en, ru)
                out["compare_s"].append(time.perf_counter() - t0)
                out["ops"] += 2

            export_dir = os.path.join(work, "export")
            for k in range(TSV_REPEATS):
                shutil.rmtree(export_dir, ignore_errors=True)
                t0 = time.perf_counter()
                en.export_tsv(export_dir)
                out["export_s"].append(time.perf_counter() - t0)
                with MrdStore(os.path.join(work, f"imported{k}.db")) as imported:
                    t0 = time.perf_counter()
                    imported.import_tsv(export_dir)
                    out["import_s"].append(time.perf_counter() - t0)
                    if k == 0:  # the round trip the benchmark compares byte for byte
                        imported.export_tsv(os.path.join(work, "reexport"))
                out["ops"] += 2
            out["export_rows"] = sum(en.table_sizes().values())
    finally:
        uninstall()
    out["wall_s"] = time.perf_counter() - t_start
    if trace:
        out["spans"] = tracer.summary()
        out["counts"] = tracer.counts
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


def _timed_calls(out, key, fn, requests, first, step, answers, render, tracer, kops_key):
    """Send requests[first::step], recording each latency under its index."""
    kops0 = tracing.vm_kops(tracer)
    indices = range(first, len(requests), step)
    for k in indices:
        arg = requests[k]
        t0 = time.perf_counter()
        try:
            result = fn(arg)
        except Exception as exc:  # an operation that raises counts as failed
            print(f"{fn.__name__}({arg!r}) raised {exc!r}", file=sys.stderr)
            out["errors"] += 1
            continue
        finally:
            out[key][k].append((time.perf_counter() - t0) * 1000)
            out["ops"] += 1
        answers[arg] = render(result)
    out.setdefault(kops_key, []).append((tracing.vm_kops(tracer) - kops0) / max(1, len(indices)))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "parse":
        sep = argv.index("--")
        return _traced_parse(argv[1], argv[sep + 1:])
    if mode == "query":
        return _query(argv[1], argv[2], "--trace" in argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
