#!/usr/bin/env python3
"""Check that this checkout parses the benchmark's dumps as a base commit does.

    python3 benchmarks/same_outputs.py --base HEAD~1 [--seed 7]

The change is this checkout as it stands, uncommitted edits included; the
base is a commit, exported with `git archive` into a temporary directory
(benchmarks/pairs.py's export_commit). Each perfbench workload's dumps are
generated once from --seed: parse_en's (bz2), parse_ru_workers' and
query's en and ru dumps. Each side runs its own `wiktmrd parse` on each dump
at the worker count that workload parses it with (1, 2, 1 and 1) and exports
the store with MrdStore.export_tsv. Printed: every TSV file whose bytes
differ or that one side lacks, and every difference in the counters the
parse prints (its `elapsed` line excepted) or in its stderr. The exit status
is 1 on any difference and 0 when there is none.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pairs import ROOT, export_commit  # noqa: E402

_EXPORT = ("import sys\nfrom wiktmrd.store import MrdStore\n"
           "with MrdStore(sys.argv[1]) as store:\n    store.export_tsv(sys.argv[2])\n")


def _perfbench_run():
    """perfbench/run.py of this checkout, as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_dumps(directory: Path, seed: int) -> list[tuple[str, str, Path, int]]:
    """(name, dialect, path, workers) of every dump the workloads parse."""
    bench = _perfbench_run()
    out = []
    for name, workload in bench.WORKLOADS.items():
        if workload.main is not None:
            specs = [(name, workload.main, workload.compress, workload.workers)]
        else:  # the store pair the query workload builds, uncompressed, 1 worker
            specs = [(f"{name}_{spec.dialect}", spec, False, 1)
                     for spec in (workload.query_en, workload.query_ru)]
        for dump_name, spec, compress, workers in specs:
            dump = bench.write_dump(directory, dump_name, spec, seed, compress)
            out.append((dump_name, spec.dialect, dump.path, workers))
    return out


def parse_and_export(root: Path, dialect: str, dump: Path, workers: int,
                     work: Path) -> tuple[list[str], str]:
    """Parse `dump` with checkout `root`'s program into work/store.db, export
    it to work/export; return the printed counters (without `elapsed`) and
    stderr."""
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    store = work / "store.db"
    proc = subprocess.run(
        [sys.executable, "-m", "wiktmrd.cli", "parse", "--dialect", dialect, "--dump",
         str(dump), "--store", str(store), "--workers", str(workers)],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"parse in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    subprocess.run([sys.executable, "-c", _EXPORT, str(store), str(work / "export")],
                   cwd=root, env=env, check=True)
    counters = [line for line in proc.stdout.splitlines() if not line.startswith("elapsed:")]
    return counters, proc.stderr


def differing_files(base: Path, change: Path) -> list[str]:
    """Names of the files in either directory whose bytes differ or that the
    other lacks, sorted."""
    names = {p.name for p in base.iterdir()} | {p.name for p in change.iterdir()}
    return sorted(name for name in names
                  if not (base / name).is_file() or not (change / name).is_file()
                  or (base / name).read_bytes() != (change / name).read_bytes())


def line_diff(label: str, base: list[str], change: list[str]) -> list[str]:
    """A unified diff of two line lists, empty when they are equal."""
    return list(difflib.unified_diff(base, change, f"base {label}", f"change {label}",
                                     lineterm=""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    differences = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        roots = {"base": tmp / "base", "change": ROOT}
        roots["base"].mkdir()
        base_commit = export_commit(args.base, roots["base"])
        (tmp / "dumps").mkdir()
        dumps = write_dumps(tmp / "dumps", args.seed)
        print(f"base {base_commit}, seed {args.seed}")
        for name, dialect, path, workers in dumps:
            runs = {side: tmp / "runs" / side / name for side in roots}
            base, change = (parse_and_export(roots[side], dialect, path, workers, runs[side])
                            for side in roots)
            files = differing_files(runs["base"] / "export", runs["change"] / "export")
            lines = (line_diff(f"{name} counters", base[0], change[0])
                     + line_diff(f"{name} stderr", base[1].splitlines(),
                                 change[1].splitlines()))
            for file in files:
                print(f"{name}: {file} differs")
            for line in lines:
                print(line)
            differences += len(files) + bool(lines)
            exported = len(list((runs["change"] / "export").iterdir()))
            print(f"{name} (--workers {workers}): {exported} TSV files, {len(files)} differ; "
                  f"counters and stderr {'differ' if lines else 'equal'}")
    print("no difference" if not differences else f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
