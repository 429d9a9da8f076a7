#!/usr/bin/env python3
"""Interleaved base/change pairs of one perfbench workload, kept as BENCH_<workload>.json.

    python3 benchmarks/pairs.py --workload parse_en --pairs 10 --base HEAD~1

The change is this checkout as it stands, uncommitted edits included; the
base is a commit, exported with `git archive` (local git only) into a
temporary directory that is removed afterwards. Pair i runs
`perfbench/run.py` of both sides with seed 11 + i and BENCHMARK.json's
run_seconds, and the pairs alternate which side runs first, so that a drift
of the host's speed falls on both sides alike. Each side runs its own
perfbench.

For every end-to-end metric of BENCHMARK.json the file records each side's
median and quartiles over the pairs and the change's wins out of them (a
tie counts for neither side), with the seeds, nproc, workers, both commit
ids and every run's values. It is written to the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_commit(rev: str, directory: Path) -> str:
    """Write the files of commit `rev` into `directory`; return its full id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return commit


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in checkout `root`: its result line and env line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env "):
        raise RuntimeError(f"perfbench failed in {root} (exit {proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"env": json.loads(lines[-2][4:]), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), by linear interpolation
    between the ordered values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[dict[str, float]], change: list[dict[str, float]],
              better: dict[str, str]) -> dict[str, dict]:
    """Per metric named in `better` ("higher" or "lower"), from the metric
    values of pairs base[i]/change[i]: each side's quartiles, the change's
    wins out of the pairs, and its median relative to the base's."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same number of base and change runs, at least one")
    out = {}
    for name, direction in better.items():
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        sign = 1 if direction == "higher" else -1
        b1, b2, b3 = quartiles(b)
        c1, c2, c3 = quartiles(c)
        out[name] = {
            "better": direction,
            "base": {"q1": b1, "median": b2, "q3": b3},
            "change": {"q1": c1, "median": c2, "q3": c3},
            "wins": sum(sign * (y - x) > 0 for x, y in zip(b, c)),
            "pairs": len(b),
            "median_change": c2 / b2 - 1 if b2 else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD~1", help="commit to compare against")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    change_commit = _git("rev-parse", "HEAD")
    # the BENCH files of earlier runs are this script's output, not edits
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no",
                      "--", ".", ":!BENCH_*.json"))
    seeds = [11 + i for i in range(args.pairs)]
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-base-") as tmp:
        base_root = Path(tmp)
        base_commit = export_commit(args.base, base_root)
        roots = {"base": base_root, "change": ROOT}
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(roots[side], args.workload, seed, seconds))
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} pages_per_s {runs[side][-1]['metrics']['pages_per_s']:.1f}"
                for side in order), file=sys.stderr, flush=True)

    env = runs["change"][0]["env"]
    bench = {
        "workload": args.workload,
        "seconds": seconds,
        "seeds": seeds,
        "nproc": env["nproc"],
        "workers": env["workers"],
        "python": env["python"],
        "base_commit": base_commit,
        "change_commit": change_commit,
        "change_uncommitted_edits": dirty,
        "all_correct": all(r["correct"] and r["failed"] == 0
                           for side in runs.values() for r in side),
        "metrics": summarize([r["metrics"] for r in runs["base"]],
                             [r["metrics"] for r in runs["change"]], better),
        "runs": {side: [{"seed": seed, "first": (i % 2 == 0) == (side == "base"),
                         "correct": r["correct"], "failed": r["failed"],
                         "metrics": r["metrics"]}
                        for i, (seed, r) in enumerate(zip(seeds, side_runs))]
                 for side, side_runs in runs.items()},
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
