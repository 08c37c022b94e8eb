#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with a summary.

Exports the parent revision with `git archive` into a temporary directory
(no worktree is registered in the repository), then runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

alternately in that checkout ("parent") and in this working tree ("change"),
with T the `run_seconds` of BENCHMARK.json. Odd pairs run the parent first,
even pairs the change first. Each run is
appended to --out as one JSON line, tagged with side, pair, workload and
seed, holding the run's `output` and `metric` lines and its result object.
At the end it prints, for each end-to-end metric of BENCHMARK.json, the
median [q1, q3] on each side and the number of pairs the change won (ties
count for neither side), and whether every run printed the same outputs.

    python3 scripts/bench_pairs.py --parent HEAD --workload assess --seed 2 --pairs 10 --out pairs.jsonl

Exits 1 if a run failed or the two sides printed different outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {
        "returncode": proc.returncode,
        "output_lines": [ln for ln in lines if ln.startswith("output ")],
        "metric_lines": [ln for ln in lines if ln.startswith("metric ")],
        "result": result,
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}" if values else "no runs"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def summarize(runs: list[dict], end_to_end: list[dict]) -> bool:
    """Print the per-metric summary; True if every run succeeded with the same outputs."""
    ok = [r for r in runs if r["returncode"] == 0 and r["result"] and r["result"]["correct"]]
    for r in runs:
        if r not in ok:
            print(f"pair {r['pair']} {r['side']}: failed (exit {r['returncode']})")
    by_pair = {}
    for r in ok:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        sides = {side: [r["result"]["metrics"][name]["value"] for r in ok if r["side"] == side]
                 for side in ("parent", "change")}
        won = sum(sign * (p["change"][name]["value"] - p["parent"][name]["value"]) < 0 for p in pairs)
        print(f"{name} ({spec['unit']}, {spec['better']} is better): parent {_spread(sides['parent'])}, "
              f"change {_spread(sides['change'])}; change won {won} of {len(pairs)} pairs")
    outputs = {tuple(r["output_lines"]) for r in ok}
    print("outputs: identical in every run" if len(outputs) <= 1 else f"outputs: {len(outputs)} distinct sets")
    return len(ok) == len(runs) and len(outputs) <= 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare the working tree against")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON-lines file the runs are appended to")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        ap.error("--pairs must be >= 1 and --seed >= 0")
    seconds = spec["run_seconds"]

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent = tmp / "parent"
    runs = []
    try:
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent], stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        for pair in range(1, args.pairs + 1):
            order = [("parent", parent), ("change", ROOT)]
            for side, checkout in order if pair % 2 else order[::-1]:
                print(f"pair {pair}/{args.pairs}: {side}", flush=True)
                run = {"pair": pair, "workload": args.workload, "seed": args.seed, "side": side, "seconds": seconds}
                run.update(run_bench(checkout, args.workload, args.seed, seconds))
                runs.append(run)
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(run) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if summarize(runs, spec["end_to_end"]) else 1


if __name__ == "__main__":
    sys.exit(main())
