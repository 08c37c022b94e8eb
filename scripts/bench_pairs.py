#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with a summary.

Exports the parent revision with `git archive` into a temporary directory
(no worktree is registered in the repository), then runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

alternately in that checkout ("parent") and in this working tree ("change"),
with T the `run_seconds` of BENCHMARK.json. Odd pairs run the parent first,
even pairs the change first. Each run is
appended to --out as one JSON line, tagged with side, pair, workload and
seed, holding the run's `env` object (core count, BLAS threads, numpy and
scipy versions, as bench/run.py prints it first), its `output` and `metric`
lines and its result object. At the end it prints each distinct `env` line,
then, for each end-to-end metric of BENCHMARK.json, the median [q1, q3] and
the min-max range on each side and the number of pairs the change won (ties
count for neither side). It does the same for every other `metric` line the
runs print (the workload's named metrics, such as `rollout_steps_per_s`; a
unit ending in `/s` is better higher, any other lower), leaving out
`failed_share`, which the failed runs already show. Then it says whether
every run printed the same outputs. If
not, it says whether the runs within each side agree and prints each output
line of the first parent run that differs from the first change run, the
two lines one above the other.

    python3 scripts/bench_pairs.py --parent HEAD --workload assess --seed 2 --pairs 10 --out pairs.jsonl

Exits 1 if a run failed or the two sides printed different outputs.
"""

from __future__ import annotations

import argparse
import itertools
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
        "env": next((json.loads(ln[len("env "):]) for ln in lines if ln.startswith("env ")), None),
        "output_lines": [ln for ln in lines if ln.startswith("output ")],
        "metric_lines": [ln for ln in lines if ln.startswith("metric ")],
        "result": result,
    }


def _spread(values: list[float]) -> str:
    """Median [q1, q3] and the full [min, max], so a bimodal metric can show
    whether every run of one side beats every run of the other."""
    if not values:
        return "no runs"
    span = f"min-max [{min(values):.6g}, {max(values):.6g}]"
    if len(values) < 2:
        return f"{values[0]:.6g} {span}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {span}"


def _named_metrics(run: dict, skip: set[str]) -> dict[str, tuple[float, str]]:
    """{name: (value, unit)} from a run's `metric NAME VALUE UNIT ...` lines, less the names in skip."""
    parts = (ln.split() for ln in run.get("metric_lines", []))
    return {p[1]: (float(p[2]), p[3]) for p in parts if p[1] not in skip}


def summarize(runs: list[dict], end_to_end: list[dict]) -> bool:
    """Print the per-metric summary; True if every run succeeded with the same outputs."""
    for env in sorted({json.dumps(r["env"], sort_keys=True) for r in runs}):
        print(f"env {env}")
    ok = [r for r in runs if r["returncode"] == 0 and r["result"] and r["result"]["correct"]]
    for r in runs:
        if r not in ok:
            print(f"pair {r['pair']} {r['side']}: failed (exit {r['returncode']})")
    # the end-to-end metrics, then each run's other named metric lines (a failed
    # share shows as a failed run above); a rate (unit "/s") is better higher
    e2e = [(spec["name"], spec["unit"], spec["better"]) for spec in end_to_end]
    skip = {name for name, _, _ in e2e} | {"failed_share"}
    named, values = {}, []  # named: each other metric's unit, in first-seen order
    for r in ok:
        v = {name: r["result"]["metrics"][name]["value"] for name, _, _ in e2e}
        for name, (value, unit) in _named_metrics(r, skip).items():
            named.setdefault(name, unit)
            v[name] = value
        values.append(v)
    specs = e2e + [(name, unit, "higher" if unit.endswith("/s") else "lower") for name, unit in named.items()]
    by_pair = {}
    for r, v in zip(ok, values):
        by_pair.setdefault(r["pair"], {})[r["side"]] = v
    pairs = [p for p in by_pair.values() if len(p) == 2]
    for name, unit, better in specs:
        sign = 1 if better == "lower" else -1
        sides = {side: [v[name] for r, v in zip(ok, values) if r["side"] == side and name in v]
                 for side in ("parent", "change")}
        both = [p for p in pairs if name in p["parent"] and name in p["change"]]
        won = sum(sign * (p["change"][name] - p["parent"][name]) < 0 for p in both)
        print(f"{name} ({unit}, {better} is better): parent {_spread(sides['parent'])}, "
              f"change {_spread(sides['change'])}; change won {won} of {len(both)} pairs")
    outputs = {tuple(r["output_lines"]) for r in ok}
    if len(outputs) <= 1:
        print("outputs: identical in every run")
    else:
        print(f"outputs: {len(outputs)} distinct sets")
        first = {}
        for side in ("parent", "change"):
            sets = [tuple(r["output_lines"]) for r in ok if r["side"] == side]
            n = len(set(sets))
            print(f"outputs within {side}: {'identical' if n <= 1 else f'{n} distinct sets'} over {len(sets)} runs")
            first[side] = sets[0] if sets else ()
        for a, b in itertools.zip_longest(first["parent"], first["change"], fillvalue="(no line)"):
            if a != b:
                print(f"differs: parent {a}\n         change {b}")
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
