"""Benchmark for hdys: gen-data, train-step and assess.

Run from the repository root:

    python3 bench/run.py --workload gen-data --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run sets its workload up several times (``setup_s`` is the median), warms
up, then repeats rounds of the workload for ``--seconds`` and checks every
output. With ``--trace 0`` it reports the end-to-end metrics that
BENCHMARK.json lists; with ``--trace 1`` it measures half the time untraced
and half traced, and reports the per-layer metrics instead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A failed output check prints ``correct: false`` and exits with code 1.

The process runs one BLAS thread and starts no workers; ``--workload all``
runs each workload in a child process of its own, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
NAMES = ("gen-data", "train-step", "assess")
BLAS_THREADS = 1  # steadier than 2 on a shared 2-core box, at about 5% more step time


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _import_hdys():
    if not (SRC / "hdys" / "__init__.py").is_file():
        raise SystemExit(f"error: no hdys sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hdys

    if Path(hdys.__file__).resolve().parent != SRC / "hdys":
        raise SystemExit(f"error: imported hdys from {hdys.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(wl, seconds: float) -> list:
    """Units until `seconds` have passed; one more starts only if it should mostly fit."""
    units, last = [], 0.0
    start = perf_counter()
    while not units or perf_counter() - start + 0.5 * last < seconds:
        began = perf_counter()
        units.append(wl.unit())
        last = perf_counter() - began
    return units


def _describe(label: str, ts: list) -> str:
    if not ts:
        return f"{label}: no samples"
    cal = [t.cal for t in ts]
    return (
        f"{label}: median {statistics.median(cal):.6g} s calibrated, "
        f"{statistics.median([t.raw for t in ts]):.6g} s wall "
        f"(n={len(ts)}, calibrated min {min(cal):.6g}, max {max(cal):.6g})"
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rounds(units: list) -> list:
    return [t for u in units for t in u.durations]


def layer_metrics(spec: list[dict], tracer, plain: list, traced: list, labelled: int) -> dict:
    """Per-layer values per round of the traced phase (per setup for record reads)."""
    rounds = max(1, sum(u.rounds for u in traced))
    by_round = tracer.stats("round")
    by_setup = tracer.stats("setup")
    single, single_s, frames, batched_s = tracer.rnea_split("round")
    plain_round = statistics.median([t.cal for t in _rounds(plain)])
    traced_round = statistics.median([t.cal for t in _rounds(traced)])
    special = {
        "datahub.attempts_per_seq": by_round["kinrep.attach_dynamics"].calls / labelled if labelled else 0.0,
        "rbd.rnea.single_ms": 1e3 * single_s / single if single else 0.0,
        "rbd.rnea.batched_ms_per_frame": 1e3 * batched_s / frames if frames else 0.0,
        "trace.round_s": traced_round,
        "trace.untraced_round_s": plain_round,
        "trace.overhead_s": traced_round - plain_round,
        "trace.spans": sum(st.calls for st in by_round.values()) / rounds,
    }
    out = {}
    for m in spec:
        name = m["name"]
        if name in special:
            value = special[name]
        else:
            base, stat = name.rsplit(".", 1)
            stats, per = (by_setup, 1) if base == "datahub.read_record" else (by_round, rounds)
            st = stats[base]
            value = {
                "calls": st.calls / per,
                "s": st.s / per,
                "fwd_s": st.s / per,
                "self_s": st.self_s / per,
                "bwd_s": stats[f"{base}.bwd"].s / per,
                "bytes": st.extra / per,
                "gflop": st.extra / 1e9 / per,
                "frames": st.extra / st.calls if st.calls else 0.0,
            }[stat]
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def execute(name: str, seed: int, seconds: float, trace: bool, **options):
    """Set up, measure and check one workload; print its report.

    Returns the result object (correct, attempted, failed, metrics) and the
    workload, whose outputs tests compare.

    `options` go to the workload's constructor (smaller sizes, for tests).
    """
    spec = _load_spec()
    from speed import SpeedClock
    from tracing import CALIBRATION, NullTracer, Tracer
    from workloads import WORKLOADS

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    tracer = Tracer() if trace else NullTracer()
    clock = SpeedClock()
    if trace:
        clock.kernel = tracer.wrap(CALIBRATION, clock.kernel)
    wl = WORKLOADS[name](seed, str(workdir), tracer, clock, **options)
    try:
        if trace:
            with tracer.recording("setup"):
                wl.setup()
            wl.warm_up()
            plain = measure(wl, seconds / 2)
            before = wl.labelled_written
            with tracer.recording("round"):
                traced = measure(wl, seconds / 2)
            units = plain + traced
            metrics = layer_metrics(spec["per_layer"], tracer, plain, traced, wl.labelled_written - before)
            spans = WORK / f"trace-{name}-seed{seed}.csv.gz"
            tracer.write(str(spans))
            print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
            print(_describe("untraced rounds", _rounds(plain)))
            print(_describe("traced rounds", _rounds(traced)))
            print(f"tracing overhead: {metrics['trace.overhead_s']['value']:.6g} s per round, calibrated")
        else:
            setups = []
            for _ in range(wl.setup_repeats):
                with clock.timed(wl.setup_kernel, setups):
                    wl.setup()
            wl.warm_up()
            units = measure(wl, seconds)
            rounds = _rounds(units)
            print(_describe("setup", setups))
            print(_describe("rounds", rounds))
            values = {
                "setup_s": statistics.median([t.cal for t in setups]),
                "peak_rss_mb": _peak_rss_mb(),
                "round_s": statistics.median([t.cal for t in rounds]) if rounds else float("nan"),
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        wl.finish(units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    for kind, ks in clock.kernel_s.items():
        if ks:
            print(f"calibration kernel {kind}: median {statistics.median(ks):.6g} s over {len(ks)} runs")
    if not trace:
        print(f"metric setup_s {values['setup_s']:.6g} s (wall {statistics.median([t.raw for t in setups]):.6g})")
        print(f"metric peak_rss_mb {values['peak_rss_mb']:.6g} MB")
        print(f"metric failed_share {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted})")
        for metric, cal, raw, unit in wl.named_metrics(units):
            print(f"metric {metric} {cal:.6g} {unit} (wall {raw:.6g})")
    for line in wl.outputs():
        print(f"output {line}")
    for what in wl.failures:
        print(f"CHECK FAILED: {what}")
    correct = not wl.failures
    print(f"checks: {'all passed' if correct else f'{len(wl.failures)} failed'}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, wl


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own child process, so peak memory is per workload."""
    status, lines = 0, []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        status = status or proc.returncode
        lines += [f"{name:10s} {ln[len('metric '):]}" for ln in proc.stdout.splitlines() if ln.startswith("metric ")]
    print("== summary")
    print("\n".join(lines))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    # BLAS reads its thread count once, when numpy first loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _import_hdys()
    result, _ = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
