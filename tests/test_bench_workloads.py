"""The benchmark's workloads still run on the current sources.

`bench/` reads hdys through the names `hdysctl` uses (`rnea` sliced by
`KinematicTree.root_dof`, `load_model`'s three values, `rollout_eval`'s
`fps_list` and `max_sequences`, and so on). A change under `src/` that breaks
one of them fails here, in the tier-1 suite, rather than only when the
benchmark runs. Each workload runs one short untraced measurement at the small
sizes that `bench/tests` uses, and every output check must pass.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# the small sizes of bench/tests/test_bench.py
SMALL = {"gen-data": {}, "train-step": {"train_seqs": 2, "epochs_per_call": 2}, "assess": {}}


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module; it imports its siblings (speed, tracing, workloads) by bare name."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import run

        yield run
    for name in ("run", "speed", "tracing", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_benchmark_workload_runs_and_passes_its_checks(bench_run, name):
    assert set(bench_run.NAMES) == set(SMALL)
    result, _ = bench_run.execute(name, 3, 0.01, False, **SMALL[name])
    assert result["correct"], name
    assert result["attempted"] > 0 and result["failed"] == 0, result
