"""Tests of the benchmark itself.

Every traced boundary must fire on the workload it is mapped to, so that a
refactor which moves a function fails here instead of silently zeroing a
per-layer metric; traced and untraced runs must give identical outputs; and
the harness must refuse to run without the hdys sources.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import GenData  # noqa: E402

FORWARD_OPS = ("add", "attention", "concat", "gelu", "layernorm", "matmul", "mean", "slice")
LOSS_OPS = ("l1dist", "l2norm", "logsumexp", "mul", "reshape", "sub", "sum", "transpose")
MODEL_FORWARD = (
    "model.encode_kinematics.calls", "model.encode_kinematics.s", "model.refine.s",
    "model.forward_group.calls", "model.forward_group.s", "model.forward_group.self_s",
    "engine.build_groups.calls", "engine.build_groups.s", "numcore.matmul.gflop",
    "datahub.read_record.s", "datahub.read_record.bytes",
)
GEN_RBD = ("rbd.rnea.calls", "rbd.rnea.frames", "rbd.rnea.s")

# Per-layer metrics each workload's traced run must report as non-zero.
NONZERO = {
    "gen-data": GEN_RBD + (
        "rbd.rnea.batched_ms_per_frame", "rbd.solve_activations.calls", "rbd.solve_activations.s",
        "rbd.synth_emg.s", "rbd.forward_kinematics.s",
        "kinrep.build_representations.self_s", "kinrep.attach_dynamics.self_s", "kinrep.finite_difference.s",
        "datahub.generate_sequence.calls", "datahub.generate_sequence.self_s", "datahub.sample_trajectory.s",
        "datahub.write_record.s", "datahub.write_record.bytes", "datahub.attempts_per_seq",
    ),
    "train-step": MODEL_FORWARD
    + tuple(f"numcore.{op}.{stat}" for op in FORWARD_OPS + LOSS_OPS for stat in ("calls", "fwd_s", "bwd_s"))
    + (
        "numcore.backward.s", "numcore.adamw_step.s",
        "model.encode_kinematics_stripped.calls", "model.encode_kinematics_stripped.s",
        "model.loss_recon.s", "model.loss_align.s", "model.total_loss.self_s", "engine.train.self_s",
    ),
    "assess": MODEL_FORWARD + GEN_RBD
    + tuple(f"numcore.{op}.{stat}" for op in FORWARD_OPS for stat in ("calls", "fwd_s"))
    + (
        "engine.predict_sequences.s", "engine.evaluate.self_s", "engine.rollout_eval.s",
        "engine.rollout_eval.self_s", "rbd.rnea.single_ms", "rbd.mass_matrix.calls", "rbd.mass_matrix.s",
        "rbd.forward_dynamics.self_s", "rbd.step.calls", "rbd.step.s", "rbd.step.self_s",
    ),
}

# Layers a workload must not touch between setup and the end of its rounds.
ZERO_PREFIXES = {
    "gen-data": ("numcore.", "model.", "engine.", "datahub.read_record."),
    "train-step": ("rbd.", "kinrep.", "datahub.generate_sequence.", "datahub.sample_trajectory.",
                   "datahub.write_record.", "datahub.attempts_per_seq", "engine.predict_sequences.",
                   "engine.evaluate.", "engine.rollout_eval."),
    "assess": ("numcore.backward.", "numcore.adamw_step.", "model.encode_kinematics_stripped.",
               "model.loss_", "model.total_loss.", "engine.train.", "rbd.solve_activations.",
               "datahub.write_record.", "datahub.attempts_per_seq")
    + tuple(f"numcore.{op}." for op in LOSS_OPS)
    + tuple(f"numcore.{op}.bwd_s" for op in FORWARD_OPS),
}

SMALL = {"gen-data": {}, "train-step": {"train_seqs": 2, "epochs_per_call": 2}, "assess": {}}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced_runs():
    """One short traced run per workload: one untraced and one traced unit each."""
    return {name: run.execute(name, 3, 0.01, True, **SMALL[name]) for name in run.NAMES}


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_run_is_correct_and_complete(traced_runs, name):
    result, _ = traced_runs[name]
    assert result["correct"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _spec()["per_layer"]}


@pytest.mark.parametrize("name", run.NAMES)
def test_every_mapped_boundary_fires(traced_runs, name):
    metrics = traced_runs[name][0]["metrics"]
    silent = [m for m in NONZERO[name] if not metrics[m]["value"] > 0]
    assert not silent, f"{name}: no activity in {silent}"


@pytest.mark.parametrize("name", run.NAMES)
def test_unmapped_layers_stay_idle(traced_runs, name):
    metrics = traced_runs[name][0]["metrics"]
    busy = [m for m, v in metrics.items() if m.startswith(ZERO_PREFIXES[name]) and v["value"] != 0]
    assert not busy, f"{name}: unexpected activity in {busy}"


def test_every_layer_metric_is_mapped_to_a_workload():
    mapped = set().union(*NONZERO.values())
    unmapped = [m["name"] for m in _spec()["per_layer"] if m["name"] not in mapped and not m["name"].startswith("trace.")]
    assert not unmapped


def test_counts_repeat_exactly(traced_runs):
    """Calls per step are exact counts: the same in every run at one seed."""
    again, _ = run.execute("train-step", 3, 0.01, True, **SMALL["train-step"])
    first = traced_runs["train-step"][0]["metrics"]
    for name, v in first.items():
        if name.endswith((".calls", ".gflop")):
            assert again["metrics"][name]["value"] == v["value"], name


def test_traced_and_untraced_training_agree(traced_runs):
    wl = traced_runs["train-step"][1]
    assert len(wl.curves) == 2  # one untraced call, one traced call
    assert wl.curves[0] == wl.curves[1]


def test_traced_and_untraced_assess_agree(traced_runs):
    # Assess.unit compares every round's eval and rollout rows with the previous round's.
    wl = traced_runs["assess"][1]
    assert len(wl.eval_t) == 2  # one untraced round, one traced round
    assert not wl.failures


def test_traced_and_untraced_records_agree(tmp_path):
    tracer = tracing.Tracer()
    wl = GenData(5, str(tmp_path), tracer, SpeedClock())
    wl.unit()
    plain = wl.digest
    wl.round = 0
    with tracer.recording("round"):
        wl.unit()
    assert tracer.spans and wl.digest == plain and not wl.failures


def test_moved_boundary_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + [("rbd.gone", "hdys.rbd.dynamics", "gone")])
    tracer = tracing.Tracer()
    original = sys.modules["hdys.rbd.dynamics"].rnea
    with pytest.raises(AttributeError, match="no longer exists"):
        tracer.install()
    assert sys.modules["hdys.rbd.dynamics"].rnea is original  # partial patches undone


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gen-data", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
