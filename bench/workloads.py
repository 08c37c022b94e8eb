"""The benchmark's three workloads and their output checks.

Each workload enters hdys through the calls ``hdysctl`` makes and looks every
function up on its package at call time, so the tracer's wrappers see it.

- gen-data: ``generate_dataset`` over all five profiles. datahub, kinrep and
  rbd do their work here (batched FK and RNEA, the per-frame activation
  solve, record writes); numcore and model do nothing.
- train-step: desk-config training (480 frames, 30 windows, FDAE and InfoNCE
  on) on a small five-profile dataset built in setup. numcore forward and
  backward, every model module, batching and AdamW run; rbd does nothing
  because the labels are precomputed.
- assess: ``evaluate`` over the test split plus a reduced ``rollout_eval``
  grid on profile A, with a checkpoint trained in setup. numcore and model
  run forward only; rbd runs one frame at a time inside ``step``.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, replace

import numpy as np
from speed import SpeedClock, Timing

import hdys.datahub as datahub
import hdys.engine as engine
import hdys.rbd as rbd
from hdys.model import desk_config
from hdys.model.losses import DeadConfigError
from hdys.numcore import NonFiniteError

# The failures hdysctl reports as domain errors (exit code 1).
DOMAIN_ERRORS = (datahub.DatasetError, rbd.InfeasibleActivation, DeadConfigError, engine.TrainError)

ORACLE_MSE_MAX = 1e-12
ACTIVATION_TOL = 1e-6  # the solver's own acceptance, relative to max(1, |tau|)


@dataclass
class Unit:
    """One timed call into hdys."""

    durations: list[Timing]  # each round that counts toward the metrics
    rounds: int  # rounds of work done (optimizer steps for train-step)
    attempted: int
    failed: int


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _sum(a: Timing, b: Timing) -> Timing:
    return Timing(a.raw + b.raw, a.cal + b.cal)


class Workload:
    name = ""
    setup_repeats = 3
    setup_kernel = "interp"  # calibration kernel for setup_s (speed.py)

    def __init__(self, seed: int, workdir: str, tracer, clock: SpeedClock):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.clock = clock
        self.failures: list[str] = []
        self.labelled_written = 0  # labelled records written in rounds (gen-data)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def _fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def unit(self) -> Unit:
        raise NotImplementedError

    def finish(self, units: list[Unit]) -> None:
        """Checks that span every unit of the run."""

    def named_metrics(self, units: list[Unit]) -> list[tuple[str, float, float, str]]:
        """(name, calibrated value, raw value, unit) for the workload's own rates."""
        raise NotImplementedError

    def outputs(self) -> list[str]:
        return []


# -- gen-data ---------------------------------------------------------------------


def _record_digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class GenData(Workload):
    """One round is ``hdysctl gen-data`` with 2 train and 1 test sequence per profile."""

    name = "gen-data"
    setup_repeats = 5
    TRAIN_SEQS, TEST_SEQS = 2, 1

    def __init__(self, seed, workdir, tracer, clock):
        super().__init__(seed, workdir, tracer, clock)
        self.round = 0
        self.frames_per_round = 0
        self.digest = ""

    def setup(self):
        # The oracle models generation needs: both trees and their muscle sets.
        rbd.t1_muscles()
        rbd.t2_muscles(rbd.build_t2())

    def unit(self):
        r = self.round
        self.round += 1
        seed = int(np.random.SeedSequence([self.seed, r]).generate_state(1)[0])
        profiles = datahub.default_profiles(n_train=self.TRAIN_SEQS, n_test=self.TEST_SEQS)
        manifest = datahub.DatasetManifest(seed=seed, profiles=profiles)
        n_seqs = sum(p.n_train + p.n_test for p in profiles)
        root = self._fresh_dir(f"gen{r}")
        took: list[Timing] = []
        try:
            with self.clock.timed("interp", took, at=("hdys.datahub.profiles", "generate_sequence")):
                datahub.generate_dataset(root, manifest)
        except DOMAIN_ERRORS as exc:
            print(f"gen-data round {r}: {exc}", file=sys.stderr)
            written = sum(len(files) for _, _, files in os.walk(root))
            shutil.rmtree(root)
            return Unit([], 0, written + 1, 1)
        with self.tracer.paused():
            self._check_round(root, manifest, regenerate=(r == 0))
        shutil.rmtree(root)
        self.labelled_written += sum(p.n_train + p.n_test for p in profiles if p.dyn_mask)
        return Unit(took, 1, n_seqs, 0)

    def _check_round(self, root, manifest, regenerate: bool):
        loaded = datahub.load_manifest(root)
        paths = []
        frames = 0
        for p_idx, profile in enumerate(loaded.profiles):
            pid = profile.profile_id
            ids = loaded.train_ids[pid] + loaded.test_ids[pid]
            for s_idx, sid in enumerate(ids):
                path = datahub.record_path(root, pid, sid)
                paths.append(path)
                with open(path, "rb") as fh:
                    raw = fh.read()
                rec = datahub.read_record(path)
                frames += rec.n_frames
                self.check(datahub.record_to_bytes(rec) == raw, f"record {pid}/{sid} does not read back identical")
                if "tau_m" in rec.channels:
                    a = rec.channels["tau_m"]
                    self.check(bool(((a >= 0.0) & (a <= 1.0)).all()), f"{pid}/{sid}: activations outside [0, 1]")
                if "tau_e" in rec.channels:
                    self.check(bool((rec.channels["tau_e"] >= 0.0).all()), f"{pid}/{sid}: negative sEMG")
                if regenerate:
                    self._check_regenerated(manifest.seed, profile, p_idx, s_idx, raw)
        self.frames_per_round = frames
        if regenerate:
            self.digest = _record_digest(paths)

    def _check_regenerated(self, seed, profile, p_idx, s_idx, raw):
        """The record is a pure function of its ids, and its activations reproduce the oracle torque."""
        rec, traj = datahub.generate_sequence(seed, profile, p_idx, s_idx)
        sid = rec.seq_id
        self.check(datahub.record_to_bytes(rec) == raw, f"{profile.profile_id}/{sid}: regenerated record differs")
        if "tau_m" not in rec.channels:
            return
        bundle = datahub.tree_bundle(profile.tree_key)
        tau = rbd.rnea(bundle.tree, traj)[:, bundle.tree.root_dof :]
        got = rbd.muscle_to_torque(bundle.muscles, rec.channels["tau_m"])
        scale = np.maximum(1.0, np.abs(tau).max(axis=1))
        worst = float((np.abs(got - tau).max(axis=1) / scale).max())
        self.check(worst <= ACTIVATION_TOL, f"{profile.profile_id}/{sid}: activations miss the torque by {worst:.2e}*scale")

    def named_metrics(self, units):
        ts = [t for u in units for t in u.durations]
        per = self.frames_per_round
        return [("gen_frames_per_s", per / _median([t.cal for t in ts]), per / _median([t.raw for t in ts]), "frames/s")]

    def outputs(self):
        return [f"round 0 records sha256 {self.digest}", f"frames per round {self.frames_per_round}"]


# -- train-step -------------------------------------------------------------------


def _train_cfg(seed: int, epochs: int):
    cfg = desk_config()
    return replace(cfg, train=replace(cfg.train, epochs=epochs, seed=seed))


class TrainStep(Workload):
    """Rounds are optimizer steps of repeated ``train`` calls at one seed.

    The desk config takes one step per epoch. The calibration kernel runs
    after every step; a step's time runs from the end of that kernel to the
    end of the next step, so the first step of each call (which also pays for
    normalization fitting and model init) and the checkpoint write after the
    last are not counted.
    """

    name = "train-step"

    def __init__(self, seed, workdir, tracer, clock, train_seqs: int = 6, epochs_per_call: int = 5):
        super().__init__(seed, workdir, tracer, clock)
        self.train_seqs = train_seqs
        self.epochs = epochs_per_call
        self.curves: list[list[dict]] = []
        self.warm_curve: list[dict] = []

    def setup(self):
        root = self._fresh_dir("data")
        manifest = datahub.DatasetManifest(
            seed=self.seed, profiles=datahub.default_profiles(n_train=self.train_seqs, n_test=0)
        )
        datahub.generate_dataset(root, manifest)
        self.cache = engine.RecordCache.load(root, manifest)

    def warm_up(self):
        self.warm_curve = engine.train(_train_cfg(self.seed, 2), self.cache, self._fresh_dir("warm")).curve

    def unit(self):
        cfg = _train_cfg(self.seed, self.epochs)
        try:
            with self.clock.sampled("array", at=("hdys.engine.train", "adamw_step")) as samples:
                result = engine.train(cfg, self.cache, os.path.join(self.workdir, "run"))
        except (DOMAIN_ERRORS + (NonFiniteError,)) as exc:
            print(f"train-step: {exc}", file=sys.stderr)
            done = len(samples.marks) - 1
            return Unit([], done, done + 1, 1)
        self.curves.append(result.curve)
        done = len(samples.marks) - 2
        return Unit(samples.pieces()[1:-1], done, done, 0)

    def finish(self, units):
        self.check(bool(self.curves), "no training call completed")
        for curve in self.curves:
            self.check(all(math.isfinite(row["total"]) for row in curve), "training loss is not finite")
            self.check(curve == self.curves[0], "repeated training at one seed changed the loss curve")
            self.check(curve[: len(self.warm_curve)] == self.warm_curve, "warm-up and measured loss curves differ")

    def named_metrics(self, units):
        ts = [t for u in units for t in u.durations]
        return [("train_step_s", _median([t.cal for t in ts]), _median([t.raw for t in ts]), "s")]

    def outputs(self):
        if not self.curves:
            return []
        last = self.curves[0][-1]
        return [f"final loss after {self.epochs} steps: total {last['total']!r} recon {last['recon']!r} align {last['align']!r}"]


# -- assess -----------------------------------------------------------------------


class Assess(Workload):
    """One round is ``evaluate`` over the test split plus a reduced rollout grid."""

    name = "assess"
    setup_kernel = "array"  # mostly the one training step behind the checkpoint
    ROLLOUT = dict(fps_list=(90.0,), max_sequences=1)  # k 1..5, stride 15, profile A, avg source
    TRAIN_SEQS, TEST_SEQS = 2, 2

    def __init__(self, seed, workdir, tracer, clock):
        super().__init__(seed, workdir, tracer, clock)
        self.setup_losses: list[float] = []
        self.eval_t: list[Timing] = []
        self.rollout_t: list[Timing] = []
        self.report = self.roll = None  # the last round's eval and rollout reports
        self.eval_frames = self.rollout_steps = 0

    def setup(self):
        root = self._fresh_dir("data")
        manifest = datahub.DatasetManifest(
            seed=self.seed,
            profiles=datahub.default_profiles(n_train=self.TRAIN_SEQS, n_test=self.TEST_SEQS),
        )
        datahub.generate_dataset(root, manifest)
        self.cache = engine.RecordCache.load(root, manifest)
        self.cfg = _train_cfg(self.seed, 1)
        result = engine.train(self.cfg, self.cache, self._fresh_dir("run"))
        self.setup_losses.append(result.curve[-1]["total"])
        self.model, self.stdizer, _ = engine.load_model(self.cfg, manifest, result.checkpoint_path)
        self.manifest = manifest

    def unit(self):
        m = self.manifest
        labelled = [p for p in m.profiles if p.dyn_mask]
        n_eval = sum(len(m.test_ids[p.profile_id]) for p in labelled)
        try:
            with self.clock.timed("array", self.eval_t, at=("hdys.engine.evaluate", "build_groups")):
                report = engine.evaluate(self.model, self.stdizer, self.cfg, self.cache)
        except (DOMAIN_ERRORS + (engine.EvalError, NonFiniteError)) as exc:
            print(f"assess eval: {exc}", file=sys.stderr)
            return Unit([], 0, n_eval, n_eval)
        with self.clock.timed("interp", self.rollout_t, at=("hdys.engine.rollout", "step")):
            roll = engine.rollout_eval(self.model, self.stdizer, self.cfg, m, **self.ROLLOUT)

        k_max = max(r.k for r in roll.rows)
        last = [r for r in roll.rows if r.k == k_max]
        starts = sum(r.n_starts + r.diverged for r in last)
        diverged = sum(r.diverged for r in last)
        self.eval_frames = sum(self.cache.test[(p.profile_id, s)].n_frames for p in labelled for s in m.test_ids[p.profile_id])
        self.rollout_steps = starts * k_max
        finite = all(math.isfinite(x) for r in report.rows for x in (r.mpje, r.rmse, r.pcc, r.headline))
        self.check(finite, "eval metrics are not finite")
        for r in roll.rows:
            if r.source == "oracle":
                self.check(r.mse <= ORACLE_MSE_MAX, f"oracle rollout k={r.k} fps={r.fps}: mse {r.mse:.3e} > {ORACLE_MSE_MAX}")
        if self.report is not None:
            self.check(report.rows == self.report.rows, "eval report changed between rounds")
            self.check(roll.rows == self.roll.rows, "rollout report changed between rounds")
        self.report, self.roll = report, roll
        return Unit([_sum(self.eval_t[-1], self.rollout_t[-1])], 1, n_eval + starts, diverged)

    def finish(self, units):
        self.check(len(set(self.setup_losses)) <= 1, "repeated checkpoint training at one seed changed the loss")
        self.check(self.report is not None, "no assess round completed")

    def named_metrics(self, units):
        out = []
        for name, work, ts, unit in (
            ("eval_frames_per_s", self.eval_frames, self.eval_t, "frames/s"),
            ("rollout_steps_per_s", self.rollout_steps, self.rollout_t, "steps/s"),
        ):
            out.append((name, work / _median([t.cal for t in ts]), work / _median([t.raw for t in ts]), unit))
        return out

    def outputs(self):
        if self.report is None:
            return []
        out = [f"checkpoint loss after 1 step: {self.setup_losses[0]!r}"]
        for r in self.report.rows:
            if r.representation == "best":
                out.append(f"eval {r.profile} {r.dyn_channel} best headline {r.headline!r}")
        for r in self.roll.rows:
            out.append(f"rollout k={r.k} fps={r.fps:g} {r.source} mse {r.mse!r} starts {r.n_starts} diverged {r.diverged}")
        return out


WORKLOADS = {w.name: w for w in (GenData, TrainStep, Assess)}
