"""Open-loop torque playback: integrate predicted torques for k steps and
measure the joint-angle drift against the reference motion.

The reference at a given frame rate is the analytic trajectory with
backward-difference velocities, which makes the stored oracle torque the
exact input the semi-implicit integrator needs to land on the next frame;
oracle rollouts therefore reproduce the trajectory to machine precision and
every deviation under predicted torques is attributable to the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..datahub import DatasetManifest, generate_sequence, tree_bundle
from ..model import HDySConfig, HDySModel
from ..rbd import DivergedRollout, GeneralizedState, rnea, step
from .batching import Standardizer
from .evaluate import EvalError, predict_sequences


@dataclass
class RolloutRow:
    k: int
    fps: float
    source: str  # "oracle" | "predicted"
    mse: float
    n_starts: int
    diverged: int


ROLLOUT_COLUMNS = [f.name for f in fields(RolloutRow)]  # rollout CSV header


@dataclass
class RolloutReport:
    profile: str
    representation: str
    rows: list[RolloutRow] = field(default_factory=list)

    def mse(self, k: int, fps: float, source: str) -> float:
        for r in self.rows:
            if r.k == k and r.fps == fps and r.source == source:
                return r.mse
        raise EvalError(f"no rollout row ({k}, {fps}, {source})")


def _reference(traj_q: np.ndarray, fps: float):
    """Backward-difference states and the torque-consistent accelerations."""
    qd = np.zeros_like(traj_q)
    qd[1:] = (traj_q[1:] - traj_q[:-1]) * fps
    qdd = np.zeros_like(traj_q)
    qdd[1:-1] = (qd[2:] - qd[1:-1]) * fps
    return qd, qdd


def rollout_eval(
    model: HDySModel,
    stdizer: Standardizer,
    cfg: HDySConfig,
    manifest: DatasetManifest,
    fps_list=None,
    max_sequences: int | None = None,
) -> RolloutReport:
    """The `cfg.rollout` grid; `fps_list` and `max_sequences` narrow it."""
    rc = cfg.rollout
    k_list = list(rc.k_list)
    fps_list = list(fps_list if fps_list is not None else rc.fps_list)
    pid = rc.profile
    representation = rc.representation
    max_sequences = max_sequences or rc.max_sequences

    profile = manifest.profile(pid)
    bundle = tree_bundle(profile.tree_key)
    if bundle.tree.root_dof != 0:
        raise EvalError("rollouts need a fixed-base tree")
    if profile.dyn_mask[:1] not in (("tau_tr",), ("tau_ts",)):
        raise EvalError(f"profile {pid} has no joint-torque labels")
    dyn = profile.dyn_mask[0]
    p_idx = manifest.gen_index[pid]
    ids = manifest.test_ids[pid][:max_sequences]
    k_max = max(k_list)
    report = RolloutReport(profile=pid, representation=representation)

    for fps in fps_list:
        dt = 1.0 / fps
        sq_sums = {(k, s): 0.0 for k in k_list for s in ("oracle", "predicted")}
        counts = {(k, s): 0 for k in k_list for s in ("oracle", "predicted")}
        diverged = {(k, s): 0 for k in k_list for s in ("oracle", "predicted")}
        for sid in ids:
            s_idx = int(sid[len(pid):])
            rec, traj = generate_sequence(manifest.seed, profile, p_idx, s_idx, fps=fps)
            q_ref = np.atleast_2d(traj.q)
            qd_ref, qdd_imp = _reference(q_ref, fps)
            n = q_ref.shape[0]
            tau_oracle = rnea(bundle.tree, GeneralizedState(q_ref, qd_ref, qdd_imp))

            preds = predict_sequences(
                model, stdizer, cfg, {(pid, sid): rec}, pid, profile.tree_key, [sid]
            )[sid]
            if representation == "avg":
                tau_pred = np.mean([preds[k][dyn] for k in sorted(preds)], axis=0)
            else:
                if representation not in preds:
                    raise EvalError(f"representation '{representation}' not available")
                tau_pred = preds[representation][dyn]

            for t0 in range(1, n - k_max - 1, rc.start_stride):
                for source, tau_seq in (("oracle", tau_oracle), ("predicted", tau_pred)):
                    q = q_ref[t0].copy()
                    qd = qd_ref[t0].copy()
                    errs = []
                    died_at = None
                    for i in range(k_max):
                        try:
                            q, qd = step(bundle.tree, q, qd, tau_seq[t0 + i], dt=dt)
                        except DivergedRollout:
                            died_at = i
                            break
                        errs.append(float(((q - q_ref[t0 + i + 1]) ** 2).mean()))
                    for k in k_list:
                        if died_at is not None and died_at < k:
                            diverged[(k, source)] += 1
                            continue
                        sq_sums[(k, source)] += float(np.mean(errs[:k]))
                        counts[(k, source)] += 1
        for k in k_list:
            for source in ("oracle", "predicted"):
                c = counts[(k, source)]
                report.rows.append(
                    RolloutRow(
                        k=k,
                        fps=fps,
                        source=source,
                        mse=sq_sums[(k, source)] / c if c else float("nan"),
                        n_starts=c,
                        diverged=diverged[(k, source)],
                    )
                )
    return report
