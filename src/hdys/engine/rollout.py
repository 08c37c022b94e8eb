"""Open-loop torque playback: integrate predicted torques for k steps and
measure the joint-angle drift against the reference motion.

The reference at a given frame rate is the analytic trajectory with
backward-difference velocities, which makes the stored oracle torque the
exact input the semi-implicit integrator needs to land on the next frame;
oracle rollouts therefore reproduce the trajectory to machine precision and
every deviation under predicted torques is attributable to the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from time import perf_counter

import numpy as np

from ..datahub import DatasetManifest, DomainProfile, generate_sequence, tree_bundle
from ..kinrep import TORQUE_CHANNELS
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
    rows: list[RolloutRow] = field(default_factory=list)
    # wall seconds of sequence generation (oracle torques too), prediction and stepping
    timings: dict[str, float] = field(default_factory=lambda: dict.fromkeys(("generate_s", "predict_s", "step_s"), 0.0))


def check_grid(cfg: HDySConfig, manifest: DatasetManifest) -> None:
    """Raise unless `rollout_eval` can run the `cfg.rollout` grid: the rollout
    profile carries joint torques (EvalError) and the representation
    (EvalError), and every rate gives its shortest sequence one model window
    and the `k_max + 3` frames that the start loop needs (DatasetError). A
    manifest without the profile (a restricted study run) has nothing to check."""
    rc = cfg.rollout
    if rc.profile not in manifest.gen_index:
        return
    window, k_max = cfg.model.window, max(rc.k_list)
    profile = manifest.profile(rc.profile)
    carries = f"it carries {', '.join(profile.kin_mask + profile.dyn_mask)}"
    if not profile.dyn_mask or profile.dyn_mask[0] not in TORQUE_CHANNELS:
        raise EvalError(f"profile {rc.profile} has no joint-torque labels to roll out ({carries})")
    if rc.representation != "avg" and rc.representation not in profile.kin_mask:
        raise EvalError(f"representation '{rc.representation}' not available on profile {rc.profile} ({carries})")
    for fps in rc.fps_list:
        profile.require_frames(fps, max(window, k_max + 3), f" (a {window}-frame window and {k_max} rollout steps)")


def rollout_profile(cfg: HDySConfig, manifest: DatasetManifest) -> DomainProfile:
    """The profile that `cfg.rollout` names; EvalError unless the manifest lists a test sequence of it."""
    pid = cfg.rollout.profile
    if not manifest.test_ids.get(pid):
        raise EvalError(f"the manifest lists no test sequence of profile {pid} to roll out (rollout.profile)")
    return manifest.profile(pid)


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
    """The `cfg.rollout` grid; `fps_list` and `max_sequences` narrow it, and
    `check_grid` checks the narrowed grid."""
    rc = cfg.rollout
    rc = replace(rc, fps_list=rc.fps_list if fps_list is None else tuple(fps_list),
                 max_sequences=rc.max_sequences if max_sequences is None else max_sequences)
    check_grid(replace(cfg, rollout=rc), manifest)
    pid, representation = rc.profile, rc.representation
    profile = rollout_profile(cfg, manifest)
    bundle = tree_bundle(profile.tree_key)
    dyn = profile.dyn_mask[0]
    p_idx = manifest.gen_index[pid]
    ids = manifest.test_ids[pid][: rc.max_sequences]
    k_max = max(rc.k_list)
    report = RolloutReport()

    for fps in rc.fps_list:
        dt = 1.0 / fps
        # per source, each start's step errors; a diverged start's list ends where it diverged
        errors: dict[str, list[list[float]]] = {"oracle": [], "predicted": []}
        for sid in ids:
            t_generate = perf_counter()
            s_idx = int(sid[len(pid):])
            rec, traj = generate_sequence(manifest.seed, profile, p_idx, s_idx, fps=fps)
            q_ref = traj.q
            qd_ref, qdd_imp = _reference(q_ref, fps)
            n = q_ref.shape[0]
            tau_oracle = rnea(bundle.tree, GeneralizedState(q_ref, qd_ref, qdd_imp))
            t_predict = perf_counter()
            report.timings["generate_s"] += t_predict - t_generate

            preds = predict_sequences(model, stdizer, cfg, {(pid, sid): rec}, pid, [sid])[sid]
            if representation == "avg":
                tau_pred = np.mean([preds[k][dyn] for k in sorted(preds)], axis=0)
            else:
                tau_pred = preds[representation][dyn]
            t_step = perf_counter()
            report.timings["predict_s"] += t_step - t_predict

            for t0 in range(1, n - k_max - 1, rc.start_stride):
                for source, tau_seq in (("oracle", tau_oracle), ("predicted", tau_pred)):
                    q, qd = q_ref[t0 : t0 + 1], qd_ref[t0 : t0 + 1]
                    errs = []
                    for i in range(k_max):
                        try:
                            q, qd = step(bundle.tree, q, qd, tau_seq[t0 + i : t0 + i + 1], dt=dt)
                        except DivergedRollout:
                            break
                        errs.append(float(((q - q_ref[t0 + i + 1 : t0 + i + 2]) ** 2).mean()))
                    errors[source].append(errs)
            report.timings["step_s"] += perf_counter() - t_step
        for k in rc.k_list:
            for source in ("oracle", "predicted"):
                ran = [e[:k] for e in errors[source] if len(e) >= k]
                total = 0.0  # summed in start order, as a plain loop, so the mean keeps its bits
                for e in ran:
                    total += float(np.mean(e))
                mse = total / len(ran) if ran else float("nan")
                report.rows.append(RolloutRow(k, fps, source, mse, len(ran), len(errors[source]) - len(ran)))
    return report
