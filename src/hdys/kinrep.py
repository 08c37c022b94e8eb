"""Per-frame kinematics/dynamics representations built from oracle trajectories.

Channel layouts (all float64):
  x_m   (F, n_markers, 9)   marker position, velocity, acceleration
  x_k   (F, n_links, 9)     joint-center position, velocity, acceleration
  x_a   (F, 3*n_dof)        angle-tree coordinates as (q, qd, qdd) per DoF
  x_s   (F, 3*n_dof)        pose-tree coordinates, same triple layout
  tau_tr / tau_ts (F, n_actuated)  oracle joint torques per tree family
  tau_m (F, n_muscles)      activations in [0, 1]
  tau_e (F, n_channels)     synthetic surface EMG, >= 0

Velocities and accelerations always come from finite differences of the
sampled positions (never from the oracle), so a representation is exactly
what a motion-capture consumer could compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .rbd import (
    GeneralizedState,
    InfeasibleActivation,
    KinematicTree,
    MuscleSet,
    rnea,
    solve_activations,
    synth_emg,
)

KINEMATIC_CHANNELS = ("x_m", "x_k", "x_a", "x_s")
DYNAMIC_CHANNELS = ("tau_tr", "tau_ts", "tau_m", "tau_e")
CHANNELS = KINEMATIC_CHANNELS + DYNAMIC_CHANNELS


class RepresentationError(Exception):
    pass


def finite_difference(x: np.ndarray, fps: float) -> tuple[np.ndarray, np.ndarray]:
    """Velocity and acceleration along the leading (frame) axis.

    Central differences at interior frames, one-sided at the two boundary
    frames; outputs match the input length.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 3:
        raise RepresentationError("finite differencing needs at least 3 frames")
    v = np.empty_like(x)
    a = np.empty_like(x)
    v[1:-1] = (x[2:] - x[:-2]) * (fps / 2.0)
    v[0] = (x[1] - x[0]) * fps
    v[-1] = (x[-1] - x[-2]) * fps
    a[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) * fps**2
    a[0] = (x[2] - 2.0 * x[1] + x[0]) * fps**2
    a[-1] = (x[-1] - 2.0 * x[-2] + x[-3]) * fps**2
    return v, a


def _triple_rows(p: np.ndarray, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(F, N, 3) position/velocity/acceleration -> (F, N, 9) rows."""
    return np.concatenate([p, v, a], axis=-1)


def _triple_flat(q: np.ndarray, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(F, n) coordinate arrays -> (F, 3n) with (q, qd, qdd) per entity."""
    f, n = q.shape
    out = np.empty((f, 3 * n))
    out[:, 0::3] = q
    out[:, 1::3] = v
    out[:, 2::3] = a
    return out


@dataclass
class SequenceRecord:
    """A fixed-fps trajectory with a shared availability mask."""

    seq_id: str
    profile_id: str
    tree_name: str
    fps: float
    subject_mass: float
    channels: dict[str, np.ndarray]
    marker_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    n_actuated: int = 0

    def __post_init__(self):
        self.validate()

    @property
    def n_frames(self) -> int:
        return next(iter(self.channels.values())).shape[0]

    @property
    def mask(self) -> frozenset:
        return frozenset(self.channels)

    def validate(self) -> None:
        """Check the channel layouts and value ranges over every frame."""
        lengths = {v.shape[0] for v in self.channels.values()}
        if len(lengths) > 1:
            raise RepresentationError("channel frame counts differ")
        if self.n_frames < 3:
            raise RepresentationError("sequences need at least 3 frames")
        for name, n in (("tau_tr", self.n_actuated), ("tau_ts", self.n_actuated)):
            if name in self.channels and self.n_actuated and self.channels[name].shape[1] != n:
                raise RepresentationError(f"{name} must have one column per actuated DoF")
        for name in self.channels:
            if name not in CHANNELS:
                raise RepresentationError(f"unknown channel '{name}'")
        for name in ("x_m", "x_k"):
            if name in self.channels and self.channels[name].shape[-1] != 9:
                raise RepresentationError(f"{name} rows must be 9-dim")
        for name in ("x_a", "x_s"):
            if name in self.channels and self.channels[name].shape[-1] % 3 != 0:
                raise RepresentationError(f"{name} must hold (value, velocity, acceleration) triples")
        if "tau_m" in self.channels:
            tm = self.channels["tau_m"]
            if (tm < -1e-9).any() or (tm > 1 + 1e-9).any():
                raise RepresentationError("muscle actions must lie in [0, 1]")
        if "tau_e" in self.channels and (self.channels["tau_e"] < -1e-12).any():
            raise RepresentationError("sEMG must be non-negative")


def build_representations(
    tree: KinematicTree,
    traj: GeneralizedState,
    marker_subset: Iterable[int],
    mask: Iterable[str],
    fps: float,
    seq_id: str = "seq",
    profile_id: str = "profile",
    angle_channel: str = "x_a",
    jitter_sigma: float = 0.0,
    jitter_rng: Optional[np.random.Generator] = None,
) -> SequenceRecord:
    """Kinematic channels for one trajectory.

    `mask` selects which channels to emit; `angle_channel` names the block
    the generalized coordinates go to (x_a for the angle tree, x_s for the
    pose tree). Cartesian jitter, when requested, lands on the positions
    before differentiation so velocity/acceleration inherit it.
    """
    mask = set(mask)
    unknown = mask.difference(KINEMATIC_CHANNELS)
    if unknown:
        raise RepresentationError(f"unknown kinematics channels {sorted(unknown)}")
    q = np.atleast_2d(traj.q)
    if q.shape[0] < 3:
        raise RepresentationError("trajectory must have at least 3 frames")
    channels: dict[str, np.ndarray] = {}
    marker_ids = np.asarray(sorted(marker_subset), dtype=np.int64)

    need_fk = bool(mask & {"x_m", "x_k"})
    if need_fk:
        _, _, markers, joints = tree.forward_kinematics(q)
    if "x_m" in mask:
        if marker_ids.size == 0:
            raise RepresentationError("marker channel requested with an empty subset")
        if marker_ids.min() < 0 or marker_ids.max() >= tree.n_markers:
            raise RepresentationError("marker subset index out of range")
        pos = markers[:, marker_ids]
        if jitter_sigma > 0.0:
            pos = pos + jitter_rng.normal(0.0, jitter_sigma, size=pos.shape)
        v, a = finite_difference(pos, fps)
        channels["x_m"] = _triple_rows(pos, v, a)
    if "x_k" in mask:
        pos = joints
        if jitter_sigma > 0.0:
            pos = pos + jitter_rng.normal(0.0, jitter_sigma, size=pos.shape)
        v, a = finite_difference(pos, fps)
        channels["x_k"] = _triple_rows(pos, v, a)
    if angle_channel in mask:
        v, a = finite_difference(q, fps)
        channels[angle_channel] = _triple_flat(q, v, a)

    return SequenceRecord(
        seq_id=seq_id,
        profile_id=profile_id,
        tree_name=tree.name,
        fps=fps,
        subject_mass=tree.subject_mass,
        channels=channels,
        marker_ids=marker_ids,
        n_actuated=tree.n_actuated,
    )


def attach_dynamics(
    record: SequenceRecord,
    tree: KinematicTree,
    traj: GeneralizedState,
    muscles: Optional[MuscleSet],
    kinds: Iterable[str],
    seed: int = 0,
    torque_channel: str = "tau_tr",
    emg_muscles: Optional[tuple[int, ...]] = None,
) -> SequenceRecord:
    """Oracle dynamics labels for the trajectory behind a record.

    Torques come from inverse dynamics at the oracle states, activations from
    the minimum-norm solve, and EMG from the activation trajectory. The
    record's availability mask is extended in place.
    """
    kinds = set(kinds)
    unknown = kinds.difference(DYNAMIC_CHANNELS)
    if unknown:
        raise RepresentationError(f"unknown dynamics channels {sorted(unknown)}")
    q = np.atleast_2d(traj.q)
    tau_full = rnea(tree, traj)
    tau_act = tau_full[:, tree.root_dof :]

    if torque_channel in kinds:
        record.channels[torque_channel] = tau_act
    needs_act = kinds & {"tau_m", "tau_e"}
    if needs_act:
        if muscles is None:
            raise RepresentationError("muscle/EMG channels need a muscle set")
        acts = np.empty((q.shape[0], muscles.n_muscles))
        for t in range(q.shape[0]):
            try:
                acts[t] = solve_activations(muscles, tau_act[t])
            except InfeasibleActivation as exc:
                raise InfeasibleActivation(f"frame {t}: {exc}") from exc
        if "tau_m" in kinds:
            record.channels["tau_m"] = np.clip(acts, 0.0, 1.0)
        if "tau_e" in kinds:
            picked = acts[:, list(emg_muscles)] if emg_muscles else acts
            record.channels["tau_e"] = synth_emg(picked, record.fps, noise_seed=seed)
    record.validate()
    return record
