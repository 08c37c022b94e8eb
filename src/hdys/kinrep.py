"""Per-frame kinematics/dynamics representations built from oracle trajectories.

Channels, float64 with frames on axis 0: marker and joint-centre rows (x_m,
x_k), angle- and pose-tree coordinates (x_a, x_s), oracle joint torques
(tau_tr, tau_ts), activations in [0, 1] (tau_m) and surface EMG >= 0 (tau_e).

Velocities and accelerations always come from finite differences of the
sampled positions (never from the oracle), so a representation is exactly
what a motion-capture consumer could compute. `triples` builds every block
from its positions, at generation and when a record (which stores only the
positions) is read. This module alone knows that layout: `width` and
`frame_shape` size blocks, `leading` and `acceleration` carve them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import HdysError
from .rbd import (
    GeneralizedState,
    KinematicTree,
    MuscleSet,
    rnea,
    solve_activations,
    synth_emg,
)

SET_CHANNELS = ("x_m", "x_k")
COORD_CHANNELS = ("x_a", "x_s")
TORQUE_CHANNELS = ("tau_tr", "tau_ts")
KINEMATIC_CHANNELS = SET_CHANNELS + COORD_CHANNELS
DYNAMIC_CHANNELS = TORQUE_CHANNELS + ("tau_m", "tau_e")
CHANNELS = KINEMATIC_CHANNELS + DYNAMIC_CHANNELS


def finite_difference(x: np.ndarray, fps: float) -> tuple[np.ndarray, np.ndarray]:
    """Velocity and acceleration along the leading (frame) axis.

    Central differences at interior frames, one-sided at the two boundary
    frames; outputs match the input length.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 3:
        raise HdysError("finite differencing needs at least 3 frames")
    v = np.empty_like(x)
    a = np.empty_like(x)
    v[1:-1] = (x[2:] - x[:-2]) * (fps / 2.0)
    v[0] = (x[1] - x[0]) * fps
    v[-1] = (x[-1] - x[-2]) * fps
    a[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) * fps**2
    a[0] = (x[2] - 2.0 * x[1] + x[0]) * fps**2
    a[-1] = (x[-1] - 2.0 * x[-2] + x[-3]) * fps**2
    return v, a


def width(channel: str, n: int, orders: int = 3) -> int:
    """Values per frame of the first `orders` derivative orders of n entities
    in `triples`' layout: 3 per order and entity for x_m and x_k, whose rows
    hold one entity each, 1 per order and DoF for x_a and x_s, n otherwise."""
    return n if channel in DYNAMIC_CHANNELS else (3 if channel in SET_CHANNELS else 1) * orders * n


def frame_shape(channel: str, n: int) -> tuple[int, ...]:
    """One frame of a block of n entities: for x_m and x_k, n rows of width(channel, 1)."""
    return (n, width(channel, 1)) if channel in SET_CHANNELS else (width(channel, n),)


def triples(channel: str, pos: np.ndarray, fps: float) -> np.ndarray:
    """A kinematics channel's block from its positions: (F, N, 3) -> (F, N, 9)
    rows of (position, velocity, acceleration) for x_m and x_k, and
    (F, n) -> (F, 3n) with (q, qd, qdd) per DoF for x_a and x_s."""
    rows = channel in SET_CHANNELS
    if pos.ndim != 2 + rows or (rows and pos.shape[-1] != width(channel, 1, 1)):
        raise HdysError(f"{channel} positions must be {'(F, N, 3)' if rows else '(F, n)'}, got {pos.shape}")
    v, a = finite_difference(pos, fps)
    if rows:
        return np.concatenate([pos, v, a], axis=-1)
    return np.stack([pos, v, a], axis=-1).reshape(pos.shape[0], -1)


def leading(channel: str, block: np.ndarray, k: int) -> np.ndarray:
    """The first k of each entity's (position, velocity, acceleration) in a
    block of `triples`' layout, any leading axes, in the block's own layout:
    k=1 gives the positions it was built from (what a record stores), k=2 the
    acceleration-free block that the forward-dynamics branch encodes."""
    if channel in SET_CHANNELS:
        return block[..., : width(channel, 1, k)]
    return block.reshape(block.shape[:-1] + (-1, 3))[..., :k].reshape(block.shape[:-1] + (-1,))


def acceleration(channel: str, block: np.ndarray) -> np.ndarray:
    """Each entity's acceleration in a block of `triples`' layout, flattened
    per frame as the acceleration heads predict it: width(channel, N, 1)
    values, entity-major for x_m and x_k."""
    if channel in SET_CHANNELS:
        acc = block[..., width(channel, 1, 2) :]
        return acc.reshape(acc.shape[:-2] + (-1,))
    return block.reshape(block.shape[:-1] + (-1, 3))[..., 2]


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
            raise HdysError("channel frame counts differ")
        if self.n_frames < 3:
            raise HdysError("sequences need at least 3 frames")
        for name in self.channels:
            if name not in CHANNELS:
                raise HdysError(f"unknown channel '{name}'")
        for name in SET_CHANNELS:
            if name in self.channels and self.channels[name].shape[-1] != width(name, 1):
                raise HdysError(f"{name} rows must be {width(name, 1)}-dim")
        for name in COORD_CHANNELS:
            if name in self.channels and self.channels[name].shape[-1] % width(name, 1) != 0:
                raise HdysError(f"{name} must hold (value, velocity, acceleration) triples")
        if "x_m" in self.channels and self.channels["x_m"].shape[1:-1] != self.marker_ids.shape:
            raise HdysError(f"x_m has shape {self.channels['x_m'].shape}, but {self.marker_ids.size} marker ids")
        if "tau_m" in self.channels:
            tm = self.channels["tau_m"]
            if (tm < -1e-9).any() or (tm > 1 + 1e-9).any():
                raise HdysError("muscle actions must lie in [0, 1]")
        if "tau_e" in self.channels and (self.channels["tau_e"] < -1e-12).any():
            raise HdysError("sEMG must be non-negative")


def build_representations(
    tree: KinematicTree,
    traj: GeneralizedState,
    marker_subset: Iterable[int],
    mask: Iterable[str],
    fps: float,
    seq_id: str = "seq",
    profile_id: str = "profile",
    jitter_sigma: float = 0.0,
    jitter_rng: Optional[np.random.Generator] = None,
) -> SequenceRecord:
    """Kinematic channels for one trajectory.

    `mask` selects which channels to emit; the generalized coordinates go to
    each coordinate channel it names (x_a for the angle tree, x_s for the
    pose tree). Cartesian jitter, when requested, lands on the positions
    before differentiation so velocity/acceleration inherit it.
    """
    mask = set(mask)
    unknown = mask.difference(KINEMATIC_CHANNELS)
    if unknown:
        raise HdysError(f"unknown kinematics channels {sorted(unknown)}")
    q = traj.q
    if q.shape[0] < 3:
        raise HdysError("trajectory must have at least 3 frames")
    channels: dict[str, np.ndarray] = {}
    marker_ids = np.asarray(sorted(marker_subset), dtype=np.int64)

    if mask.intersection(SET_CHANNELS):
        _, joints, markers = tree.forward_kinematics(q)
    if "x_m" in mask:
        if marker_ids.size == 0:
            raise HdysError("marker channel requested with an empty subset")
        if marker_ids.min() < 0 or marker_ids.max() >= tree.n_markers:
            raise HdysError("marker subset index out of range")
    for ch in KINEMATIC_CHANNELS:
        if ch in mask:
            pos = q if ch in COORD_CHANNELS else joints if ch == "x_k" else markers[:, marker_ids]
            if jitter_sigma > 0.0 and ch in SET_CHANNELS:
                pos = pos + jitter_rng.normal(0.0, jitter_sigma, size=pos.shape)
            channels[ch] = triples(ch, pos, fps)

    return SequenceRecord(
        seq_id=seq_id,
        profile_id=profile_id,
        tree_name=tree.name,
        fps=fps,
        subject_mass=tree.subject_mass,
        channels=channels,
        marker_ids=marker_ids,
    )


def attach_dynamics(
    record: SequenceRecord,
    tree: KinematicTree,
    traj: GeneralizedState,
    muscles: Optional[MuscleSet],
    kinds: Iterable[str],
    seed: int = 0,
    emg_muscles: Optional[tuple[int, ...]] = None,
) -> SequenceRecord:
    """Oracle dynamics labels for the trajectory behind a record.

    Torques come from one batched inverse-dynamics call over the oracle
    states, activations from one minimum-norm solve over the whole sequence
    (InfeasibleActivation names the first frame outside the torque
    polytope), and EMG from the activation trajectory. The record's
    availability mask is extended in place.
    """
    kinds = set(kinds)
    unknown = kinds.difference(DYNAMIC_CHANNELS)
    if unknown:
        raise HdysError(f"unknown dynamics channels {sorted(unknown)}")
    tau_act = rnea(tree, traj)

    for torque in TORQUE_CHANNELS:
        if torque in kinds:
            record.channels[torque] = tau_act
    needs_act = kinds & {"tau_m", "tau_e"}
    if needs_act:
        if muscles is None:
            raise HdysError("muscle/EMG channels need a muscle set")
        acts = solve_activations(muscles, tau_act)
        if "tau_m" in kinds:
            record.channels["tau_m"] = np.clip(acts, 0.0, 1.0)
        if "tau_e" in kinds:
            record.channels["tau_e"] = synth_emg(acts[:, list(emg_muscles)], record.fps, noise_seed=seed)
    record.validate()
    return record
