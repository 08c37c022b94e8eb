"""Synthetic domain profiles and dataset generation.

Five default profiles mirror the availability patterns of heterogeneous
motion-dynamics corpora at desk scale:

    A torque-lab   markers+keypoints+angles, angle-tree torques, T1, periodic
    B torque-sim   markers+keypoints+pose, pose-tree torques, T2, broad
                   splines, 3 mm Cartesian jitter
    C muscle-sim   markers+keypoints+pose, muscle actions, T2 + 12 muscles,
                   gentle motion that stays inside the activation polytope
    D emg          markers+keypoints, 8-channel surface EMG, T1
    E kin-only     markers+keypoints+pose, no dynamics, T2

All labels are produced by the rigid-body oracle before any noise is
injected; everything is deterministic per (seed, profile, sequence).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..codec import atomic_write
from ..kinrep import SequenceRecord, attach_dynamics, build_representations
from ..rbd import (
    T1_EMG_MUSCLES,
    T2_BIAS_POSTURE,
    GeneralizedState,
    KinematicTree,
    MuscleSet,
    build_t1,
    build_t2,
    t1_muscles,
    t2_muscles,
)
from .motion import FAMILIES, MotionSpec, sample_trajectory
from .records import DatasetError, read_record, record_path, write_record

MANIFEST_SCHEMA = "hdys-dataset/1"
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class DomainProfile:
    profile_id: str
    tree_key: str  # "t1" | "t2"
    kin_mask: tuple[str, ...]
    dyn_mask: tuple[str, ...]
    family: str
    amp_scale: tuple[float, float]
    freq_range: tuple[float, float]
    marker_counts: tuple[int, ...]
    jitter_sigma: float
    n_train: int
    n_test: int
    fps: float
    duration: tuple[float, float]

    def __post_init__(self):
        if not self.kin_mask:
            raise DatasetError(f"profile {self.profile_id}: needs at least one kinematics channel")
        if self.jitter_sigma < 0:
            raise DatasetError(f"profile {self.profile_id}: jitter sigma must be >= 0")
        if self.family not in FAMILIES:
            raise DatasetError(f"profile {self.profile_id}: unknown motion family '{self.family}'")


# -- tree registry -----------------------------------------------------------

_T1_AMP = np.concatenate(
    [
        [0.15, 0.12, 0.18],  # pelvis
        [0.45, 0.20, 0.25],  # l hip
        [0.55],  # l knee
        [0.25, 0.12, 0.10],  # l ankle
        [0.45, 0.20, 0.25],  # r hip
        [0.55],  # r knee
        [0.25, 0.12, 0.10],  # r ankle
        [0.12, 0.10, 0.15],  # torso
        [0.10, 0.08, 0.10],  # head
    ]
)

_T2_AMP_BROAD = np.full(12, 0.45)
_T2_AMP_GENTLE = np.array(
    [0.08, 0.06, 0.05, 0.04, 0.03, 0.03, 0.02, 0.02, 0.015, 0.015, 0.01, 0.01]
)


class _TreeBundle:
    def __init__(self, tree: KinematicTree, muscles: MuscleSet | None, bias, emg=None):
        self.tree = tree
        self.muscles = muscles
        self.bias = np.asarray(bias)
        self.emg = emg


_BUNDLES: dict[str, _TreeBundle] = {}


def tree_bundle(key: str) -> _TreeBundle:
    if key not in _BUNDLES:
        if key == "t1":
            _BUNDLES[key] = _TreeBundle(build_t1(), t1_muscles(), np.zeros(23), T1_EMG_MUSCLES)
        elif key == "t2":
            t2 = build_t2()
            _BUNDLES[key] = _TreeBundle(t2, t2_muscles(t2), T2_BIAS_POSTURE)
        else:
            raise DatasetError(f"unknown tree key '{key}'")
    return _BUNDLES[key]


def _amp_for(profile: DomainProfile) -> np.ndarray:
    if profile.tree_key == "t1":
        return _T1_AMP
    return _T2_AMP_GENTLE if "tau_m" in profile.dyn_mask else _T2_AMP_BROAD


def default_profiles(n_train: int = 120, n_test: int = 30, fps: float = 90.0) -> list[DomainProfile]:
    dur = (3.0, 3.0)
    counts = (12, 18)
    return [
        DomainProfile("A", "t1", ("x_m", "x_k", "x_a"), ("tau_tr",), "periodic-gait-like",
                      (0.5, 1.0), (0.3, 0.55), counts, 0.0, n_train, n_test, fps, dur),
        DomainProfile("B", "t2", ("x_m", "x_k", "x_s"), ("tau_ts",), "random-smooth-spline",
                      (0.4, 1.0), (0.2, 1.2), counts, 0.003, n_train, n_test, fps, dur),
        DomainProfile("C", "t2", ("x_m", "x_k", "x_s"), ("tau_m",), "periodic-gait-like",
                      (0.35, 0.75), (0.3, 0.55), counts, 0.0, n_train, n_test, fps, dur),
        DomainProfile("D", "t1", ("x_m", "x_k"), ("tau_e",), "periodic-gait-like",
                      (0.5, 1.0), (0.3, 0.55), counts, 0.0, n_train, n_test, fps, dur),
        DomainProfile("E", "t2", ("x_m", "x_k", "x_s"), (), "random-smooth-spline",
                      (0.4, 1.0), (0.2, 1.2), counts, 0.0, n_train, n_test, fps, dur),
    ]


@dataclass
class DatasetManifest:
    seed: int
    profiles: list[DomainProfile]
    train_ids: dict[str, list[str]] = field(default_factory=dict)
    test_ids: dict[str, list[str]] = field(default_factory=dict)
    # profile id -> the profile index its sequences were generated with; a
    # subset manifest keeps the full manifest's, so it can regenerate them
    gen_index: dict[str, int] = field(default_factory=dict)
    schema: str = MANIFEST_SCHEMA

    def __post_init__(self):
        if not self.gen_index:
            self.gen_index = {p.profile_id: i for i, p in enumerate(self.profiles)}
        if set(self.gen_index) != {p.profile_id for p in self.profiles}:
            raise DatasetError(f"manifest: gen_index {sorted(self.gen_index)} does not name its profiles")

    def profile(self, pid: str) -> DomainProfile:
        for p in self.profiles:
            if p.profile_id == pid:
                return p
        raise DatasetError(f"unknown profile '{pid}'")

    def validate_splits(self) -> None:
        for p in self.profiles:
            tr = self.train_ids.get(p.profile_id, [])
            te = self.test_ids.get(p.profile_id, [])
            overlap = set(tr) & set(te)
            if overlap:
                raise DatasetError(f"profile {p.profile_id}: train/test overlap {sorted(overlap)[:3]}")
            if len(set(tr)) != len(tr) or len(set(te)) != len(te):
                raise DatasetError(f"profile {p.profile_id}: duplicate sequence ids")

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "seed": self.seed,
            "profiles": [asdict(p) for p in self.profiles],
            "train_ids": self.train_ids,
            "test_ids": self.test_ids,
            "gen_index": self.gen_index,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DatasetManifest":
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise DatasetError(f"unsupported manifest schema {doc.get('schema')!r}")
        names = {f.name for f in fields(DomainProfile)}
        profiles = []
        for p in doc["profiles"]:
            unknown, missing = sorted(set(p) - names), sorted(names - set(p))
            if unknown or missing:
                raise DatasetError(f"manifest profile: unknown keys {unknown}, missing keys {missing}")
            p = dict(p)
            for key in ("kin_mask", "dyn_mask", "marker_counts", "amp_scale", "freq_range", "duration"):
                p[key] = tuple(p[key])
            profiles.append(DomainProfile(**p))
        m = cls(seed=doc["seed"], profiles=profiles,
                train_ids={k: list(v) for k, v in doc["train_ids"].items()},
                test_ids={k: list(v) for k, v in doc["test_ids"].items()},
                gen_index={k: int(v) for k, v in doc.get("gen_index", {}).items()})
        m.validate_splits()
        return m


def write_manifest(path, manifest: DatasetManifest) -> None:
    atomic_write(path, json.dumps(manifest.to_dict(), indent=1, sort_keys=True))


def read_manifest(path) -> DatasetManifest:
    """Parse one manifest file; unreadable or malformed content raises DatasetError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DatasetError(f"cannot read manifest {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DatasetError(f"manifest {path}: not a JSON object")
    try:
        return DatasetManifest.from_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"manifest {path}: malformed ({type(exc).__name__}: {exc})") from None


def load_manifest(root) -> DatasetManifest:
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        raise DatasetError(f"no manifest at {path}")
    return read_manifest(path)


# -- generation ---------------------------------------------------------------


def _sequence_streams(seed: int, p_idx: int, s_idx: int, attempt: int):
    """Independent RNG streams: motion, marker subset, jitter, emg noise."""
    ss = np.random.SeedSequence([seed, p_idx, s_idx, attempt])
    return [np.random.default_rng(c) for c in ss.spawn(4)]


def generate_sequence(
    manifest_seed: int,
    profile: DomainProfile,
    p_idx: int,
    s_idx: int,
    fps: float | None = None,
    max_attempts: int = 20,
) -> tuple[SequenceRecord, GeneralizedState]:
    """One fully labelled sequence; pure function of its identifiers.

    The motion parameters do not depend on fps, so the same sequence can be
    re-rendered at a different rate. A motion draw whose torques leave the
    muscle set's activation polytope is rejected and redrawn along a
    deterministic retry chain; the solve itself is never clipped.
    """
    from ..rbd import InfeasibleActivation

    last_exc: Exception | None = None
    for attempt in range(max_attempts):
        try:
            return _generate_once(manifest_seed, profile, p_idx, s_idx, fps, attempt)
        except InfeasibleActivation as exc:
            last_exc = exc
    raise DatasetError(
        f"profile {profile.profile_id} seq {s_idx}: no feasible motion draw "
        f"after {max_attempts} attempts ({last_exc})"
    )


def _generate_once(
    manifest_seed: int,
    profile: DomainProfile,
    p_idx: int,
    s_idx: int,
    fps: float | None,
    attempt: int,
) -> tuple[SequenceRecord, GeneralizedState]:
    bundle = tree_bundle(profile.tree_key)
    fps = fps or profile.fps
    rng_motion, rng_markers, rng_jitter, rng_emg = _sequence_streams(
        manifest_seed, p_idx, s_idx, attempt
    )
    duration = rng_motion.uniform(*profile.duration)
    spec = MotionSpec(
        family=profile.family,
        bias=tuple(bundle.bias),
        amp_base=tuple(_amp_for(profile)),
        amp_scale=profile.amp_scale,
        freq_range=profile.freq_range,
    )
    traj = sample_trajectory(spec, duration, fps, rng_motion)
    count = int(rng_markers.choice(np.asarray(profile.marker_counts)))
    subset = rng_markers.choice(bundle.tree.n_markers, size=count, replace=False)
    angle_channel = "x_a" if profile.tree_key == "t1" else "x_s"
    seq_id = f"{profile.profile_id}{s_idx:04d}"
    rec = build_representations(
        bundle.tree,
        traj,
        subset,
        profile.kin_mask,
        fps,
        seq_id=seq_id,
        profile_id=profile.profile_id,
        angle_channel=angle_channel,
        jitter_sigma=profile.jitter_sigma,
        jitter_rng=rng_jitter,
    )
    if profile.dyn_mask:
        torque_channel = "tau_tr" if profile.tree_key == "t1" else "tau_ts"
        attach_dynamics(
            rec,
            bundle.tree,
            traj,
            bundle.muscles,
            profile.dyn_mask,
            seed=int(rng_emg.integers(2**31)),
            torque_channel=torque_channel,
            emg_muscles=bundle.emg,
        )
    return rec, traj


def generate_dataset(root, manifest: DatasetManifest, verbose: bool = False) -> DatasetManifest:
    """Write every profile's sequences under `root` and the manifest beside them."""
    os.makedirs(root, exist_ok=True)
    for profile in manifest.profiles:
        p_idx = manifest.gen_index[profile.profile_id]
        os.makedirs(os.path.join(root, profile.profile_id), exist_ok=True)
        train, test = [], []
        total = profile.n_train + profile.n_test
        for s_idx in range(total):
            rec, _ = generate_sequence(manifest.seed, profile, p_idx, s_idx)
            write_record(record_path(root, profile.profile_id, rec.seq_id), rec)
            (train if s_idx < profile.n_train else test).append(rec.seq_id)
        manifest.train_ids[profile.profile_id] = train
        manifest.test_ids[profile.profile_id] = test
        if verbose:
            print(f"profile {profile.profile_id}: {len(train)} train / {len(test)} test sequences")
    manifest.validate_splits()
    write_manifest(os.path.join(root, MANIFEST_NAME), manifest)
    return manifest


def load_records(root, profile_id: str, ids) -> list[SequenceRecord]:
    out = []
    for sid in ids:
        rec = read_record(record_path(root, profile_id, sid))
        if rec.profile_id != profile_id:
            raise DatasetError(f"record {sid} belongs to profile {rec.profile_id}")
        out.append(rec)
    return out


def restrict_profiles(manifest: DatasetManifest, keep: list[str]) -> DatasetManifest:
    """Manifest view over a subset of profiles (sequence files unchanged)."""
    missing = [k for k in keep if k not in {p.profile_id for p in manifest.profiles}]
    if missing:
        raise DatasetError(f"unknown profiles {missing}")
    return DatasetManifest(
        seed=manifest.seed,
        profiles=[p for p in manifest.profiles if p.profile_id in keep],
        train_ids={k: list(v) for k, v in manifest.train_ids.items() if k in keep},
        test_ids={k: list(v) for k, v in manifest.test_ids.items() if k in keep},
        gen_index={k: v for k, v in manifest.gen_index.items() if k in keep},
    )
