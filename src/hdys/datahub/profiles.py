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
import math
import os
import shutil
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator

import numpy as np

from ..codec import atomic_write
from ..kinrep import SequenceRecord, attach_dynamics, build_representations, frame_shape
from ..rbd import (
    T1_EMG_MUSCLES,
    T2_BIAS_POSTURE,
    GeneralizedState,
    InfeasibleActivation,
    KinematicTree,
    MuscleSet,
    build_t1,
    build_t2,
    t1_muscles,
    t2_muscles,
)
from .motion import FAMILIES, frame_count, sample_trajectory
from .records import DatasetError, read_record, record_path, write_record

MANIFEST_SCHEMA = "hdys-dataset/1"
MANIFEST_NAME = "manifest.json"
MAX_ATTEMPTS = 20  # motion draws per sequence before its generation fails


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
        try:
            own = tree_bundle(self.tree_key).channels
        except DatasetError as exc:
            raise DatasetError(f"profile {self.profile_id}: {exc}") from None
        foreign = [c for c in self.kin_mask + self.dyn_mask if c not in own]
        if foreign:
            raise DatasetError(f"profile {self.profile_id}: tree {self.tree_key} has no {', '.join(foreign)} channel")
        if self.jitter_sigma < 0:
            raise DatasetError(f"profile {self.profile_id}: jitter sigma must be >= 0")
        if self.family not in FAMILIES:
            raise DatasetError(f"profile {self.profile_id}: unknown motion family '{self.family}'")
        if not 0.0 < self.fps < np.inf:
            raise DatasetError(f"profile {self.profile_id}: fps must be positive and finite, got {self.fps}")
        self.require_frames(self.fps, 3)  # finite differences need three frames
        if self.n_train < 0 or self.n_test < 0:
            raise DatasetError(f"profile {self.profile_id}: n_train {self.n_train} and n_test {self.n_test} must be >= 0")

    def require_frames(self, fps: float, need: int, why: str = "") -> None:
        """Raise DatasetError unless the shortest sequence has at least `need`
        frames at `fps`; the message names the lowest rate that has them,
        rounded up to 0.001 fps."""
        shortest = min(self.duration)
        if frame_count(shortest, fps) >= need:
            return
        lowest = math.ceil((need - 1.5) / shortest * 1000) / 1000
        while frame_count(shortest, lowest) < need:  # round() takes a tie to the even count
            lowest += 0.001
        raise DatasetError(f"profile {self.profile_id}: at {fps:g} fps its shortest sequence ({shortest} s) has "
                           f"{frame_count(shortest, fps)} frames, fewer than {need}{why}; "
                           f"the lowest rate that works is {lowest:g} fps")


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
    def __init__(self, tree: KinematicTree, muscles: MuscleSet, coord: str, torque: str, bias=None, emg=None):
        self.tree = tree
        self.muscles = muscles
        self.bias = np.zeros(tree.n_dof) if bias is None else np.asarray(bias)
        self.emg = emg
        # each channel the tree carries -> entities per frame: marker sites, links, DoF, muscles or EMG channels
        self.channels = {"x_m": tree.n_markers, "x_k": tree.n_links, coord: tree.n_dof, torque: tree.n_dof,
                         "tau_m": muscles.n_muscles, **({} if emg is None else {"tau_e": len(emg)})}


_BUNDLES: dict[str, _TreeBundle] = {}


def tree_bundle(key: str) -> _TreeBundle:
    if key not in _BUNDLES:
        if key == "t1":
            _BUNDLES[key] = _TreeBundle(build_t1(), t1_muscles(), "x_a", "tau_tr", emg=T1_EMG_MUSCLES)
        elif key == "t2":
            t2 = build_t2()
            _BUNDLES[key] = _TreeBundle(t2, t2_muscles(t2), "x_s", "tau_ts", T2_BIAS_POSTURE)
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
            "schema": MANIFEST_SCHEMA,
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
        if type(doc["seed"]) is not int:  # bool is an int subclass, so isinstance would pass True
            raise DatasetError(f"manifest: seed must be an integer, got {doc['seed']!r}")
        if doc["seed"] < 0:
            raise DatasetError(f"manifest: seed must be >= 0, got {doc['seed']}")
        gen_index = doc.get("gen_index", {})
        if any(type(v) is not int for v in gen_index.values()):
            raise DatasetError(f"manifest: gen_index values must be integers, got {gen_index!r}")
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
        pids = sorted(p.profile_id for p in profiles)
        if sorted(doc["train_ids"]) != pids or sorted(doc["test_ids"]) != pids:
            raise DatasetError(f"manifest: train_ids and test_ids must name exactly its profiles {pids}")
        m = cls(seed=doc["seed"], profiles=profiles,
                train_ids={k: list(v) for k, v in doc["train_ids"].items()},
                test_ids={k: list(v) for k, v in doc["test_ids"].items()},
                gen_index=gen_index)
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
) -> tuple[SequenceRecord, GeneralizedState]:
    """One fully labelled sequence; pure function of its identifiers.

    The motion parameters do not depend on fps, so the same sequence can be
    re-rendered at a different rate. A motion draw whose torques leave the
    muscle set's activation polytope is rejected and redrawn along a
    deterministic retry chain; the solve itself is never clipped.
    """
    last_exc: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            return _generate_once(manifest_seed, profile, p_idx, s_idx, fps, attempt)
        except InfeasibleActivation as exc:
            last_exc = exc
    raise DatasetError(
        f"profile {profile.profile_id} seq {s_idx}: no feasible motion draw "
        f"after {MAX_ATTEMPTS} attempts ({last_exc})"
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
    traj = sample_trajectory(profile, bundle.bias, _amp_for(profile), duration, fps, rng_motion)
    count = int(rng_markers.choice(np.asarray(profile.marker_counts)))
    subset = rng_markers.choice(bundle.tree.n_markers, size=count, replace=False)
    seq_id = f"{profile.profile_id}{s_idx:04d}"
    rec = build_representations(
        bundle.tree,
        traj,
        subset,
        profile.kin_mask,
        fps,
        seq_id=seq_id,
        profile_id=profile.profile_id,
        jitter_sigma=profile.jitter_sigma,
        jitter_rng=rng_jitter,
    )
    if profile.dyn_mask:
        attach_dynamics(
            rec,
            bundle.tree,
            traj,
            bundle.muscles,
            profile.dyn_mask,
            seed=int(rng_emg.integers(2**31)),
            emg_muscles=bundle.emg,
        )
    return rec, traj


def generate_dataset(root, manifest: DatasetManifest, verbose: bool = False) -> DatasetManifest:
    """Write every profile's sequences and the manifest into a sibling
    directory, then rename it onto `root`: a dataset appears whole or not at
    all. `root` must be missing or an empty directory."""
    root = os.path.normpath(root)
    if os.path.exists(root) and not (os.path.isdir(root) and not os.listdir(root)):
        raise DatasetError(f"{root} exists and is not an empty directory; generate into a new one")
    tmp = f"{root}.{os.getpid()}.partial"
    os.makedirs(tmp)
    try:
        for profile in manifest.profiles:
            p_idx = manifest.gen_index[profile.profile_id]
            os.mkdir(os.path.join(tmp, profile.profile_id))
            train, test = [], []
            total = profile.n_train + profile.n_test
            for s_idx in range(total):
                rec, _ = generate_sequence(manifest.seed, profile, p_idx, s_idx)
                write_record(record_path(tmp, profile.profile_id, rec.seq_id), rec)
                (train if s_idx < profile.n_train else test).append(rec.seq_id)
            manifest.train_ids[profile.profile_id] = train
            manifest.test_ids[profile.profile_id] = test
            if verbose:
                print(f"profile {profile.profile_id}: {len(train)} train / {len(test)} test sequences")
        manifest.validate_splits()
        write_manifest(os.path.join(tmp, MANIFEST_NAME), manifest)
        os.replace(tmp, root)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return manifest


def load_records(root, profile: DomainProfile, ids) -> Iterator[SequenceRecord]:
    """The records `ids` of `profile`, read one at a time; each must carry its
    manifest id, exactly the profile's channels, the profile's fps, and its
    tree's name, subject mass, channel shapes and marker sites."""
    pid = profile.profile_id
    channels = sorted(profile.kin_mask + profile.dyn_mask)
    bundle = tree_bundle(profile.tree_key)
    expected = {"fps": profile.fps, "tree_name": bundle.tree.name, "subject_mass": bundle.tree.subject_mass}
    for sid in ids:
        path = record_path(root, pid, sid)
        rec = read_record(path)
        if rec.seq_id != sid:
            raise DatasetError(f"{path} holds record {rec.seq_id}, but the manifest lists it as {sid}")
        if rec.profile_id != pid:
            raise DatasetError(f"record {sid} belongs to profile {rec.profile_id}")
        if sorted(rec.mask) != channels:
            msg = f"record {pid}/{sid} has channels {sorted(rec.mask)}"
            raise DatasetError(f"{msg}, but profile {pid}'s kin_mask + dyn_mask is {channels}")
        for name, want in expected.items():
            if getattr(rec, name) != want:
                raise DatasetError(f"record {pid}/{sid} has {name} {getattr(rec, name)!r}, but profile {pid} has {want!r}")
        ids = rec.marker_ids
        if ids.size and not 0 <= ids.min() <= ids.max() < bundle.channels["x_m"]:
            raise DatasetError(f"record {pid}/{sid}: x_m marker ids span {ids.min()}..{ids.max()}, "
                               f"but tree {profile.tree_key} has marker sites 0..{bundle.channels['x_m'] - 1}")
        for name, block in rec.channels.items():
            want = block.shape[:1] + frame_shape(name, ids.size if name == "x_m" else bundle.channels[name])
            if block.shape != want:
                raise DatasetError(f"record {pid}/{sid}: {name} has shape {block.shape}, but tree {profile.tree_key} gives it {want}")
        yield rec
        del rec  # so a caller that keeps no record holds one at a time
