"""Channel standardization and window/group assembly for training and eval."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kinrep import SequenceRecord
from ..model import WindowGroup
from ..numcore import CheckpointError


class BatchingError(Exception):
    pass


@dataclass
class Standardizer:
    """Per-channel, per-component affine normalization fitted on a train split.

    Cartesian channels pool statistics over entities (one mean/std per column
    of the 9-dim rows); coordinate and dynamics channels keep one statistic
    per component. Applied before batching; inverted for reporting.
    """

    stats: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def fit(cls, records: list[SequenceRecord]) -> "Standardizer":
        pools: dict[str, list[np.ndarray]] = {}
        for rec in records:
            for ch, arr in rec.channels.items():
                pools.setdefault(ch, []).append(
                    arr.reshape(-1, arr.shape[-1]) if arr.ndim == 3 else arr
                )
        stats = {}
        for ch, parts in pools.items():
            flat = np.concatenate(parts, axis=0)
            mean = flat.mean(axis=0)
            std = np.maximum(flat.std(axis=0), 1e-8)
            stats[ch] = (mean, std)
        return cls(stats)

    def apply(self, channel: str, arr: np.ndarray) -> np.ndarray:
        if channel not in self.stats:
            raise BatchingError(f"no statistics for channel '{channel}'")
        mean, std = self.stats[channel]
        return (arr - mean) / std

    def invert(self, channel: str, arr: np.ndarray) -> np.ndarray:
        mean, std = self.stats[channel]
        return arr * std + mean

    def to_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for ch, (mean, std) in self.stats.items():
            out[f"norm.{ch}.mean"] = mean
            out[f"norm.{ch}.std"] = std
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "Standardizer":
        stats = {}
        for name, arr in arrays.items():
            if name.startswith("norm.") and name.endswith(".mean"):
                ch = name[len("norm.") : -len(".mean")]
                if f"norm.{ch}.std" not in arrays:
                    raise CheckpointError(f"checkpoint has {name} but no norm.{ch}.std")
                stats[ch] = (arr, arrays[f"norm.{ch}.std"])
        return cls(stats)


@dataclass(frozen=True)
class WindowRef:
    profile_id: str
    seq_id: str
    start: int


def build_groups(
    records: dict[tuple[str, str], SequenceRecord],
    refs: list[WindowRef],
    window: int,
    stdizer: Standardizer,
    profile_tree: dict[str, str],
    marker_rng: np.random.Generator | None = None,
) -> list[WindowGroup]:
    """Stack windows into groups keyed by (profile, availability, marker count).

    With `marker_rng` given (training), every window's marker set is first
    subsampled to the smallest count in its profile bucket, which collapses
    the per-sequence size variation into one group per profile and batch.
    Without it (evaluation), sizes are kept and group per count. Window
    weights are 0 on a sequence's first and last frame; only the loss reads
    them.
    """
    buckets: dict[tuple, list[WindowRef]] = {}
    for ref in refs:
        rec = records[(ref.profile_id, ref.seq_id)]
        key = (ref.profile_id, tuple(sorted(rec.mask)))
        if marker_rng is None:
            key = key + (rec.marker_ids.size,)
        buckets.setdefault(key, []).append(ref)
    groups = []
    for key, bucket in sorted(buckets.items()):
        pid, mask = key[0], key[1]
        cap = None
        if marker_rng is not None and "x_m" in mask:
            cap = min(records[(pid, r.seq_id)].marker_ids.size for r in bucket)
        xs: dict[str, list[np.ndarray]] = {ch: [] for ch in mask}
        weights = []
        for ref in bucket:
            rec = records[(pid, ref.seq_id)]
            t0 = ref.start
            if t0 < 0 or t0 + window > rec.n_frames:
                raise BatchingError(f"window [{t0}, {t0 + window}) out of range for {ref.seq_id}")
            for ch in mask:
                block = rec.channels[ch][t0 : t0 + window]
                if ch == "x_m":
                    if cap is not None and block.shape[1] > cap:
                        rows = np.sort(marker_rng.choice(block.shape[1], size=cap, replace=False))
                        block = block[:, rows]
                xs[ch].append(stdizer.apply(ch, block))
            w = np.ones(window)
            if t0 == 0:
                w[0] = 0.0
            if t0 + window == rec.n_frames:
                w[-1] = 0.0
            weights.append(w)
        groups.append(
            WindowGroup(
                profile_id=pid,
                tree_key=profile_tree[pid],
                x={ch: np.stack(v) for ch, v in xs.items()},
                weight=np.stack(weights),
            )
        )
    return groups


def tiling_starts(n_frames: int, window: int) -> list[int]:
    """Non-overlapping covers plus an end-aligned tail window."""
    starts = list(range(0, n_frames - window + 1, window))
    tail = n_frames - window
    if starts[-1] != tail:
        starts.append(tail)
    return starts
