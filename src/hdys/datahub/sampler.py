"""Balanced per-profile epoch sampling and training-set subsetting."""

from __future__ import annotations

import math

import numpy as np

from .profiles import DatasetManifest, DatasetError


def balanced_epoch_sampler(
    manifest: DatasetManifest, per_profile_quota: int, seed: int, epoch: int
) -> list[tuple[str, str]]:
    """Exactly `quota` (profile_id, seq_id) draws per enabled profile.

    Profiles with at least `quota` training sequences are sampled without
    replacement; smaller profiles are cycled through reshuffled copies so
    every sequence appears at least floor(quota/n) times. Deterministic per
    (seed, epoch).
    """
    if per_profile_quota <= 0:
        raise DatasetError("quota must be positive")
    out: list[tuple[str, str]] = []
    for p_idx, profile in enumerate(manifest.profiles):
        ids = manifest.train_ids.get(profile.profile_id, [])
        if not ids:
            raise DatasetError(f"profile {profile.profile_id} has no training sequences")
        rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, p_idx]))
        n = len(ids)
        if n >= per_profile_quota:
            chosen = rng.permutation(n)[:per_profile_quota]
        else:
            reps = math.ceil(per_profile_quota / n)
            chosen = np.concatenate([rng.permutation(n) for _ in range(reps)])[:per_profile_quota]
        out.extend((profile.profile_id, ids[i]) for i in chosen)
    return out


def subset_dataset(manifest: DatasetManifest, fractions: dict[str, float]) -> DatasetManifest:
    """Deterministic per-profile subsampling of the training split.

    Profiles missing from `fractions` are dropped entirely; fractions must
    lie in (0, 1] and must keep at least one sequence. Test splits are
    preserved for the retained profiles.
    """
    keep = list(fractions)
    missing = [k for k in keep if k not in {p.profile_id for p in manifest.profiles}]
    if missing:
        raise DatasetError(f"unknown profiles {missing}")
    new_train: dict[str, list[str]] = {}
    for p_idx, profile in enumerate(manifest.profiles):
        pid = profile.profile_id
        if pid not in fractions:
            continue
        f = fractions[pid]
        if not (0.0 < f <= 1.0):
            raise DatasetError(f"profile {pid}: fraction {f} outside (0, 1]")
        ids = manifest.train_ids.get(pid, [])
        n_keep = int(round(f * len(ids)))
        if n_keep == 0:
            raise DatasetError(f"profile {pid}: fraction {f} keeps zero sequences")
        rng = np.random.default_rng(np.random.SeedSequence([manifest.seed, 7_777, p_idx]))
        order = rng.permutation(len(ids))[:n_keep]
        new_train[pid] = [ids[i] for i in sorted(order)]
    return DatasetManifest(
        seed=manifest.seed,
        profiles=[p for p in manifest.profiles if p.profile_id in fractions],
        train_ids=new_train,
        test_ids={k: list(v) for k, v in manifest.test_ids.items() if k in fractions},
        gen_index={k: v for k, v in manifest.gen_index.items() if k in fractions},
    )


def restrict_profiles(manifest: DatasetManifest, keep: list[str]) -> DatasetManifest:
    """Manifest over a subset of profiles with all their training sequences."""
    return subset_dataset(manifest, dict.fromkeys(keep, 1.0))


def fifty_fifty(manifest: DatasetManifest, target: str) -> DatasetManifest:
    """Half the target plus other profiles proportionally filled to the same volume.

    The non-target profiles together contribute round(0.5 * |target|)
    sequences, split proportionally to their full training sizes.
    """
    pids = [p.profile_id for p in manifest.profiles]
    if target not in pids:
        raise DatasetError(f"unknown target profile '{target}'")
    n_target = len(manifest.train_ids[target])
    others = [p for p in pids if p != target]
    total_other = sum(len(manifest.train_ids[p]) for p in others)
    budget = 0.5 * n_target
    fractions = {target: 0.5}
    for p in others:
        n = len(manifest.train_ids[p])
        share = budget * n / total_other
        frac = min(1.0, share / n) if n else 0.0
        if frac > 0.0 and round(frac * n) > 0:
            fractions[p] = frac
    return subset_dataset(manifest, fractions)
