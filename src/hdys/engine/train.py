"""Seeded training loop: balanced sampling, window batches, AdamW."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..datahub import DatasetManifest, balanced_epoch_sampler, load_records
from ..model import ChannelInventory, HDySConfig, HDySModel, config_hash, total_loss
from ..numcore import AdamWState, NonFiniteError, adamw_step, backward, load_checkpoint, save_checkpoint
from .batching import Standardizer, WindowRef, build_groups
from .report import write_csv, write_json


class TrainError(Exception):
    pass


@dataclass
class TrainResult:
    checkpoint_path: str
    curve: list[dict]
    model: HDySModel
    stdizer: Standardizer
    param_count: int


@dataclass
class RecordCache:
    """Train/test records for one dataset root, loaded once."""

    root: str
    manifest: DatasetManifest
    train: dict[tuple[str, str], object] = field(default_factory=dict)
    test: dict[tuple[str, str], object] = field(default_factory=dict)

    @classmethod
    def load(cls, root: str, manifest: DatasetManifest) -> "RecordCache":
        cache = cls(root=root, manifest=manifest)
        for p in manifest.profiles:
            pid = p.profile_id
            for rec in load_records(root, manifest, pid, manifest.train_ids.get(pid, [])):
                cache.train[(pid, rec.seq_id)] = rec
            for rec in load_records(root, manifest, pid, manifest.test_ids.get(pid, [])):
                cache.test[(pid, rec.seq_id)] = rec
        return cache


def _profile_tree(manifest: DatasetManifest) -> dict[str, str]:
    return {p.profile_id: p.tree_key for p in manifest.profiles}


def train(
    cfg: HDySConfig,
    cache: RecordCache,
    out_dir: str,
    seed: int | None = None,
    log=None,
) -> TrainResult:
    """Train from scratch; deterministic per (config, dataset, seed).

    Per epoch: one balanced draw of sequences, one random window per draw,
    shuffled into fixed-size frame batches, one optimizer step per batch.
    Zero epochs saves the untouched initialization. Beside `model.ckpt`,
    `meta.json` records the config hash, the effective seed, the parameter
    count and the wall time, so no other artifact carries a clock reading.
    """
    t_begin = time.time()
    manifest = cache.manifest
    seed = cfg.train.seed if seed is None else seed
    window = cfg.model.window
    os.makedirs(out_dir, exist_ok=True)

    train_records = cache.train
    if not train_records:
        raise TrainError("no training records")
    for (pid, sid), rec in train_records.items():
        if rec.n_frames < window:
            raise TrainError(f"sequence {sid} shorter than one window")

    stdizer = Standardizer.fit(list(train_records.values()))
    inventory = ChannelInventory.from_manifest(manifest)
    model = HDySModel(cfg.model, inventory, seed=seed)
    opt = AdamWState(
        lr=cfg.train.lr,
        weight_decay=cfg.train.weight_decay,
        beta1=cfg.train.beta1,
        beta2=cfg.train.beta2,
        eps=cfg.train.eps,
    )
    params = model.ps.params
    tree_of = _profile_tree(manifest)
    windows_per_batch = max(1, cfg.train.frames_per_batch // window)

    curve: list[dict] = []
    for epoch in range(cfg.train.epochs):
        draws = balanced_epoch_sampler(manifest, cfg.train.quota, seed, epoch)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB17, epoch]))
        refs = []
        for pid, sid in draws:
            rec = train_records[(pid, sid)]
            hi = rec.n_frames - window + 1
            for _ in range(cfg.train.windows_per_sequence):
                refs.append(WindowRef(pid, sid, int(rng.integers(0, hi))))
        order = rng.permutation(len(refs))
        refs = [refs[i] for i in order]

        sums = {"recon": 0.0, "align": 0.0, "total": 0.0}
        n_batches = 0
        for lo in range(0, len(refs), windows_per_batch):
            chunk = refs[lo : lo + windows_per_batch]
            groups = build_groups(
                train_records, chunk, window, stdizer, tree_of,
                exclude_boundary=cfg.model.exclude_boundary_frames,
                marker_rng=rng,
            )
            outputs = [model.forward_group(g) for g in groups]
            try:
                loss, bd = total_loss(cfg.model, outputs)
            except NonFiniteError as exc:
                raise TrainError(f"non-finite loss at epoch {epoch}, batch {n_batches}: {exc}")
            named = list(params.items())
            grads_list = backward(loss, [p for _, p in named])
            grads = {name: g for (name, _), g in zip(named, grads_list)}
            adamw_step(opt, params, grads, grad_clip=cfg.train.grad_clip)
            sums["recon"] += bd.recon
            sums["align"] += bd.align
            sums["total"] += bd.total
            n_batches += 1
        row = {
            "epoch": epoch,
            "recon": sums["recon"] / max(n_batches, 1),
            "align": sums["align"] / max(n_batches, 1),
            "total": sums["total"] / max(n_batches, 1),
        }
        curve.append(row)
        if log and (epoch % 20 == 0 or epoch == cfg.train.epochs - 1):
            log(f"epoch {epoch:4d}  recon {row['recon']:.4f}  align {row['align']:.4f}")

    ckpt_path = os.path.join(out_dir, "model.ckpt")
    arrays = dict(model.ps.arrays())
    arrays.update(stdizer.to_arrays())
    save_checkpoint(ckpt_path, arrays, opt)
    write_csv(os.path.join(out_dir, "loss_curve.csv"), ["epoch", "recon", "align", "total"], curve)
    write_json(
        os.path.join(out_dir, "meta.json"),
        {
            "config_hash": config_hash(cfg),
            "seed": seed,
            "param_count": model.param_count(),
            "seconds": round(time.time() - t_begin, 2),
        },
    )
    return TrainResult(
        checkpoint_path=ckpt_path,
        curve=curve,
        model=model,
        stdizer=stdizer,
        param_count=model.param_count(),
    )


def load_model(cfg: HDySConfig, manifest: DatasetManifest, ckpt_path: str) -> tuple[HDySModel, Standardizer, AdamWState]:
    """Rebuild a model and its normalization from a checkpoint file."""
    arrays, opt = load_checkpoint(ckpt_path)
    inventory = ChannelInventory.from_manifest(manifest)
    model = HDySModel(cfg.model, inventory, seed=0)
    model.ps.load_arrays({k: v for k, v in arrays.items() if not k.startswith("norm.")})
    stdizer = Standardizer.from_arrays(arrays)
    return model, stdizer, opt
