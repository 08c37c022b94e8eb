"""Seeded training loop: balanced sampling, window batches, AdamW."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .. import HdysError
from ..datahub import DatasetManifest, balanced_epoch_sampler, load_records, read_manifest
from ..model import (
    ChannelInventory,
    ConfigError,
    HDySConfig,
    HDySModel,
    Normalisers,
    config_hash,
    load_config,
    network,
    total_loss,
)
from ..numcore import AdamWState, GraphError, NonFiniteError, Tensor, adamw_step, backward, load_checkpoint, save_checkpoint
from .batching import Standardizer, WindowRef, build_groups
from .report import RUN_MANIFEST, freeze_run, write_csv, write_json
from .rollout import check_grid

WEIGHT_DECAY = 0.01  # AdamW's decoupled weight decay


class TrainError(HdysError):
    pass


@dataclass
class TrainResult:
    checkpoint_path: str
    curve: list[dict]
    model: HDySModel
    stdizer: Standardizer


@dataclass
class RecordCache:
    """Train/test records for one dataset root, loaded once."""

    manifest: DatasetManifest
    train: dict[tuple[str, str], object] = field(default_factory=dict)
    test: dict[tuple[str, str], object] = field(default_factory=dict)

    @classmethod
    def load(
        cls, root: str, manifest: DatasetManifest, splits: tuple[str, ...] = ("train", "test")
    ) -> "RecordCache":
        """Read the records of `splits` ("train", "test") of every profile."""
        cache = cls(manifest=manifest)
        ids = {"train": manifest.train_ids, "test": manifest.test_ids}
        for split in splits:
            records = getattr(cache, split)
            for p in manifest.profiles:
                for rec in load_records(root, p, ids[split].get(p.profile_id, [])):
                    records[(p.profile_id, rec.seq_id)] = rec
        return cache


def group_backward(loss: Tensor, leaves: list[Tensor], cuts: list[tuple[Tensor, Tensor]]) -> list[np.ndarray | None]:
    """`backward(loss, leaves)` for a loss whose graph `forward_group` cut at
    its encoders (`GroupOutput.cuts`; with no cut it is that call). One pass
    runs from the loss to the leaves and the cut leaves; then each encoder's
    graph runs its own pass from its output, seeded with its leaf's
    gradient, on `run_shared`'s threads. An encoder's graph is reached only
    through its output, so each pass visits its nodes in the order one pass
    from the loss would, and every gradient keeps its bits.

    A leaf that the pass from the loss and an encoder's pass both reach is a
    `GraphError`. One group's encoders share no parameter, so a parameter
    that several encoder passes reach comes from cuts of several groups
    joined in one loss; those gradients add in cut order."""
    grads = backward(loss, leaves + [leaf for _, leaf in cuts])
    grads, seeds = grads[: len(leaves)], grads[len(leaves) :]
    from_loss = [g is not None for g in grads]
    passes = [partial(backward, z, leaves, g) for (z, _), g in zip(cuts, seeds) if g is not None]
    for part in network.run_shared(passes):
        for i, g in enumerate(part):
            if g is None:
                continue
            if from_loss[i]:
                raise GraphError(f"leaf {i} gets a gradient from the loss and from an encoder's pass")
            grads[i] = g if grads[i] is None else grads[i] + g
    return grads


def _epoch_row(epoch: int, steps: list[dict]) -> dict:
    """Each value's mean over the epoch's steps that report it."""
    row = {"epoch": epoch}
    for key in dict.fromkeys(k for step in steps for k in step):
        values = [step[key] for step in steps if key in step]
        row[key] = sum(values) / len(values)
    return row


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
    Zero epochs saves the untouched initialization.

    `out_dir` becomes a run directory that `load_run` reads back. Nothing is
    written for records shorter than a window or a `cfg.rollout` grid that
    the manifest's sequences cannot run (`check_grid`). Before the first
    step `freeze_run` writes the effective config (seed included), the
    manifest trained on and `provenance.json`; after the last come
    `model.ckpt`, `loss_curve.csv` and `meta.json`. `meta.json` records the
    config hash, the seed, the parameter count, the encoder thread count
    and the wall time, so no other artifact carries a clock reading or
    depends on the machine.
    """
    t_begin = time.time()
    manifest = cache.manifest
    seed = cfg.train.seed if seed is None else seed
    cfg = replace(cfg, train=replace(cfg.train, seed=seed))
    window = cfg.model.window

    train_records = cache.train
    if not train_records:
        raise TrainError("no training records")
    for (pid, sid), rec in train_records.items():
        if rec.n_frames < window:
            raise TrainError(f"sequence {sid} shorter than one window")
    check_grid(cfg, manifest)  # a run that trains can roll out
    freeze_run(out_dir, cfg, manifest, [seed])

    stdizer = Standardizer.fit(list(train_records.values()))
    inventory = ChannelInventory.from_manifest(manifest)
    model = HDySModel(cfg.model, inventory, seed=seed)
    opt = AdamWState(lr=cfg.train.lr, weight_decay=WEIGHT_DECAY)
    params = model.ps.params
    windows_per_batch = cfg.train.frames_per_batch // window

    names = list(params)
    leaves = list(params.values())
    curve: list[dict] = []
    for epoch in range(cfg.train.epochs):
        draws = balanced_epoch_sampler(manifest, cfg.train.quota, seed, epoch)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB17, epoch]))
        refs = []
        for pid, sid in draws:
            rec = train_records[(pid, sid)]
            refs.append(WindowRef(pid, sid, int(rng.integers(0, rec.n_frames - window + 1))))
        order = rng.permutation(len(refs))
        refs = [refs[i] for i in order]

        steps: list[dict] = []
        for lo in range(0, len(refs), windows_per_batch):
            chunk = refs[lo : lo + windows_per_batch]
            groups = build_groups(train_records, chunk, window, stdizer, marker_rng=rng)
            norm = Normalisers.of_groups(cfg.model, groups)
            terms: dict[str, float] = {}
            grads: dict[str, np.ndarray] = {}
            # One group at a time: its activations and graph are freed by its
            # backward pass, so peak memory follows the largest group.
            for group in groups:
                out = model.forward_group(group)
                try:
                    loss, part = total_loss(cfg.model, out, norm)
                except NonFiniteError as exc:
                    raise TrainError(f"non-finite loss at epoch {epoch}, batch {len(steps)}: {exc}")
                cuts = out.cuts
                del out
                for key, value in part.items():
                    terms[key] = terms.get(key, 0.0) + value
                if loss is None:
                    continue
                if not np.isfinite(loss.data).all():
                    raise TrainError(f"non-finite loss at epoch {epoch}, batch {len(steps)}")
                for name, g in zip(names, group_backward(loss, leaves, cuts)):
                    if g is None:
                        continue
                    if name in grads:
                        grads[name] += g
                    else:
                        grads[name] = g
            # parameter order, so grad_norm sums its terms in a fixed order;
            # zeros only for what no group of the batch reached
            grads = {name: grads[name] if name in grads else np.zeros_like(p.data) for name, p in params.items()}
            for name, g in grads.items():
                if not np.isfinite(g).all():
                    raise TrainError(f"non-finite gradient of '{name}' at epoch {epoch}, batch {len(steps)}")
            adamw_step(opt, params, grads)
            # numpy's own pairwise sum, not a BLAS dot, so the thread count cannot round it
            grad_norm = math.sqrt(sum(float(np.square(g).sum()) for g in grads.values()))
            steps.append(
                {"recon": terms["recon"], "align": terms["align"], "total": terms["total"], "grad_norm": grad_norm}
                | {k: v for k, v in sorted(terms.items()) if k.startswith("recon_")}
            )
        curve.append(_epoch_row(epoch, steps))
        if log and (epoch % 20 == 0 or epoch == cfg.train.epochs - 1):
            row = curve[-1]
            log(f"epoch {epoch:4d}  recon {row['recon']:.4f}  align {row['align']:.4f}")

    ckpt_path = os.path.join(out_dir, "model.ckpt")
    arrays = dict(model.ps.arrays())
    arrays.update(stdizer.to_arrays())
    save_checkpoint(ckpt_path, arrays, opt)
    targets = sorted({key for row in curve for key in row if key.startswith("recon_")})
    columns = ["epoch", "recon", "align", "total", "grad_norm"] + targets
    write_csv(os.path.join(out_dir, "loss_curve.csv"), columns, curve)
    write_json(
        os.path.join(out_dir, "meta.json"),
        {
            "config_hash": config_hash(cfg),
            "seed": seed,
            "param_count": model.param_count(),
            "encoder_threads": network.ENCODER_THREADS,
            "seconds": round(time.time() - t_begin, 2),
        },
    )
    return TrainResult(checkpoint_path=ckpt_path, curve=curve, model=model, stdizer=stdizer)


def load_model(cfg: HDySConfig, manifest: DatasetManifest, ckpt_path: str) -> tuple[HDySModel, Standardizer, AdamWState]:
    """Rebuild a model and its normalization from a checkpoint file."""
    arrays, opt = load_checkpoint(ckpt_path)
    inventory = ChannelInventory.from_manifest(manifest)
    model = HDySModel(cfg.model, inventory, seed=0)
    model.ps.load_arrays({k: v for k, v in arrays.items() if not k.startswith("norm.")})
    stdizer = Standardizer.from_arrays(arrays)
    return model, stdizer, opt


def load_run(run_dir: str) -> tuple[HDySConfig, DatasetManifest, HDySModel, Standardizer]:
    """Config, manifest, model and normalization of a run directory `train` finished."""
    names = ("config.txt", RUN_MANIFEST, "model.ckpt")
    missing = [n for n in names if not os.path.exists(os.path.join(run_dir, n))]
    if missing:
        raise TrainError(f"{run_dir} is not a finished run directory (missing {', '.join(missing)})")
    cfg_path, manifest_path, ckpt_path = (os.path.join(run_dir, n) for n in names)
    try:
        cfg = load_config(cfg_path)
    except ConfigError as exc:  # e.g. a key that an older version wrote
        raise TrainError(f"{cfg_path}: {exc}; retrain this run") from None
    manifest = read_manifest(manifest_path)
    model, stdizer, _ = load_model(cfg, manifest, ckpt_path)
    return cfg, manifest, model, stdizer
