"""Reconstruction and contrastive alignment objectives.

Reconstruction sums per-target mean absolute errors: one term per dynamics
channel (pooled over kinematics sources, windows and unmasked frames) plus
one per acceleration target. Alignment is InfoNCE over every ordered pair of
distinct latent sources, scored by the cosine of unit-norm latents divided
by the temperature: the positive is the same frame seen by another source,
the denominator runs over that source's other frames in the batch. Each
unordered pair computes one score matrix and reads it by rows and by
columns for its two orders (Oord et al., arXiv:1807.03748; the symmetric
loss of Radford et al., arXiv:2103.00020).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numcore import (
    Tensor,
    add,
    l1_distance,
    l2_normalize,
    logsumexp,
    matmul,
    mean,
    mul,
    reshape,
    slice_axis,
    sub,
    sum_,
    transpose,
)
from .config import ModelConfig
from .network import GroupOutput


class DeadConfigError(Exception):
    """Every loss term was masked out; the configuration cannot train."""


@dataclass
class LossBreakdown:
    recon: float
    align: float
    total: float
    per_target: dict[str, float]


def _stacked_l1(pred: Tensor, target: np.ndarray, weight: np.ndarray):
    """(sum_of_absolute_error tensor, unmasked element count) for one pair.

    `pred` is source-stacked along axis 0; target/weight cover one copy and
    are tiled to match.
    """
    copies = pred.shape[0] // target.shape[0]
    tgt = np.tile(target, (copies, 1, 1))
    w3 = np.tile(weight, (copies, 1))[..., None]
    kept = float(w3.sum()) * target.shape[-1]
    if kept == 0.0:
        return None, 0.0
    term = l1_distance(mul(pred, Tensor(np.broadcast_to(w3, tgt.shape))), Tensor(tgt * w3))
    return mul(term, Tensor(float(tgt.size))), kept


def loss_recon(outputs: list[GroupOutput], cfg: ModelConfig) -> tuple[Tensor, dict[str, float]]:
    """Sum over available targets of pooled mean absolute error."""
    sums: dict[str, Tensor] = {}
    counts: dict[str, float] = {}

    def accumulate(name, pred, target, weight):
        term, kept = _stacked_l1(pred, target, weight)
        if term is None:
            return
        sums[name] = term if name not in sums else add(sums[name], term)
        counts[name] = counts.get(name, 0.0) + kept

    saw_any = False
    for out in outputs:
        g = out.group
        for dyn, pred in out.dyn_preds.items():
            saw_any = True
            accumulate(dyn, pred, g.x[dyn], g.weight)
        for target, pred in out.accel_preds.items():
            saw_any = True
            accumulate(target, pred, out.accel_targets[target], g.weight)
    if not saw_any:
        raise DeadConfigError("no reconstruction targets are available in this batch")
    if not sums:
        raise DeadConfigError("all reconstruction targets were masked out")

    total = None
    per_target: dict[str, float] = {}
    for name in sorted(sums):
        mae = mul(sums[name], Tensor(1.0 / counts[name]))
        per_target[name] = float(mae.data)
        total = mae if total is None else add(total, mae)
    return total, per_target


def _pair_nce(z_i: Tensor, z_j: Tensor, scale: float) -> Tensor:
    """InfoNCE of the ordered pairs (i, j) and (j, i), summed, over B frames.

    One score matrix serves both orders: its rows score each frame of
    source i against every frame of source j, its columns the reverse. The
    positives are its diagonal, the row-wise dot products of z_i and z_j.
    """
    b = z_i.shape[0]
    sims = mul(matmul(z_i, transpose(z_j)), Tensor(scale))
    lse = add(mean(logsumexp(sims, axis=1)), mean(logsumexp(sims, axis=0)))
    return sub(lse, mul(sum_(mul(z_i, z_j)), Tensor(2.0 * scale / b)))


def _group_sources(out: GroupOutput) -> list[Tensor]:
    """Unit-norm flattened (B, d) latents, one per available source."""
    b = out.group.n_windows * out.group.window
    sources = []
    for stack, order in ((out.kin_stack, out.kin_order), (out.fdae_stack, out.fdae_order)):
        if stack is None:
            continue
        flat = l2_normalize(reshape(stack, (len(order) * b, stack.shape[-1])), axis=-1)
        sources += [slice_axis(flat, 0, s * b, (s + 1) * b) for s in range(len(order))]
    return sources


def loss_align(outputs: list[GroupOutput], cfg: ModelConfig) -> Tensor:
    """Cross-source InfoNCE, averaged over ordered pairs and frames.

    Sources of one group are its per-channel encoder latents plus the
    composed forward-dynamics latents; groups enter independently (a frame
    is only contrasted against frames with the same availability) and are
    weighted by frame count. Each unordered pair is scored once, both ways.
    """
    scale = 1.0 / cfg.temperature
    total = None
    weight_sum = 0.0
    for out in outputs:
        sources = _group_sources(out)
        n = len(sources)
        if n < 2:
            continue
        b = out.group.n_windows * out.group.window
        group_loss = None
        for i in range(n):
            for j in range(i + 1, n):
                term = _pair_nce(sources[i], sources[j], scale)
                group_loss = term if group_loss is None else add(group_loss, term)
        group_loss = mul(group_loss, Tensor(b / (n * (n - 1))))
        total = group_loss if total is None else add(total, group_loss)
        weight_sum += b
    if total is None:
        raise DeadConfigError("alignment needs at least two latent sources per batch")
    return mul(total, Tensor(1.0 / weight_sum))


def total_loss(cfg: ModelConfig, outputs: list[GroupOutput]) -> tuple[Tensor, LossBreakdown]:
    """alpha1 * reconstruction + alpha2 * alignment, honoring ablation flags."""
    recon_t = None
    per_target: dict[str, float] = {}
    if any(out.dyn_preds for out in outputs):
        recon_t, per_target = loss_recon(outputs, cfg)
    align_t = None
    if not cfg.no_align:
        align_t = loss_align(outputs, cfg)
    if recon_t is None and align_t is None:
        raise DeadConfigError("batch produced neither reconstruction nor alignment terms")
    total = None
    if recon_t is not None:
        total = mul(recon_t, Tensor(cfg.alpha1))
    if align_t is not None:
        scaled = mul(align_t, Tensor(cfg.alpha2))
        total = scaled if total is None else add(total, scaled)
    return total, LossBreakdown(
        recon=float(recon_t.data) if recon_t is not None else 0.0,
        align=float(align_t.data) if align_t is not None else 0.0,
        total=float(total.data),
        per_target=per_target,
    )
