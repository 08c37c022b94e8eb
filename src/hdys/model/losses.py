"""Reconstruction and contrastive alignment objectives.

Reconstruction sums per-target mean absolute errors: one term per dynamics
channel (pooled over kinematics sources, windows and unmasked frames) plus
one per acceleration target. Alignment is InfoNCE over every ordered pair of
distinct latent sources, scored by the cosine of unit-norm latents divided
by the temperature: the positive is the same frame seen by another source,
the denominator runs over that source's other frames in the window group.
Each unordered pair computes one score matrix and reads it by rows and by
columns for its two orders (Oord et al., arXiv:1807.03748; the symmetric
loss of Radford et al., arXiv:2103.00020).

Each loss function scores one window group over divisors that are fixed
for the whole batch (`Normalisers`), so a batch's loss is the sum of its
groups' terms and can be differentiated one group at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import HdysError
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
from .network import GroupOutput, WindowGroup, fdae_order

ALPHA1, ALPHA2 = 0.01, 0.05  # weights of reconstruction and alignment
TEMPERATURE = 0.1  # of the InfoNCE scores


class DeadConfigError(HdysError):
    """Every loss term was masked out; the configuration cannot train."""


@dataclass
class Normalisers:
    """Batch-wide divisors of the per-group loss terms.

    `counts[target]` is the number of unmasked elements reconstruction pools
    for a target over every group and source of the batch; `weight_sum` is
    the frame count of the groups with at least two latent sources. Both
    follow from window weights, source counts and target widths alone, so
    `of_groups` knows them before any forward pass, and a batch's loss is
    the sum of its groups' terms however the groups are passed in. The
    acceleration widths are those of `WindowGroup.accel_targets`.
    """

    counts: dict[str, float] = field(default_factory=dict)
    weight_sum: float = 0.0

    @classmethod
    def of_groups(cls, cfg: ModelConfig, groups: list[WindowGroup]) -> "Normalisers":
        """From the window groups, as `HDySModel.forward_group` will lay them
        out; raises DeadConfigError when the batch cannot train."""
        norm = cls()
        for g in groups:
            n_kin = len(g.kin_present)
            pairs = fdae_order(g, not cfg.no_fdae)
            # target -> (source copies, width)
            targets = {dyn: (n_kin, g.x[dyn].shape[-1]) for dyn in g.dyn_present}
            if pairs:
                targets.update({name: (len(pairs), t.shape[-1]) for name, t in g.accel_targets.items()})
            for name, (copies, width) in targets.items():
                norm.counts[name] = norm.counts.get(name, 0.0) + float(g.weight.sum()) * copies * width
            if n_kin + len(pairs) >= 2:
                norm.weight_sum += g.weight.size
        if not norm.counts and cfg.no_align:
            raise DeadConfigError("batch produced neither reconstruction nor alignment terms")
        if norm.counts and not any(norm.counts.values()):
            raise DeadConfigError("all reconstruction targets were masked out")
        if not cfg.no_align and not norm.weight_sum:
            raise DeadConfigError("alignment needs at least two latent sources per batch")
        return norm


def _l1_term(pred: Tensor, target: np.ndarray, weight: np.ndarray, count: float) -> Tensor | None:
    """Masked absolute error of one group and target, summed and divided by
    the target's batch-wide `count`; None when the group keeps no element.

    `pred` is source-stacked along axis 0; target/weight cover one copy and
    are tiled to match.
    """
    if not weight.any():
        return None
    copies = pred.shape[0] // target.shape[0]
    tgt = np.tile(target, (copies, 1, 1))
    w3 = np.tile(weight, (copies, 1))[..., None]
    term = l1_distance(mul(pred, Tensor(np.broadcast_to(w3, tgt.shape))), Tensor(tgt * w3))
    return mul(term, Tensor(tgt.size / count))


def loss_recon(out: GroupOutput, norm: Normalisers) -> tuple[Tensor | None, dict[str, float]]:
    """One group's share of the sum over targets of pooled mean absolute
    error, over the batch's `norm.counts`; None when it has no target."""
    g = out.group
    pairs = [(dyn, pred, g.x[dyn]) for dyn, pred in out.dyn_preds.items()]
    pairs += [(name, pred, g.accel_targets[name]) for name, pred in out.accel_preds.items()]
    total = None
    per_target: dict[str, float] = {}
    for name, pred, target in sorted(pairs, key=lambda p: p[0]):
        term = _l1_term(pred, target, g.weight, norm.counts[name])
        if term is None:
            continue
        per_target[name] = float(term.data)
        total = term if total is None else add(total, term)
    return total, per_target


def _pair_nce(z_i: Tensor, z_j: Tensor, scale: float) -> Tensor:
    """InfoNCE of the ordered pairs (i, j) and (j, i), summed, over B frames.

    One score matrix serves both orders: its rows score each frame of
    source i against every frame of source j, its columns the reverse. The
    positives are its diagonal, the row-wise dot products of z_i and z_j.
    """
    b = z_i.shape[0]
    sims = mul(matmul(z_i, transpose(z_j)), Tensor(scale))
    lse = add(mean(logsumexp(sims, axis=1), axis=0), mean(logsumexp(sims, axis=0), axis=0))
    return sub(lse, mul(sum_(mul(z_i, z_j)), Tensor(2.0 * scale / b)))


def _group_sources(out: GroupOutput) -> list[Tensor]:
    """Unit-norm flattened (B, d) latents, one per available source."""
    b = out.group.n_windows * out.group.window
    sources = []
    for stack, order in ((out.kin_stack, out.kin_order), (out.fdae_stack, out.fdae_order)):
        if stack is None:
            continue
        flat = l2_normalize(reshape(stack, (len(order) * b, stack.shape[-1])))
        sources += [slice_axis(flat, 0, s * b, (s + 1) * b) for s in range(len(order))]
    return sources


def loss_align(out: GroupOutput, norm: Normalisers) -> Tensor | None:
    """One group's share of cross-source InfoNCE, averaged over ordered
    pairs and frames.

    Sources of a group are its per-channel encoder latents plus the
    composed forward-dynamics latents; a frame is only contrasted against
    frames of its own group (same availability), and the group is weighted
    by its frame count over the batch's `norm.weight_sum`. Each unordered
    pair is scored once, both ways. None for a group with fewer than two
    sources.
    """
    sources = _group_sources(out)
    n = len(sources)
    if n < 2:
        return None
    scale = 1.0 / TEMPERATURE
    b = out.group.n_windows * out.group.window
    group_loss = None
    for i in range(n):
        for j in range(i + 1, n):
            term = _pair_nce(sources[i], sources[j], scale)
            group_loss = term if group_loss is None else add(group_loss, term)
    return mul(group_loss, Tensor(b / (n * (n - 1) * norm.weight_sum)))


def total_loss(cfg: ModelConfig, out: GroupOutput, norm: Normalisers) -> tuple[Tensor | None, dict[str, float]]:
    """ALPHA1 * reconstruction + ALPHA2 * alignment, honoring ablation flags.

    One group's term over the batch's `norm` (`Normalisers.of_groups`, which
    also judges dead configurations); a batch's loss is the sum over its
    groups. None for a group that adds nothing. The values come keyed as in
    the loss curve: `recon`, `align` and `total` (0.0 for an absent term),
    then `recon_<target>` for each target the group reconstructs.
    """
    recon_t, per_target = loss_recon(out, norm)
    align_t = None if cfg.no_align else loss_align(out, norm)
    total = None
    if recon_t is not None:
        total = mul(recon_t, Tensor(ALPHA1))
    if align_t is not None:
        scaled = mul(align_t, Tensor(ALPHA2))
        total = scaled if total is None else add(total, scaled)
    terms = {
        "recon": float(recon_t.data) if recon_t is not None else 0.0,
        "align": float(align_t.data) if align_t is not None else 0.0,
        "total": float(total.data) if total is not None else 0.0,
    }
    return total, terms | {f"recon_{name}": value for name, value in per_target.items()}
