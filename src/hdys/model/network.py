"""The homogeneous-latent model: kinematics encoders, an inverse-dynamics
decoder (shared temporal transformer + per-channel regression heads) and a
forward-dynamics branch that composes acceleration-free kinematics with a
dynamics latent to predict accelerations.

Layer widths are `kinrep.width` of the trees' entity counts, so one model
class serves any profile mix. Marker and keypoint encoders are set-based and
tree-agnostic; coordinate encoders and regression heads are per tree family.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .. import HdysError
from ..datahub import DatasetManifest, tree_bundle
from ..kinrep import (
    COORD_CHANNELS, DYNAMIC_CHANNELS, KINEMATIC_CHANNELS, SET_CHANNELS, acceleration, leading, width,
)
from ..numcore import Tensor, concat
from .layers import MLP, ParamSet, SetEncoder, TemporalTransformer

if TYPE_CHECKING:
    from .config import ModelConfig

# The fixed architecture; `ModelConfig` holds what presets and ablations vary.
SET_LAYERS, SET_HEADS = 3, 2  # marker / keypoint set encoders
MLP_HIDDEN = (256, 128)  # coordinate encoders
ID_LAYERS, ID_HEADS, ID_FFN_MULT = 4, 4, 2  # temporal transformer of the inverse-dynamics decoder
HEAD_HIDDEN_SMALL, HEAD_HIDDEN_BIG = 32, 64  # regression heads
DYN_ENCODER_HIDDEN, COMPOSER_HIDDEN = 64, 128  # forward-dynamics branch

# kinematics channel -> the acceleration target the forward branch predicts
# from it; marker accelerations are never predicted
ACCEL_TARGETS = {"x_k": "acc_k", "x_a": "acc_a", "x_s": "acc_s"}


# The largest pool measured: each worker keeps its own glibc malloc arena, and
# peak memory was measured at pools 1 and 2 only
MAX_ENCODER_THREADS = 2


def encoder_threads(environ: Mapping[str, str], cores: int) -> int:
    """Threads that run a window group's encoder calls: the usable cores over
    the BLAS thread count that OPENBLAS_NUM_THREADS or OMP_NUM_THREADS names,
    from 1 to MAX_ENCODER_THREADS. With neither set to a positive count,
    OpenBLAS takes every core itself, and the calls run on the calling
    thread alone."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, min(MAX_ENCODER_THREADS, cores // int(value)))
    return 1


_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
ENCODER_THREADS = encoder_threads(os.environ, _CORES)
_POOL = None  # the ENCODER_THREADS - 1 workers, started by the first call that needs them


def run_shared(calls: list[Callable[[], object]]) -> list:
    """Each call's result, in call order. At ENCODER_THREADS above 1 the
    calling thread and ENCODER_THREADS - 1 pool workers take the calls from
    one queue. The calling thread works rather than wait: ENCODER_THREADS
    workers beside an idle caller kept about 20% more memory, in glibc's
    per-thread malloc arenas."""
    n = min(ENCODER_THREADS, len(calls))
    if n <= 1:
        return [call() for call in calls]
    from concurrent.futures import ThreadPoolExecutor, wait

    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(ENCODER_THREADS - 1, thread_name_prefix="hdys-encoder")
    todo, results = deque(enumerate(calls)), [None] * len(calls)

    def work():
        while True:
            try:
                i, call = todo.popleft()  # atomic, so each call runs once
            except IndexError:
                return
            results[i] = call()

    workers = [_POOL.submit(work) for _ in range(n - 1)]
    try:
        work()
    finally:
        wait(workers)
    for w in workers:
        w.result()  # a worker's exception
    return results


@dataclass(frozen=True)
class ChannelInventory:
    """Entity counts and tree facts the architecture must honor."""

    dyn_counts: dict[str, int]  # tau channel -> components
    coord_counts: dict[str, int]  # x_a / x_s -> DoF
    keypoint_counts: dict[str, int]  # tree_key -> joint count
    profile_tree: dict[str, str]  # profile_id -> tree_key

    @classmethod
    def from_manifest(cls, manifest: DatasetManifest) -> "ChannelInventory":
        dyn, coords, kp, ptree = {}, {}, {}, {}
        for p in manifest.profiles:
            sizes = tree_bundle(p.tree_key).channels
            ptree[p.profile_id] = p.tree_key
            kp[p.tree_key] = sizes["x_k"]
            coords.update((ch, sizes[ch]) for ch in p.kin_mask if ch in COORD_CHANNELS)
            dyn.update((ch, sizes[ch]) for ch in p.dyn_mask)
        return cls(dyn, coords, kp, ptree)


@dataclass
class WindowGroup:
    """Windows sharing profile, availability mask and marker count."""

    profile_id: str
    x: dict[str, np.ndarray]  # standardized channel blocks, (n_win, W, ...)
    weight: np.ndarray  # (n_win, W) loss weight, 0 on boundary frames

    @property
    def n_windows(self) -> int:
        return self.weight.shape[0]

    @property
    def window(self) -> int:
        return self.weight.shape[1]

    @property
    def kin_present(self) -> list[str]:
        return [c for c in KINEMATIC_CHANNELS if c in self.x]

    @property
    def dyn_present(self) -> list[str]:
        return [c for c in DYNAMIC_CHANNELS if c in self.x]

    @cached_property
    def accel_targets(self) -> dict[str, np.ndarray]:
        """Target -> (n_win, W, width) standardized accelerations of each
        channel in ACCEL_TARGETS that the group has, carved once and read by
        `Normalisers.of_groups`, `HDySModel.forward_group` and `loss_recon`."""
        return {name: acceleration(ch, self.x[ch]) for ch, name in ACCEL_TARGETS.items() if ch in self.x}


@dataclass
class GroupOutput:
    """Source-stacked forward results for one window group: latents and
    predictions only; the targets stay on the group.

    Latents and predictions carry all kinematics sources stacked along the
    leading window axis: block s of `kin_stack` (rows s*n_win..(s+1)*n_win)
    holds source `kin_order[s]`. The stacking lets the temporal transformer,
    regression heads and composer each run once per group.
    """

    group: WindowGroup
    kin_order: list[str] = field(default_factory=list)
    kin_stack: Tensor | None = None  # (S*n_win, W, d) raw encoder latents
    dyn_preds: dict[str, Tensor] = field(default_factory=dict)  # (S*n_win, W, width)
    fdae_order: list[tuple[str, str]] = field(default_factory=list)
    fdae_stack: Tensor | None = None  # (S'*n_win, W, d) composed latents
    accel_preds: dict[str, Tensor] = field(default_factory=dict)  # (S'*n_win, W, width)
    # (encoder output with its graph, the leaf the rest of the group reads in
    # its place): a recorded graph is cut at each encoder, so the encoders'
    # reverse passes run through `run_shared` too (`engine.group_backward`)
    cuts: list[tuple[Tensor, Tensor]] = field(default_factory=list)

    def dyn_pred_by_source(self, kin: str, dyn: str) -> np.ndarray:
        """(n_win, W, width) prediction for one kinematics source."""
        s = self.kin_order.index(kin)
        n = self.group.n_windows
        return self.dyn_preds[dyn].data[s * n : (s + 1) * n]


def fdae_order(group: WindowGroup, use_fdae: bool) -> list[tuple[str, str]]:
    """(kinematics, dynamics) pairs the forward-dynamics branch composes for a
    group: every pair when the branch runs and the group has labels."""
    if not use_fdae:
        return []
    return [(kin, dyn) for kin in group.kin_present for dyn in group.dyn_present]


class HDySModel:
    def __init__(self, cfg: ModelConfig, inventory: ChannelInventory, seed: int = 0):
        self.cfg = cfg
        self.inv = inventory
        ps = ParamSet(seed)
        self.ps = ps
        d = cfg.latent_dim

        self.enc_set = {
            ch: SetEncoder(ps, f"enc.{ch}", width(ch, 1), d, SET_LAYERS, SET_HEADS, cfg.set_ffn_mult)
            for ch in SET_CHANNELS
        }
        self.enc_coord = {
            ch: MLP(ps, f"enc.{ch}", [width(ch, n), *MLP_HIDDEN, d]) for ch, n in inventory.coord_counts.items()
        }
        self.temporal = TemporalTransformer(ps, "idec.temporal", d, ID_LAYERS, ID_HEADS, ID_FFN_MULT, cfg.window)
        small, big = HEAD_HIDDEN_SMALL, HEAD_HIDDEN_BIG
        head_hidden = {"tau_tr": small, "tau_e": small, "tau_ts": big, "tau_m": big}
        self.id_heads = {
            ch: MLP(ps, f"idec.head.{ch}", [d, head_hidden[ch], n])
            for ch, n in inventory.dyn_counts.items()
        }

        if not cfg.no_fdae:
            self.fenc_set = {
                ch: SetEncoder(ps, f"fenc.{ch}", width(ch, 1, 2), d, SET_LAYERS, SET_HEADS, cfg.set_ffn_mult)
                for ch in SET_CHANNELS
            }
            self.fenc_coord = {
                ch: MLP(ps, f"fenc.{ch}", [width(ch, n, 2), *MLP_HIDDEN, d]) for ch, n in inventory.coord_counts.items()
            }
            self.dyn_enc = {
                ch: MLP(ps, f"fenc.dyn.{ch}", [n, DYN_ENCODER_HIDDEN, d]) for ch, n in inventory.dyn_counts.items()
            }
            self.composer = MLP(ps, "fdec.composer", [2 * d, COMPOSER_HIDDEN, d])
            self.acc_heads = {}
            for tree_key, n_kp in inventory.keypoint_counts.items():
                self.acc_heads[f"acc_k.{tree_key}"] = MLP(
                    ps, f"fdec.head.acc_k.{tree_key}", [d, small, width("x_k", n_kp, 1)]
                )
            for ch, n in inventory.coord_counts.items():
                name = ACCEL_TARGETS[ch]
                hidden = small if ch == "x_a" else big
                self.acc_heads[name] = MLP(ps, f"fdec.head.{name}", [d, hidden, width(ch, n, 1)])

    # -- pieces ---------------------------------------------------------------

    def param_count(self) -> int:
        return self.ps.count()

    def encode_kinematics(self, channel: str, block: np.ndarray) -> Tensor:
        """One kinematics block of `kinrep.triples`' layout, any leading axes, to latents."""
        if channel in SET_CHANNELS:
            if block.shape[-2] < 1:
                raise HdysError(f"{channel}: empty token set")
            if block.shape[-1] != width(channel, 1):
                raise HdysError(f"{channel}: rows must be {width(channel, 1)}-dim, got {block.shape[-1]}")
            return self.enc_set[channel](Tensor(block))
        if channel not in self.enc_coord:
            raise HdysError(f"no encoder for channel '{channel}'")
        expect = width(channel, self.inv.coord_counts[channel])
        if block.shape[-1] != expect:
            raise HdysError(f"{channel}: expected width {expect}, got {block.shape[-1]}")
        return self.enc_coord[channel](Tensor(block))

    def encode_kinematics_stripped(self, channel: str, stripped: np.ndarray) -> Tensor:
        """Acceleration-free block to FDAE-side latents."""
        if channel in SET_CHANNELS:
            return self.fenc_set[channel](Tensor(stripped))
        return self.fenc_coord[channel](Tensor(stripped))

    def refine(self, z: Tensor) -> Tensor:
        if self.cfg.no_temporal_refinement:
            return z
        return self.temporal(z)

    def accel_head_key(self, target: str, tree_key: str) -> str:
        return f"acc_k.{tree_key}" if target == "acc_k" else target

    # -- full group pass ------------------------------------------------------

    def forward_group(self, group: WindowGroup, with_fdae: bool = True) -> GroupOutput:
        """One group's predictions. Its encoders share no parameter and no
        input, so they run first, together, through `run_shared`: the
        kinematics encoder of each source, then for the forward-dynamics
        branch the acceleration-free encoder of each source and the dynamics
        encoder of each label."""
        out = GroupOutput(group=group)
        out.kin_order = list(group.kin_present)
        out.fdae_order = fdae_order(group, with_fdae and not self.cfg.no_fdae)
        calls = [partial(self.encode_kinematics, ch, group.x[ch]) for ch in out.kin_order]
        if out.fdae_order:
            calls += [
                partial(self.encode_kinematics_stripped, ch, leading(ch, group.x[ch], 2))
                for ch in out.kin_order
            ]
            calls += [partial(self.dyn_enc[dyn], Tensor(group.x[dyn])) for dyn in group.dyn_present]
        latents = run_shared(calls)
        for i, z in enumerate(latents):
            if z.requires_grad:  # a graph is being recorded
                latents[i] = Tensor(z.data, requires_grad=True)
                out.cuts.append((z, latents[i]))
        n_kin = len(out.kin_order)
        out.kin_stack = latents[0] if n_kin == 1 else concat(latents[:n_kin], axis=0)
        if group.dyn_present:
            refined = self.refine(out.kin_stack)
            for dyn in group.dyn_present:
                out.dyn_preds[dyn] = self.id_heads[dyn](refined)
        if out.fdae_order:
            stripped = dict(zip(out.kin_order, latents[n_kin : 2 * n_kin]))
            dyn_latents = dict(zip(group.dyn_present, latents[2 * n_kin :]))
            kin_parts = [stripped[kin] for kin, _ in out.fdae_order]
            dyn_parts = [dyn_latents[dyn] for _, dyn in out.fdae_order]
            kin_cat = kin_parts[0] if len(kin_parts) == 1 else concat(kin_parts, axis=0)
            dyn_cat = dyn_parts[0] if len(dyn_parts) == 1 else concat(dyn_parts, axis=0)
            out.fdae_stack = self.composer(concat([kin_cat, dyn_cat], axis=-1))
            for target in group.accel_targets:
                head = self.acc_heads[self.accel_head_key(target, self.inv.profile_tree[group.profile_id])]
                out.accel_preds[target] = head(out.fdae_stack)
        return out
