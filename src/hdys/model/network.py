"""The homogeneous-latent model: kinematics encoders, an inverse-dynamics
decoder (shared temporal transformer + per-channel regression heads) and a
forward-dynamics branch that composes acceleration-free kinematics with a
dynamics latent to predict accelerations.

Channel widths are derived from the dataset inventory, so the same model
class serves any profile mix. Marker and keypoint encoders are set-based and
tree-agnostic; coordinate encoders and regression heads are per tree family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datahub import DatasetManifest, tree_bundle
from ..numcore import Tensor, concat
from .config import ModelConfig
from .layers import MLP, ParamSet, SetEncoder, TemporalTransformer

SET_CHANNELS = ("x_m", "x_k")
COORD_CHANNELS = ("x_a", "x_s")

# acceleration targets: (target key, source kinematics channel requirement)
ACCEL_OF_COORD = {"x_a": "acc_a", "x_s": "acc_s"}


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class ChannelInventory:
    """Widths and tree facts the architecture must honor."""

    dyn_widths: dict[str, int]  # tau channel -> components
    coord_widths: dict[str, int]  # x_a / x_s -> 3n layout width
    keypoint_counts: dict[str, int]  # tree_key -> joint count
    profile_tree: dict[str, str]  # profile_id -> tree_key
    coord_tree: dict[str, str]  # x_a / x_s -> tree_key

    @classmethod
    def from_manifest(cls, manifest: DatasetManifest) -> "ChannelInventory":
        dyn, coords, kp, ptree, ctree = {}, {}, {}, {}, {}
        for p in manifest.profiles:
            bundle = tree_bundle(p.tree_key)
            ptree[p.profile_id] = p.tree_key
            kp[p.tree_key] = bundle.tree.n_links
            for ch in p.kin_mask:
                if ch in COORD_CHANNELS:
                    coords[ch] = 3 * bundle.tree.n_dof
                    ctree[ch] = p.tree_key
            for ch in p.dyn_mask:
                if ch in ("tau_tr", "tau_ts"):
                    dyn[ch] = bundle.tree.n_actuated
                elif ch == "tau_m":
                    dyn[ch] = bundle.muscles.n_muscles
                elif ch == "tau_e":
                    dyn[ch] = len(bundle.emg) if bundle.emg else bundle.muscles.n_muscles
        return cls(dyn, coords, kp, ptree, ctree)


@dataclass
class WindowGroup:
    """Windows sharing profile, availability mask and marker count."""

    profile_id: str
    tree_key: str
    n_markers: int
    x: dict[str, np.ndarray]  # standardized channel blocks, (n_win, W, ...)
    weight: np.ndarray  # (n_win, W) loss weight, 0 on boundary frames
    subject_mass: float

    @property
    def n_windows(self) -> int:
        return self.weight.shape[0]

    @property
    def window(self) -> int:
        return self.weight.shape[1]

    @property
    def kin_present(self) -> list[str]:
        return [c for c in ("x_m", "x_k", "x_a", "x_s") if c in self.x]

    @property
    def dyn_present(self) -> list[str]:
        return [c for c in ("tau_tr", "tau_ts", "tau_m", "tau_e") if c in self.x]


@dataclass
class GroupOutput:
    """Source-stacked forward results for one window group.

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
    accel_targets: dict[str, np.ndarray] = field(default_factory=dict)

    def dyn_pred_by_source(self, kin: str, dyn: str) -> np.ndarray:
        """(n_win, W, width) prediction for one kinematics source."""
        s = self.kin_order.index(kin)
        n = self.group.n_windows
        return self.dyn_preds[dyn].data[s * n : (s + 1) * n]


def strip_accel_block(channel: str, block: np.ndarray) -> np.ndarray:
    if channel in SET_CHANNELS:
        return block[..., :6]
    n = block.shape[-1] // 3
    return block.reshape(block.shape[:-1] + (n, 3))[..., :2].reshape(block.shape[:-1] + (2 * n,))


def accel_block(channel: str, block: np.ndarray) -> np.ndarray:
    """The acceleration components, flattened per frame."""
    if channel in SET_CHANNELS:
        acc = block[..., 6:9]
        return acc.reshape(acc.shape[:-2] + (-1,))
    n = block.shape[-1] // 3
    return block.reshape(block.shape[:-1] + (n, 3))[..., 2]


def _pad_accel_zeros(channel: str, stripped: np.ndarray) -> np.ndarray:
    """Re-embed an acceleration-free block into the full layout with zeros."""
    if channel in SET_CHANNELS:
        pad = np.zeros(stripped.shape[:-1] + (3,))
        return np.concatenate([stripped, pad], axis=-1)
    n = stripped.shape[-1] // 2
    out = np.zeros(stripped.shape[:-1] + (n, 3))
    out[..., :2] = stripped.reshape(stripped.shape[:-1] + (n, 2))
    return out.reshape(stripped.shape[:-1] + (3 * n,))


class HDySModel:
    def __init__(self, cfg: ModelConfig, inventory: ChannelInventory, seed: int = 0):
        self.cfg = cfg
        self.inv = inventory
        ps = ParamSet(seed)
        self.ps = ps
        d = cfg.latent_dim

        self.enc_set = {
            ch: SetEncoder(ps, f"enc.{ch}", 9, d, cfg.set_layers, cfg.set_heads, cfg.set_ffn_mult)
            for ch in SET_CHANNELS
        }
        self.enc_coord = {
            ch: MLP(ps, f"enc.{ch}", [w, cfg.mlp_hidden[0], cfg.mlp_hidden[1], d])
            for ch, w in inventory.coord_widths.items()
        }
        self.temporal = TemporalTransformer(ps, "idec.temporal", d, cfg.id_layers, cfg.id_heads, cfg.window)
        small, big = cfg.head_hidden_small, cfg.head_hidden_big
        head_hidden = {"tau_tr": small, "tau_e": small, "tau_ts": big, "tau_m": big}
        self.id_heads = {
            ch: MLP(ps, f"idec.head.{ch}", [d, head_hidden[ch], w])
            for ch, w in inventory.dyn_widths.items()
        }

        if not cfg.no_fdae:
            if cfg.tie_fdae_encoders:
                self.fenc_set, self.fenc_coord = self.enc_set, self.enc_coord
            else:
                self.fenc_set = {
                    ch: SetEncoder(ps, f"fenc.{ch}", 6, d, cfg.set_layers, cfg.set_heads, cfg.set_ffn_mult)
                    for ch in SET_CHANNELS
                }
                self.fenc_coord = {
                    ch: MLP(ps, f"fenc.{ch}", [2 * w // 3, cfg.mlp_hidden[0], cfg.mlp_hidden[1], d])
                    for ch, w in inventory.coord_widths.items()
                }
            self.dyn_enc = {
                ch: MLP(ps, f"fenc.dyn.{ch}", [w, cfg.dyn_encoder_hidden, d])
                for ch, w in inventory.dyn_widths.items()
            }
            self.composer = MLP(ps, "fdec.composer", [2 * d, cfg.composer_hidden, d])
            self.acc_heads = {}
            for tree_key, n_kp in inventory.keypoint_counts.items():
                self.acc_heads[f"acc_k.{tree_key}"] = MLP(
                    ps, f"fdec.head.acc_k.{tree_key}", [d, small, 3 * n_kp]
                )
            for ch, w in inventory.coord_widths.items():
                name = ACCEL_OF_COORD[ch]
                hidden = small if ch == "x_a" else big
                self.acc_heads[name] = MLP(ps, f"fdec.head.{name}", [d, hidden, w // 3])

    # -- pieces ---------------------------------------------------------------

    def param_count(self) -> int:
        return self.ps.count()

    def encode_kinematics(self, channel: str, block: np.ndarray) -> Tensor:
        """One kinematics block to latents; (.., T, 9) for sets, (.., 3n) for coords."""
        if channel in SET_CHANNELS:
            if block.shape[-2] < 1:
                raise ModelError(f"{channel}: empty token set")
            if block.shape[-1] != 9:
                raise ModelError(f"{channel}: rows must be 9-dim, got {block.shape[-1]}")
            return self.enc_set[channel](Tensor(block))
        if channel not in self.enc_coord:
            raise ModelError(f"no encoder for channel '{channel}'")
        expect = self.inv.coord_widths[channel]
        if block.shape[-1] != expect:
            raise ModelError(f"{channel}: expected width {expect}, got {block.shape[-1]}")
        return self.enc_coord[channel](Tensor(block))

    def encode_kinematics_stripped(self, channel: str, stripped: np.ndarray) -> Tensor:
        """Acceleration-free block to FDAE-side latents."""
        if self.cfg.no_fdae:
            raise ModelError("model was built without the forward-dynamics branch")
        if self.cfg.tie_fdae_encoders:
            return self.encode_kinematics(channel, _pad_accel_zeros(channel, stripped))
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

    def forward_group(self, group: WindowGroup, with_fdae: bool | None = None) -> GroupOutput:
        out = GroupOutput(group=group)
        use_fdae = (not self.cfg.no_fdae) if with_fdae is None else (with_fdae and not self.cfg.no_fdae)
        out.kin_order = list(group.kin_present)
        latents = [self.encode_kinematics(ch, group.x[ch]) for ch in out.kin_order]
        out.kin_stack = latents[0] if len(latents) == 1 else concat(latents, axis=0)
        if group.dyn_present:
            refined = self.refine(out.kin_stack)
            for dyn in group.dyn_present:
                out.dyn_preds[dyn] = self.id_heads[dyn](refined)
        if use_fdae and group.dyn_present:
            out.accel_targets = self._accel_targets(group)
            stripped = [
                self.encode_kinematics_stripped(ch, strip_accel_block(ch, group.x[ch]))
                for ch in out.kin_order
            ]
            dyn_latents = {dyn: self.dyn_enc[dyn](Tensor(group.x[dyn])) for dyn in group.dyn_present}
            kin_parts, dyn_parts = [], []
            for kin, z_kin in zip(out.kin_order, stripped):
                for dyn in group.dyn_present:
                    out.fdae_order.append((kin, dyn))
                    kin_parts.append(z_kin)
                    dyn_parts.append(dyn_latents[dyn])
            kin_cat = kin_parts[0] if len(kin_parts) == 1 else concat(kin_parts, axis=0)
            dyn_cat = dyn_parts[0] if len(dyn_parts) == 1 else concat(dyn_parts, axis=0)
            out.fdae_stack = self.composer(concat([kin_cat, dyn_cat], axis=-1))
            for target in out.accel_targets:
                head = self.acc_heads[self.accel_head_key(target, group.tree_key)]
                out.accel_preds[target] = head(out.fdae_stack)
        return out

    def _accel_targets(self, group: WindowGroup) -> dict[str, np.ndarray]:
        """Marker accelerations are never predicted; everything else present is."""
        targets: dict[str, np.ndarray] = {}
        if "x_k" in group.x:
            targets["acc_k"] = accel_block("x_k", group.x["x_k"])
        for coord, name in ACCEL_OF_COORD.items():
            if coord in group.x:
                targets[name] = accel_block(coord, group.x[coord])
        return targets
