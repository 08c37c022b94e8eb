"""Model building blocks over the autodiff kernels.

Parameters live in a flat name -> Tensor map owned by a ParamSet, so
checkpointing and the optimizer see one stable, insertion-ordered namespace.
Weight init is uniform with 1/sqrt(fan_in) bounds, drawn from the ParamSet's
seeded generator.
"""

from __future__ import annotations

import numpy as np

from .. import HdysError
from ..numcore import Tensor, add, attention, gelu, layer_norm, matmul, mean, slice_axis


class ParamSet:
    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11CE]))
        self.params: dict[str, Tensor] = {}

    def new(self, name: str, shape, fan_in: int | None = None, init: str = "fanin") -> Tensor:
        if name in self.params:
            raise KeyError(f"duplicate parameter '{name}'")
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        elif init == "small":
            data = self.rng.uniform(-0.02, 0.02, size=shape)
        else:
            bound = 1.0 / np.sqrt(fan_in)
            data = self.rng.uniform(-bound, bound, size=shape)
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def count(self) -> int:
        return sum(p.size for p in self.params.values())

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing, unexpected = set(self.params) - set(arrays), set(arrays) - set(self.params)
        if missing:
            raise HdysError(f"checkpoint missing parameters: {sorted(missing)[:4]}")
        if unexpected:
            raise HdysError(f"checkpoint has parameters the model lacks: {sorted(unexpected)[:4]}")
        for k, p in self.params.items():
            if arrays[k].shape != p.data.shape:
                raise HdysError(f"parameter '{k}': checkpoint shape {arrays[k].shape} != {p.data.shape}")
            if not np.isfinite(arrays[k]).all():
                raise HdysError(f"parameter '{k}': non-finite values")
            p.data = arrays[k].copy()


class Linear:
    """`x @ w + b` over the last axis, as one fused `matmul` op."""

    def __init__(self, ps: ParamSet, name: str, d_in: int, d_out: int):
        self.w = ps.new(f"{name}.w", (d_in, d_out), fan_in=d_in)
        self.b = ps.new(f"{name}.b", (d_out,), fan_in=d_in)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.w, self.b)


class MLP:
    """Linear stack with gelu between layers, linear output."""

    def __init__(self, ps: ParamSet, name: str, dims: list[int]):
        self.layers = [Linear(ps, f"{name}.l{i}", dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i + 1 < len(self.layers):
                x = gelu(x)
        return x


class LayerNorm:
    def __init__(self, ps: ParamSet, name: str, dim: int):
        self.gamma = ps.new(f"{name}.g", (dim,), init="ones")
        self.beta = ps.new(f"{name}.b", (dim,), init="zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class TransformerLayer:
    """Pre-norm residual block: attention then feed-forward."""

    def __init__(self, ps: ParamSet, name: str, dim: int, heads: int, ffn_mult: int):
        self.heads = heads
        self.ln1 = LayerNorm(ps, f"{name}.ln1", dim)
        self.qkv = Linear(ps, f"{name}.qkv", dim, 3 * dim)
        self.out = Linear(ps, f"{name}.out", dim, dim)
        self.ln2 = LayerNorm(ps, f"{name}.ln2", dim)
        hidden = ffn_mult * dim
        self.ff1 = Linear(ps, f"{name}.ff1", dim, hidden)
        self.ff2 = Linear(ps, f"{name}.ff2", hidden, dim)
        self.dim = dim

    def __call__(self, x: Tensor) -> Tensor:
        h = self.ln1(x)
        qkv = self.qkv(h)
        q = slice_axis(qkv, -1, 0, self.dim)
        k = slice_axis(qkv, -1, self.dim, 2 * self.dim)
        v = slice_axis(qkv, -1, 2 * self.dim, 3 * self.dim)
        x = add(x, self.out(attention(q, k, v, self.heads)))
        h = self.ln2(x)
        return add(x, self.ff2(gelu(self.ff1(h))))


class SetEncoder:
    """Order-invariant encoder for a variable number of feature rows.

    Tokens are embedded, passed through pre-norm transformer layers with no
    positional information, and mean-pooled, so the latent is invariant to
    row permutation and duplication.
    """

    def __init__(self, ps: ParamSet, name: str, feat: int, dim: int, layers: int, heads: int, ffn_mult: int):
        self.embed = Linear(ps, f"{name}.embed", feat, dim)
        self.blocks = [
            TransformerLayer(ps, f"{name}.blk{i}", dim, heads, ffn_mult) for i in range(layers)
        ]
        self.ln = LayerNorm(ps, f"{name}.ln", dim)

    def __call__(self, tokens: Tensor) -> Tensor:
        """(.., T, feat) -> (.., dim)."""
        x = self.embed(tokens)
        for blk in self.blocks:
            x = blk(x)
        return mean(self.ln(x), axis=-2)


class TemporalTransformer:
    """Window refinement with a learned positional embedding."""

    def __init__(self, ps: ParamSet, name: str, dim: int, layers: int, heads: int, ffn_mult: int, window: int):
        self.pos = ps.new(f"{name}.pos", (window, dim), init="small")
        self.blocks = [
            TransformerLayer(ps, f"{name}.blk{i}", dim, heads, ffn_mult) for i in range(layers)
        ]
        self.ln = LayerNorm(ps, f"{name}.ln", dim)

    def __call__(self, z: Tensor) -> Tensor:
        """(n_win, window, dim) -> (n_win, window, dim)."""
        x = add(z, self.pos)
        for blk in self.blocks:
            x = blk(x)
        return self.ln(x)
