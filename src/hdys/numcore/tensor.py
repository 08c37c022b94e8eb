"""Dense float64 tensors with reverse-mode automatic differentiation.

Minimal kernel catalog: exactly the operations the encoders, decoders and
losses need. All arrays are float64 and all kernels deterministic. NaN/Inf is
caught where results are used, not per op: the loss and gradients in `train`,
each prediction block in `predict_sequences`, and a zero-norm `l2_normalize`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "Graph",
    "NumcoreError",
    "ShapeError",
    "NonFiniteError",
    "GraphError",
    "UnknownOpError",
    "no_grad",
    "backward",
    "op_forward",
    "OP_NAMES",
    "matmul",
    "add",
    "sub",
    "mul",
    "concat",
    "slice_axis",
    "mean",
    "sum_",
    "reshape",
    "transpose",
    "gelu",
    "layer_norm",
    "logsumexp",
    "l2_normalize",
    "l1_distance",
    "attention",
]


class NumcoreError(Exception):
    pass


class ShapeError(NumcoreError):
    pass


class NonFiniteError(NumcoreError):
    pass


class GraphError(NumcoreError):
    pass


class UnknownOpError(NumcoreError):
    pass


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _as_f64(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    return a


class Tensor:
    """A float64 array plus its position in the op graph.

    Tensors are immutable once created, except for optimizer updates on leaf
    parameters between backward passes (`data` is swapped wholesale).
    """

    __slots__ = ("data", "requires_grad", "_parents", "_op", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_f64(values)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._op: Optional[str] = None
        self._backward: Optional[Callable[[np.ndarray], tuple]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        op = f" op={self._op}" if self._op else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{op})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(out: np.ndarray, op: str, parents: Sequence[Tensor], bwd) -> Tensor:
    t = Tensor(out)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._parents = tuple(parents)
        t._op = op
        t._backward = bwd
    return t


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# kernel catalog
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, "add", (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, "sub", (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _make(out, "mul", (a, b), bwd)


def matmul(a, b, bias=None) -> Tensor:
    """`a @ b`, plus `bias` of shape (n,) over the last axis when given.

    A 2-D `b` is a weight shared by every leading index of `a`: those axes
    fold into rows, so the forward pass and each gradient are one 2-D GEMM
    (`a2 @ w`, `g2 @ w.T` only if `a` needs a gradient, `a2.T @ g2`) and the
    bias gradient is one column sum. The bias is added in place, so no second
    full-size array is kept.
    Other ranks use numpy's batched matmul with broadcasting.
    """
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: inputs must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    n = b.shape[-1]
    parents = (a, b)
    if bias is not None:
        bias = _coerce(bias)
        if bias.shape != (n,):
            raise ShapeError(f"matmul: bias shape {bias.shape} does not match output width {n}")
        parents += (bias,)
    ad, bd = a.data, b.data
    if b.ndim == 2:
        a2 = ad.reshape(-1, a.shape[-1])
        out = (a2 @ bd).reshape(a.shape[:-1] + (n,))
    else:
        out = ad @ bd
    if bias is not None:
        out += bias.data

    def bwd(g):
        g2 = g.reshape(-1, n)
        if b.ndim == 2:
            ga = np.empty(a.shape) if a.requires_grad else None
            if a.requires_grad:
                np.matmul(g2, bd.T, out=ga.reshape(a2.shape))
            grads = (ga, a2.T @ g2)
        else:
            ga = g @ bd.swapaxes(-1, -2)
            gb = ad.swapaxes(-1, -2) @ g
            grads = (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))
        return grads if bias is None else grads + (g2.sum(axis=0),)

    return _make(out, "matmul", parents, bwd)


def concat(parts: Sequence, axis: int = -1) -> Tensor:
    ts = [_coerce(p) for p in parts]
    if not ts:
        raise ShapeError("concat: empty input list")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in ts]}")
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, "concat", ts, bwd)


def slice_axis(x, axis: int, start: int, stop: int) -> Tensor:
    x = _coerce(x)
    n = x.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"slice: [{start}:{stop}] out of range for extent {n}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = x.data[idx]
    shape = x.shape

    def bwd(g):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return _make(out, "slice", (x,), bwd)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _coerce(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    shape = x.shape
    if axis is None:
        count = x.size
    else:
        ax = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([shape[a] for a in ax]))

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / count,)

    return _make(out, "mean", (x,), bwd)


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _coerce(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.shape

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(out, "sum", (x,), bwd)


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    orig = x.shape

    def bwd(g):
        return (g.reshape(orig),)

    return _make(out, "reshape", (x,), bwd)


def transpose(x, axes: Optional[tuple[int, ...]] = None) -> Tensor:
    """Permute axes; default swaps the last two."""
    x = _coerce(x)
    if axes is None:
        if x.ndim < 2:
            raise ShapeError("transpose: input must be at least 2-D")
        perm = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    else:
        perm = tuple(axes)
    out = x.data.transpose(perm)
    inv = np.argsort(perm)

    def bwd(g):
        return (g.transpose(inv),)

    return _make(out, "transpose", (x,), bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x) -> Tensor:
    x = _coerce(x)
    xd = x.data
    # in-place forms of the plain expressions: a*b == b*a, a+b == b+a exactly
    cdf = xd * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = xd * cdf

    def bwd(g):
        # g * (cdf + x * exp(-x²/2) / sqrt(2 pi))
        d = xd * -0.5
        np.exp(np.multiply(d, xd, out=d), out=d)
        d *= _INV_SQRT_2PI
        np.add(np.multiply(d, xd, out=d), cdf, out=d)
        return (np.multiply(d, g, out=d),)

    return _make(out, "gelu", (x,), bwd)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then rescale."""
    x, gamma, beta = _coerce(x), _coerce(gamma), _coerce(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({d},), got {gamma.shape}/{beta.shape}"
        )
    # Centre once; the mean of squares then equals np.var bit for bit.
    y = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(y).mean(axis=-1, keepdims=True) + eps)
    y *= inv
    out = y * gamma.data
    out += beta.data
    gd = gamma.data

    def bwd(g):
        gy = g * gd
        m1 = gy.mean(axis=-1, keepdims=True)
        scratch = gy * y
        m2 = scratch.mean(axis=-1, keepdims=True)
        batch_axes = tuple(range(g.ndim - 1))
        dgamma = np.multiply(g, y, out=scratch).sum(axis=batch_axes)
        dbeta = g.sum(axis=batch_axes)
        # dx = (gy - m1 - y * m2) * inv, built inside gy
        gy -= m1
        gy -= np.multiply(y, m2, out=scratch)
        gy *= inv
        return gy, dgamma, dbeta

    return _make(out, "layernorm", (x, gamma, beta), bwd)


def logsumexp(x, axis: int = -1) -> Tensor:
    x = _coerce(x)
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = (np.log(s) + m).squeeze(axis=axis)
    p = e / s

    def bwd(g):
        return (np.expand_dims(g, axis) * p,)

    return _make(out, "logsumexp", (x,), bwd)


def l2_normalize(x, axis: int = -1) -> Tensor:
    x = _coerce(x)
    n = np.linalg.norm(x.data, axis=axis, keepdims=True)
    if (n == 0.0).any():
        raise NonFiniteError("l2_normalize: zero-norm slice")
    y = x.data / n

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return ((g - y * inner) / n,)

    return _make(y, "l2norm", (x,), bwd)


def l1_distance(a, b) -> Tensor:
    """Mean absolute difference, reduced to a scalar."""
    a, b = _coerce(a), _coerce(b)
    if a.shape != b.shape:
        raise ShapeError(f"l1_distance: shapes differ, {a.shape} vs {b.shape}")
    diff = a.data - b.data
    out = np.abs(diff).mean()
    n = diff.size
    sign = np.sign(diff)

    def bwd(g):
        ga = g * sign / n
        return ga, -ga

    return _make(out, "l1dist", (a, b), bwd)


def attention(q, k, v, n_heads: int) -> Tensor:
    """Scaled dot-product multi-head attention over already-projected q/k/v.

    Inputs are (..., T, D) with D divisible by n_heads; output has the same
    shape. No masking: every token attends to every token.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(f"attention: q/k/v shapes differ: {q.shape}/{k.shape}/{v.shape}")
    if q.ndim < 2:
        raise ShapeError("attention: inputs must be at least 2-D")
    d = q.shape[-1]
    if d % n_heads != 0:
        raise ShapeError(f"attention: model dim {d} not divisible by {n_heads} heads")
    t = q.shape[-2]
    dh = d // n_heads
    lead = q.shape[:-2]

    def split(x):
        # (..., T, D) -> (..., H, T, dh)
        return x.reshape(lead + (t, n_heads, dh)).swapaxes(-2, -3)

    def merge(x):
        return x.swapaxes(-2, -3).reshape(lead + (t, d))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / math.sqrt(dh)
    p = qh @ kh.swapaxes(-1, -2)  # softmax(q k^T * scale), in place
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(p @ vh)

    def bwd(g):
        gh = split(g)
        dv = p.swapaxes(-1, -2) @ gh
        # dp = g v^T, then ds = p * (dp - rowsum(dp * p)) in the same array
        ds = gh @ vh.swapaxes(-1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        dq, dk = ds @ kh, ds.swapaxes(-1, -2) @ qh
        dq *= scale
        dk *= scale
        return merge(dq), merge(dk), merge(dv)

    return _make(out, "attention", (q, k, v), bwd)


# ---------------------------------------------------------------------------
# generic dispatch (used by the gradient checker and by tests)
# ---------------------------------------------------------------------------

_DISPATCH = {
    "matmul": lambda ins, at: matmul(*ins),
    "add": lambda ins, at: add(*ins),
    "sub": lambda ins, at: sub(*ins),
    "mul": lambda ins, at: mul(*ins),
    "concat": lambda ins, at: concat(ins, axis=at.get("axis", -1)),
    "slice": lambda ins, at: slice_axis(ins[0], at["axis"], at["start"], at["stop"]),
    "mean": lambda ins, at: mean(ins[0], axis=at.get("axis"), keepdims=at.get("keepdims", False)),
    "sum": lambda ins, at: sum_(ins[0], axis=at.get("axis"), keepdims=at.get("keepdims", False)),
    "transpose": lambda ins, at: transpose(ins[0], axes=at.get("axes")),
    "reshape": lambda ins, at: reshape(ins[0], at["shape"]),
    "gelu": lambda ins, at: gelu(ins[0]),
    "layernorm": lambda ins, at: layer_norm(ins[0], ins[1], ins[2], eps=at.get("eps", 1e-5)),
    "logsumexp": lambda ins, at: logsumexp(ins[0], axis=at.get("axis", -1)),
    "l2norm": lambda ins, at: l2_normalize(ins[0], axis=at.get("axis", -1)),
    "l1dist": lambda ins, at: l1_distance(*ins),
    "attention": lambda ins, at: attention(ins[0], ins[1], ins[2], at["n_heads"]),
}

OP_NAMES = tuple(sorted(_DISPATCH))


def op_forward(kind: str, inputs: Sequence[Tensor], attrs: Optional[dict] = None) -> Tensor:
    if kind not in _DISPATCH:
        raise UnknownOpError(f"unknown op kind '{kind}'")
    return _DISPATCH[kind](list(inputs), attrs or {})


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


class Graph:
    """Topologically ordered view of the op DAG that reaches a root tensor.

    Parents always precede children in `nodes`; the reverse pass visits each
    node exactly once and a graph can be consumed only once. The pass frees
    each op node as it goes: its backward rule (with the arrays it saved),
    its parent links and its slot in `nodes`. A consumed op node keeps its
    `_op` but loses `_backward`, so a later graph that reaches it raises.
    """

    def __init__(self, root: Tensor):
        if root.size != 1:
            raise GraphError(f"backward root must be scalar, got shape {root.shape}")
        self.root = root
        self.nodes: list[Optional[Tensor]] = []
        self._consumed = False
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                self.nodes.append(t)
                continue
            if id(t) in seen:
                continue
            if t._op is not None and t._backward is None:
                raise GraphError(f"'{t._op}' node already consumed by a previous backward pass")
            seen.add(id(t))
            stack.append((t, True))
            for p in t._parents:
                if id(p) not in seen:
                    stack.append((p, False))

    def backward(self) -> dict[int, np.ndarray]:
        """Run the reverse pass; returns leaf gradients keyed by id(tensor).

        No two returned arrays share memory, so the caller may write into any.
        """
        if self._consumed:
            raise GraphError("graph already consumed by a previous backward pass")
        self._consumed = True
        grads: dict[int, np.ndarray] = {id(self.root): np.ones_like(self.root.data)}
        # keys whose array no other slot holds, so contributions add in place
        owned = {id(self.root): True}
        for i in range(len(self.nodes) - 1, -1, -1):
            t = self.nodes[i]
            g, g_owned = grads.pop(id(t), None), owned.pop(id(t), False)
            if t._backward is None:
                if g is not None and t.requires_grad:
                    grads[id(t)] = g if g_owned else g.copy()  # leaf: the caller's own array
                continue
            rule, parents = t._backward, t._parents
            t._backward, t._parents = None, ()
            self.nodes[i] = t = None
            if g is None:
                continue
            live = [(p, pg) for p, pg in zip(parents, rule(g)) if p.requires_grad]
            del rule
            # rules never write into g; g, its views and shared arrays are not owned
            handed = [id(pg) for _, pg in live]
            for p, pg in live:
                key = id(p)
                if key not in grads:
                    grads[key] = pg
                    owned[key] = pg.base is None and handed.count(id(pg)) == 1 and (pg is not g or g_owned)
                elif owned[key]:
                    grads[key] += pg
                else:
                    grads[key], owned[key] = grads[key] + pg, True
        return grads


def backward(root: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient of a scalar root w.r.t. leaves, as a list aligned with them;
    leaves the root does not depend on get exact zeros."""
    grads = Graph(root).backward()
    out = []
    for leaf in leaves:
        got = grads.get(id(leaf))
        out.append(got if got is not None else np.zeros_like(leaf.data))
    return out
