"""Dense float64 tensors with reverse-mode automatic differentiation.

Minimal kernel catalog: exactly the operations the encoders, decoders and
losses need, each called one way: directly, with `Tensor` inputs and only the
options some caller sets. All arrays are float64 and all kernels
deterministic. NaN/Inf is caught where results are used, not per op: the loss
and gradients in `train`, each prediction block in `predict_sequences`, and a
zero-norm `l2_normalize`. `OP_NAMES` lists the 16 kernels by the `op` name
their output nodes carry; the gradient checker under `tests/` calls each one.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(Exception):
    pass


class NonFiniteError(Exception):
    pass


class GraphError(Exception):
    pass


# One flag for the whole process, not one per thread: the worker threads that
# run a window group's encoders (`hdys.model.network.run_shared`) read it
# too, so under `eval`'s `no_grad` they record no graph either. A per-thread
# flag would leave it set in every worker. Training and evaluation never
# overlap in one process.
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation mode), on every thread."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A float64 array plus, for an op output that needs a gradient, its graph node.

    Tensors are immutable once created, except for optimizer updates on leaf
    parameters between backward passes (`data` is swapped wholesale).
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._node: Optional[_Node] = None

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
        op = f" op={self._node.op}" if self._node else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{op})"


class _Node:
    """The graph side of one op output: its op name, its backward `rule` and
    one entry per input, aligned with the rule's gradients: the input's node,
    the input itself if it is a leaf that requires a gradient, or None.

    A node refers to no op output, its own or an input's, so an intermediate
    that the caller drops and no rule saved is freed during the forward pass:
    a rule keeps alive only the arrays it reads. A gelu or layer-norm node
    also has `rebuild`, the closure that computed the output from arrays its
    rule already saved, so a call returns the output again bit for bit; a
    matmul that reads the output holds `rebuild` instead.
    """

    __slots__ = ("op", "rule", "parents", "rebuild")

    def __init__(self, op: str, rule: Callable[[np.ndarray], tuple], parents: tuple):
        self.op, self.rule, self.parents = op, rule, parents
        self.rebuild: Optional[Callable[[], np.ndarray]] = None


def _make(out: np.ndarray, op: str, parents: Sequence[Tensor], bwd) -> Tensor:
    t = Tensor(out)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._node = _Node(op, bwd, tuple((p._node or p) if p.requires_grad else None for p in parents))
    return t


def _with_rebuild(t: Tensor, rebuild: Callable[[], np.ndarray]) -> Tensor:
    """Give t's node, if it has one, the closure that rebuilds t's array; set
    after `_make` returns, so `_make` keeps its four arguments."""
    if t._node is not None:
        t._node.rebuild = rebuild
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

OP_NAMES = (
    "add", "attention", "concat", "gelu", "l1dist", "l2norm", "layernorm", "logsumexp",
    "matmul", "mean", "mul", "reshape", "slice", "sub", "sum", "transpose",
)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(out, "add", (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _make(out, "sub", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    ad, bd = a.data, b.data
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g * bd, a_shape), _unbroadcast(g * ad, b_shape)

    return _make(out, "mul", (a, b), bwd)


def matmul(a: Tensor, w: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """`a @ w`, plus `bias` of shape (n,) over the last axis when given.

    `w` is a 2-D weight shared by every leading index of `a`: those axes fold
    into rows, so the forward pass and each gradient are one 2-D GEMM
    (`a2 @ w`, `g2 @ w.T` only if `a` needs a gradient, `a2.T @ g2`) and the
    bias gradient is one column sum. The bias is added in place, so no second
    full-size array is kept. The weight gradient reads `a` again: if `a`'s
    node can rebuild it (a gelu or layer-norm output), the rule holds that
    closure and rebuilds `a2` then, so the graph does not keep `a` alive.
    """
    if a.ndim < 2 or w.ndim != 2:
        raise ShapeError(f"matmul: needs a 2-D or wider input and a 2-D weight, got {a.shape} @ {w.shape}")
    if a.shape[-1] != w.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {w.shape}")
    n = w.shape[1]
    parents = (a, w)
    if bias is not None:
        if bias.shape != (n,):
            raise ShapeError(f"matmul: bias shape {bias.shape} does not match output width {n}")
        parents += (bias,)
    wd, a_shape, a_grad = w.data, a.shape, a.requires_grad
    a2 = a.data.reshape(-1, a_shape[-1])
    out = (a2 @ wd).reshape(a_shape[:-1] + (n,))
    if bias is not None:
        out += bias.data
    # `rows` is the rule's only way to `a`: a rule captures every name it
    # reads, so it must not read `a2` when `a` is rebuilt
    rebuild = a._node.rebuild if a._node is not None else None
    rows = (lambda: a2) if rebuild is None else (lambda: rebuild().reshape(-1, a_shape[-1]))

    def bwd(g):
        g2 = g.reshape(-1, n)
        ga = np.empty(a_shape) if a_grad else None
        if a_grad:
            np.matmul(g2, wd.T, out=ga.reshape(-1, a_shape[-1]))
        grads = (ga, rows().T @ g2)
        return grads if bias is None else grads + (g2.sum(axis=0),)

    return _make(out, "matmul", parents, bwd)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    try:
        out = np.concatenate([t.data for t in parts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in parts]}")
    sizes = [t.shape[axis] for t in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, "concat", parts, bwd)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
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


def mean(x: Tensor, axis: int) -> Tensor:
    """Mean over one axis."""
    out = x.data.mean(axis=axis)
    shape = x.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape) / shape[axis],)

    return _make(out, "mean", (x,), bwd)


def sum_(x: Tensor) -> Tensor:
    """Sum of every element."""
    shape = x.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _make(x.data.sum(), "sum", (x,), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    orig = x.shape

    def bwd(g):
        return (g.reshape(orig),)

    return _make(out, "reshape", (x,), bwd)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ShapeError("transpose: input must be at least 2-D")

    def bwd(g):
        return (g.swapaxes(-1, -2),)

    return _make(x.data.swapaxes(-1, -2), "transpose", (x,), bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    # imported here, so that a process that never runs gelu never loads scipy
    from scipy.special import erf

    xd = x.data
    # in-place forms of the plain expressions: a*b == b*a, a+b == b+a exactly
    cdf = xd * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def rebuild():
        return xd * cdf

    out = rebuild()

    def bwd(g):
        # g * (cdf + x * exp(-x²/2) / sqrt(2 pi))
        d = xd * -0.5
        np.exp(np.multiply(d, xd, out=d), out=d)
        d *= _INV_SQRT_2PI
        np.add(np.multiply(d, xd, out=d), cdf, out=d)
        return (np.multiply(d, g, out=d),)

    return _with_rebuild(_make(out, "gelu", (x,), bwd), rebuild)


_LN_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then rescale."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({d},), got {gamma.shape}/{beta.shape}"
        )
    # Centre once; the mean of squares then equals np.var bit for bit.
    y = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(y).mean(axis=-1, keepdims=True) + _LN_EPS)
    y *= inv
    gd, bd = gamma.data, beta.data

    def rebuild():
        r = y * gd
        r += bd
        return r

    out = rebuild()

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

    return _with_rebuild(_make(out, "layernorm", (x, gamma, beta), bwd), rebuild)


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = (np.log(s) + m).squeeze(axis=axis)
    p = e / s

    def bwd(g):
        return (np.expand_dims(g, axis) * p,)

    return _make(out, "logsumexp", (x,), bwd)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each slice along the last axis to unit norm."""
    n = np.linalg.norm(x.data, axis=-1, keepdims=True)
    if (n == 0.0).any():
        raise NonFiniteError("l2_normalize: zero-norm slice")
    y = x.data / n

    def bwd(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * inner) / n,)

    return _make(y, "l2norm", (x,), bwd)


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference, reduced to a scalar."""
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


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Scaled dot-product multi-head attention over already-projected q/k/v.

    Inputs are (..., T, D) with D divisible by n_heads; output has the same
    shape. No masking: every token attends to every token.
    """
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
# reverse pass
# ---------------------------------------------------------------------------


def backward(
    root: Tensor, leaves: Sequence[Tensor], grad: Optional[np.ndarray] = None
) -> list[Optional[np.ndarray]]:
    """Gradient of a scalar root w.r.t. leaves, as a list aligned with them;
    a leaf the root does not reach gets None. `grad`, of the root's shape,
    seeds the pass in place of 1: the gradient that an earlier pass gave a
    leaf cut from `root`, so this pass continues that one below the cut.

    A walk from the root's node orders the node DAG so that parents precede
    children; the reverse pass then visits each node once and frees it as it
    goes: its backward rule and rebuild closure (with the arrays they saved)
    and its parent links.
    A consumed node keeps its `op` but loses its `rule`, so a later pass that
    reaches it raises. No two returned arrays share memory, so the caller may
    write into any.
    """
    if grad is None and root.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.shape}")
    if grad is not None and grad.shape != root.shape:
        raise GraphError(f"backward seed has shape {grad.shape}, root {root.shape}")
    start = root._node or root
    nodes: list = []
    seen = set()
    stack: list[tuple[object, bool]] = [(start, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            nodes.append(n)
            continue
        if id(n) in seen:
            continue
        parents = ()
        if isinstance(n, _Node):
            if n.rule is None:
                raise GraphError(f"'{n.op}' node already consumed by a previous backward pass")
            parents = n.parents
        seen.add(id(n))
        stack.append((n, True))
        for p in parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    grads: dict[int, np.ndarray] = {id(start): np.ones_like(root.data) if grad is None else grad}
    # keys whose array no other slot holds, so contributions add in place;
    # the caller's seed is not
    owned = {id(start): grad is None}
    for n in reversed(nodes):
        g, g_owned = grads.pop(id(n), None), owned.pop(id(n), False)
        if not isinstance(n, _Node):
            if g is not None and n.requires_grad:
                grads[id(n)] = g if g_owned else g.copy()  # leaf: the caller's own array
            continue
        rule, parents = n.rule, n.parents
        n.rule, n.parents, n.rebuild = None, (), None
        if g is None:
            continue
        live = [(p, pg) for p, pg in zip(parents, rule(g)) if p is not None]
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
    return [grads.get(id(leaf)) for leaf in leaves]
