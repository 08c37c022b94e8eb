"""Finite-difference validation of every kernel's analytic gradient.

The checker never trusts the autodiff path: expected gradients come from
central differences on the raw forward computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor, UnknownOpError, backward, op_forward


@dataclass
class KernelReport:
    kind: str
    trials: int
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def _sample(kind: str, rng: np.random.Generator):
    """Random float64 inputs in [-2, 2] plus op attributes."""
    u = lambda *shape: rng.uniform(-2.0, 2.0, size=shape)
    if kind == "matmul":
        return [u(3, 4), u(4, 2)], {}
    if kind in ("add", "sub", "mul"):
        return [u(3, 4), u(3, 4)], {}
    if kind == "concat":
        return [u(2, 3), u(2, 4)], {"axis": -1}
    if kind == "slice":
        return [u(3, 6)], {"axis": 1, "start": 1, "stop": 4}
    if kind == "mean":
        return [u(3, 4)], {"axis": -1}
    if kind == "sum":
        return [u(3, 4)], {}
    if kind == "transpose":
        return [u(3, 4)], {}
    if kind == "reshape":
        return [u(3, 4)], {"shape": (2, 6)}
    if kind == "gelu":
        return [u(3, 4)], {}
    if kind == "layernorm":
        return [u(2, 5), u(5), u(5)], {}
    if kind == "softmax":
        return [u(3, 5)], {"axis": -1}
    if kind == "logsumexp":
        return [u(3, 5)], {"axis": -1}
    if kind == "l2norm":
        x = u(3, 5)
        # keep slices away from the zero-norm singularity
        x += np.sign(x.sum(axis=-1, keepdims=True)) * 0.5
        return [x], {"axis": -1}
    if kind == "l1dist":
        a, b = u(3, 4), u(3, 4)
        # keep away from the |a-b| kink so the FD stencil stays one-sided-free
        d = a - b
        b = a - d - np.sign(d) * 2e-3
        return [a, b], {}
    if kind == "attention":
        return [u(2, 3, 8), u(2, 3, 8), u(2, 3, 8)], {"n_heads": 2}
    raise UnknownOpError(f"no sampler for op kind '{kind}'")


def grad_check(kind: str, trials: int = 10, tol: float = 1e-4, seed: int = 0) -> KernelReport:
    """Compare analytic gradients of one kernel against central differences."""
    if kind not in tz.OP_NAMES:
        raise UnknownOpError(f"unknown op kind '{kind}'")
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(trials):
        arrays, attrs = _sample(kind, rng)
        out0 = op_forward(kind, [Tensor(a) for a in arrays], attrs)
        weights = rng.uniform(-1.0, 1.0, size=out0.shape)

        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        root = tz.sum_(tz.mul(op_forward(kind, leaves, attrs), Tensor(weights)))
        analytic = backward(root, leaves)

        def f(arrs) -> float:
            out = op_forward(kind, [Tensor(a) for a in arrs], attrs)
            return float((out.data * weights).sum())

        for i, a in enumerate(arrays):
            fd = np.zeros_like(a)
            flat = fd.reshape(-1)
            for j in range(a.size):
                bumped = [x.copy() for x in arrays]
                bumped[i].reshape(-1)[j] += h
                hi = f(bumped)
                bumped[i].reshape(-1)[j] -= 2 * h
                lo = f(bumped)
                flat[j] = (hi - lo) / (2 * h)
            denom = max(1.0, float(np.abs(fd).max()))
            err = float(np.abs(analytic[i] - fd).max()) / denom
            worst = max(worst, err)
    return KernelReport(kind=kind, trials=trials, max_rel_err=worst, tol=tol)


def check_catalog(trials: int = 10, tol: float = 1e-4, seed: int = 0) -> list[KernelReport]:
    return [grad_check(kind, trials=trials, tol=tol, seed=seed) for kind in tz.OP_NAMES]
