"""Finite-difference validation of every numcore kernel's analytic gradient.

The checker never trusts the autodiff path: expected gradients come from
central differences on the raw forward computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import hdys.numcore.tensor as tz
from hdys.numcore.tensor import Tensor, backward


@dataclass
class KernelReport:
    kind: str
    trials: int
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def _l2norm_input(u):
    x = u(3, 5)
    # keep slices away from the zero-norm singularity
    return x + np.sign(x.sum(axis=-1, keepdims=True)) * 0.5


def _l1dist_inputs(u):
    a, b = u(3, 4), u(3, 4)
    # keep away from the |a-b| kink so the FD stencil stays one-sided-free
    d = a - b
    return [a, a - d - np.sign(d) * 2e-3]


# kind -> every (inputs, call) form one trial checks, with inputs drawn by `u`
# from [-2, 2]. Each call looks its kernel up on `tz` when it runs, so the
# checker exercises a monkeypatched kernel.
CASES = {
    "add": lambda u: [([u(3, 4), u(3, 4)], lambda a, b: tz.add(a, b))],
    "attention": lambda u: [([u(2, 3, 8), u(2, 3, 8), u(2, 3, 8)], lambda q, k, v: tz.attention(q, k, v, 2))],
    "concat": lambda u: [([u(2, 3), u(2, 4)], lambda a, b: tz.concat([a, b], axis=-1))],
    "gelu": lambda u: [([u(3, 4)], lambda x: tz.gelu(x))],
    "l1dist": lambda u: [(_l1dist_inputs(u), lambda a, b: tz.l1_distance(a, b))],
    "l2norm": lambda u: [([_l2norm_input(u)], lambda x: tz.l2_normalize(x))],
    "layernorm": lambda u: [([u(2, 5), u(5), u(5)], lambda x, g, b: tz.layer_norm(x, g, b))],
    "logsumexp": lambda u: [([u(3, 5)], lambda x: tz.logsumexp(x, axis=-1))],
    "matmul": lambda u: [
        ([u(3, 4), u(4, 2)], lambda a, b: tz.matmul(a, b)),
        ([u(2, 3, 2, 4), u(4, 3), u(3)], lambda a, w, b: tz.matmul(a, w, b)),  # activation @ shared weight + bias
        # inputs the weight gradient rebuilds instead of keeping
        ([u(2, 3, 4), u(4, 3), u(3)], lambda x, w, b: tz.matmul(tz.gelu(x), w, b)),
        ([u(2, 3, 5), u(5), u(5), u(5, 3), u(3)],
         lambda x, g, b, w, b2: tz.matmul(tz.layer_norm(x, g, b), w, b2)),
    ],
    "mean": lambda u: [([u(3, 4)], lambda x: tz.mean(x, axis=-1))],
    "mul": lambda u: [([u(3, 4), u(3, 4)], lambda a, b: tz.mul(a, b))],
    "reshape": lambda u: [([u(3, 4)], lambda x: tz.reshape(x, (2, 6)))],
    "slice": lambda u: [([u(3, 6)], lambda x: tz.slice_axis(x, 1, 1, 4))],
    "sub": lambda u: [([u(3, 4), u(3, 4)], lambda a, b: tz.sub(a, b))],
    "sum": lambda u: [([u(3, 4)], lambda x: tz.sum_(x))],
    "transpose": lambda u: [([u(3, 4)], lambda x: tz.transpose(x))],
}


def grad_check(kind: str, trials: int = 10, tol: float = 1e-4, seed: int = 0) -> KernelReport:
    """Compare analytic gradients of one kernel against central differences."""
    sample = CASES[kind]  # KeyError for a kind with no kernel
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-2.0, 2.0, size=shape)
    h = 1e-5
    worst = 0.0
    for arrays, call in (case for _ in range(trials) for case in sample(u)):
        out0 = call(*[Tensor(a) for a in arrays])
        weights = rng.uniform(-1.0, 1.0, size=out0.shape)

        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = call(*leaves)
        assert out._node.op == kind, f"the {kind} case built a '{out._node.op}' node"
        analytic = backward(tz.sum_(tz.mul(out, Tensor(weights))), leaves)

        def f(arrs) -> float:
            return float((call(*[Tensor(a) for a in arrs]).data * weights).sum())

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
