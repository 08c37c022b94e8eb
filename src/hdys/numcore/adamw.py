"""AdamW with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor


@dataclass
class AdamWState:
    lr: float = 1e-3
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(state: AdamWState, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
    """One optimizer step, updating parameter data in place.

    `grads` must cover every parameter. With all-zero gradients and zero
    weight decay the parameters are left untouched.
    """
    missing = [k for k in params if k not in grads]
    if missing:
        raise KeyError(f"gradients missing for parameters: {missing[:4]}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"param '{name}': grad shape {g.shape} != param shape {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay != 0.0:
            update = update + state.weight_decay * p.data
        p.data = p.data - state.lr * update
