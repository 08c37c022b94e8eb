"""Simplified muscle layer: linear force law and activation recovery.

Forces are F_max * a with configuration-independent moment arms, so torque
generation is linear in the activation vector and recovering activations is
a box-constrained minimum-norm least-squares problem. That problem is solved
through its dual: a(lam) = clip(B^T lam, 0, 1) turns the stationarity
condition into the piecewise-linear equation B a(lam) = tau, handled by a
semismooth Newton iteration whose line search descends the convex dual
objective. A whole sequence is solved in one call: the closed form for every
frame at once, then one batched Newton run over the frames whose closed form
leaves the box. There is no other fallback: a frame that run misses is
infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SOLVE_TOL = 1e-6  # residual bound per target, relative to max(1, |tau|)
NEWTON_ITERS = 120
EMG_TIME_CONSTANT = 0.040  # seconds
EMG_MULT_SIGMA = 0.10
EMG_ADD_SIGMA = 0.02


class MuscleError(Exception):
    pass


class InfeasibleActivation(MuscleError):
    """Requested torque lies outside the torque polytope."""


@dataclass(frozen=True)
class MuscleSet:
    names: tuple[str, ...]
    moment_arms: np.ndarray  # (n_muscles, n_actuated), meters
    f_max: np.ndarray  # (n_muscles,), Newtons

    def __post_init__(self):
        arms = np.asarray(self.moment_arms, dtype=np.float64)
        fmax = np.asarray(self.f_max, dtype=np.float64)
        object.__setattr__(self, "moment_arms", arms)
        object.__setattr__(self, "f_max", fmax)
        if arms.ndim != 2 or arms.shape[0] != len(self.names):
            raise MuscleError("moment_arms must be (n_muscles, n_actuated)")
        if fmax.shape != (len(self.names),) or (fmax <= 0).any():
            raise MuscleError("f_max must be positive per muscle")

    @property
    def n_muscles(self) -> int:
        return len(self.names)

    @property
    def n_actuated(self) -> int:
        return self.moment_arms.shape[1]

    @property
    def torque_map(self) -> np.ndarray:
        """B with tau = B a: (n_actuated, n_muscles)."""
        return self.moment_arms.T * self.f_max[None, :]


def muscle_to_torque(ms: MuscleSet, a: np.ndarray) -> np.ndarray:
    """Torques over actuated DoFs produced by activations in [0, 1]."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1] != ms.n_muscles:
        raise MuscleError(f"expected {ms.n_muscles} activations, got {a.shape[-1]}")
    if (a < -1e-12).any() or (a > 1.0 + 1e-12).any():
        raise MuscleError("activations must lie in [0, 1]")
    return a @ ms.torque_map.T


def _rows(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x[i] for every row i of the (R, q) array x, one product per row."""
    return (m @ x[..., None])[..., 0]


def _newton(b: np.ndarray, tau: np.ndarray, lam0: np.ndarray):
    """Semismooth Newton on B clip(B^T lam, 0, 1) = tau, one (R, n) row per target.

    The residual r is the gradient of the convex dual objective
    f(lam) = sum h(B^T lam) - lam . tau, with h the integral of clip, and the
    line search asks f for sufficient decrease, which makes the run globally
    convergent on feasible targets (Hintermueller, Ito & Kunisch, SIAM J.
    Optim. 13, 2002). Each row iterates on its own and stops on its own:
    converged, no acceptable step along its Newton direction, or a singular
    Jacobian (which stops every row of that solve). Returns each row's
    activations and residual at its last multipliers.
    """
    lam = lam0.copy()
    n = b.shape[0]
    live = np.arange(len(lam))
    for _ in range(NEWTON_ITERS):
        u = _rows(b.T, lam[live])
        cu = np.clip(u, 0.0, 1.0)
        r = _rows(b, cu) - tau[live]
        going = ~(np.abs(r).max(axis=1) < 1e-12)
        live, u, cu, r = live[going], u[going], cu[going], r[going]
        if not live.size:
            break
        # generalized Jacobian: inclusive mask so the kink at exact bounds
        # still yields a useful Newton direction
        free = (u >= 0.0) & (u <= 1.0)
        jac = (b * free[:, None, :]) @ b.T + 1e-10 * np.eye(n)
        try:
            d = np.linalg.solve(jac, r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        # backtracking on the dual objective, each row with its own step. Along
        # lam - t d it changes by -t slope + sum (c_v - c_u)(v - (c_u + c_v) / 2),
        # a form that keeps the decrease visible below the rounding of f itself
        slope = (r * d).sum(axis=1)
        t = np.ones(len(live))
        improved = np.zeros(len(live), dtype=bool)
        search = np.arange(len(live))
        while search.size:
            trial = lam[live[search]] - t[search, None] * d[search]
            v = _rows(b.T, trial)
            cv = np.clip(v, 0.0, 1.0)
            c0 = cu[search]
            gap = ((cv - c0) * (v - 0.5 * (c0 + cv))).sum(axis=1)
            ok = gap <= (1.0 - 1e-4) * t[search] * slope[search]
            lam[live[search[ok]]] = trial[ok]
            improved[search[ok]] = True
            search = search[~ok]
            t[search] *= 0.5
            search = search[t[search] > 1e-20]
        live = live[improved]
    a = np.clip(_rows(b.T, lam), 0.0, 1.0)
    return a, _rows(b, a) - tau


def solve_activations(ms: MuscleSet, tau_target: np.ndarray) -> np.ndarray:
    """Minimum-norm activations reproducing each torque target, or a loud failure.

    tau_target is one target (n,) or a sequence of them (F, n), and the
    result has the same leading shape with one column per muscle. Requires
    at least as many muscles as actuated DoFs and a full-row-rank moment-arm
    matrix, checked once per call. Targets whose unconstrained minimum-norm
    solution lies in the box keep it; the rest go through one batched Newton
    run, with no other fallback. A target that run leaves with a residual
    above SOLVE_TOL * max(1, |tau|) is infeasible and raises
    InfeasibleActivation (naming the first such frame of a sequence) instead
    of being clipped.
    """
    tau = np.asarray(tau_target, dtype=np.float64)
    b = ms.torque_map
    n, k = b.shape
    if tau.ndim not in (1, 2) or tau.shape[-1] != n:
        raise MuscleError(f"tau_target must be ({n},) or (F, {n})")
    if k < n:
        raise MuscleError("need at least as many muscles as actuated DoFs")
    if np.linalg.matrix_rank(b) < n:
        raise MuscleError("moment-arm matrix is not full row rank")

    taus = tau.reshape(-1, n)
    gram = b @ b.T
    lam0 = np.linalg.solve(np.broadcast_to(gram, (len(taus), n, n)), taus[..., None])[..., 0]
    acts = _rows(b.T, lam0)  # unconstrained minimum-norm solutions
    out = np.flatnonzero(~((acts >= 0.0) & (acts <= 1.0)).all(axis=1))
    if out.size:
        a, r = _newton(b, taus[out], lam0[out])
        res = np.abs(r).max(axis=1)
        missed = np.flatnonzero(~(res <= SOLVE_TOL * np.maximum(1.0, np.abs(taus[out]).max(axis=1))))
        if missed.size:
            i = missed[0]
            where = f"frame {out[i]}: " if tau.ndim == 2 else ""
            raise InfeasibleActivation(
                f"{where}torque outside the achievable polytope (residual {res[i]:.3e})"
            )
        acts[out] = a
    return acts.reshape(tau.shape[:-1] + (k,))


def synth_emg(a_sequence: np.ndarray, fps: float, noise_seed: int | None = 0) -> np.ndarray:
    """Surface-EMG-like channels from an activation trajectory.

    First-order low-pass (exact zero-order-hold discretization, one frame of
    transport delay) plus multiplicative and additive Gaussian noise, clamped
    at zero. Pass noise_seed=None to disable noise.
    """
    a = np.asarray(a_sequence, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if (a < -1e-12).any() or (a > 1 + 1e-12).any():
        raise MuscleError("activations must lie in [0, 1]")
    alpha = 1.0 - np.exp(-1.0 / (fps * EMG_TIME_CONSTANT))
    y = np.empty_like(a)
    y[0] = a[0]
    for t in range(1, a.shape[0]):
        y[t] = (1.0 - alpha) * y[t - 1] + alpha * a[t - 1]
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        y = y * (1.0 + EMG_MULT_SIGMA * rng.standard_normal(y.shape))
        y = y + EMG_ADD_SIGMA * rng.standard_normal(y.shape)
    return np.maximum(y, 0.0)
