"""Smooth synthetic motion generators with exact analytic derivatives.

Two families: multi-harmonic oscillation around a posture (gait-like) and
cubic splines through random knots (broad coverage). Every generator returns exact (q, qd, qdd)
sampled on the frame grid, so inverse-dynamics labels need no approximation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..rbd import GeneralizedState

if TYPE_CHECKING:
    from .profiles import DomainProfile

FAMILIES = ("periodic-gait-like", "random-smooth-spline")


def frame_count(duration: float, fps: float) -> int:
    """Frames of a `duration`-second motion sampled at `fps`, both ends included."""
    return int(round(duration * fps)) + 1


def sample_trajectory(
    profile: DomainProfile,
    bias: np.ndarray,
    amp_base: np.ndarray,
    duration: float,
    fps: float,
    rng: np.random.Generator,
) -> GeneralizedState:
    """One motion of `profile`'s family around the rest posture `bias`, with
    per-DoF amplitude ceilings `amp_base` scaled by a draw from `amp_scale`."""
    n = len(bias)
    frames = frame_count(duration, fps)
    t = np.arange(frames) / fps
    amps = amp_base * rng.uniform(*profile.amp_scale, size=n)

    if profile.family == "periodic-gait-like":
        base_f = rng.uniform(*profile.freq_range)
        harmonics = (1.0, 2.0, 3.0)
        weights = np.array([1.0, 0.35, 0.15])
        q = np.broadcast_to(bias, (frames, n)).copy()
        qd = np.zeros((frames, n))
        qdd = np.zeros((frames, n))
        for h, w in zip(harmonics, weights):
            a = amps * w * rng.uniform(0.5, 1.0, size=n)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=n)
            om = 2.0 * np.pi * base_f * h
            arg = om * t[:, None] + ph
            q += a * np.sin(arg)
            qd += a * om * np.cos(arg)
            qdd -= a * om**2 * np.sin(arg)
        return GeneralizedState(q, qd, qdd)

    # random-smooth-spline
    n_knots = max(4, int(round(duration / 0.45)) + 1)
    knot_t = np.linspace(0.0, duration, n_knots)
    knot_q = bias + rng.uniform(-1.0, 1.0, size=(n_knots, n)) * amps
    return GeneralizedState(*clamped_spline(knot_t, knot_q, t))


def clamped_spline(knot_t: np.ndarray, knot_q: np.ndarray, t: np.ndarray):
    """(q, qd, qdd) at times `t` >= knot_t[0] of the cubic spline through
    `knot_q` (knots on axis 0) with zero end slopes, extrapolating past the
    last knot.

    Bit for bit scipy's `CubicSpline(knot_t, knot_q, axis=0, bc_type="clamped")`
    and its first two derivatives: the same operations in the same order, from
    the knot-slope system to the polynomial evaluation.
    """
    n = len(knot_t)
    dx = np.diff(knot_t)
    dxr = dx[:, None]
    slope = np.diff(knot_q, axis=0) / dxr

    # Knot slopes: the tridiagonal system with clamped end rows, solved as
    # LAPACK's dgtsv does. dgtsv swaps rows only where |d[i]| < |dl[i]|, which
    # never happens here: the first row's diagonal is 1 and its sub-diagonal
    # is a knot spacing (near 0.45 s; sample_trajectory's knot rule keeps it
    # below 0.525 s), and the inner rows are diagonally dominant.
    d = [1.0] + (2 * (dx[:-1] + dx[1:])).tolist() + [1.0]
    du = [0.0] + dx[:-1].tolist()
    dl = dx[1:].tolist() + [0.0]
    s = np.empty_like(knot_q)
    s[0] = s[-1] = 0.0
    s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        s[i + 1] -= fact * s[i]
    s[-1] /= d[-1]
    s[-2] = (s[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        # dgtsv also subtracts its eliminated (zero) sub-diagonal's product;
        # kept so that even the sign of a zero slope follows it
        s[i] = (s[i] - du[i] * s[i + 1] - 0.0 * s[i + 2]) / d[i]

    # Hermite coefficients per interval, highest power first.
    tk = (s[:-1] + s[1:] - 2 * slope) / dxr
    c3, c2, c1, c0 = tk / dxr, (slope - s[:-1]) / dxr - tk, s[:-1], knot_q[:-1]

    # Evaluation: intervals closed on the left, the last one extended; each
    # derivative sums its terms from the lowest power up, starting from 0.0.
    k = np.minimum(np.searchsorted(knot_t, t, "right") - 1, n - 2)
    z = (t - knot_t[k])[:, None]
    c3, c2, c1, c0 = c3[k], c2[k], c1[k], c0[k]
    z2 = z * z
    q = 0.0 + c0 + c1 * z + c2 * z2 + c3 * (z2 * z)
    qd = 0.0 + c1 + c2 * z * 2.0 + c3 * z2 * 3.0
    qdd = 0.0 + c2 * 2.0 + c3 * z * 6.0
    return q, qd, qdd
