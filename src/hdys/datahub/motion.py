"""Smooth synthetic motion generators with exact analytic derivatives.

Two families: multi-harmonic oscillation around a posture (gait-like) and
cubic splines through random knots (broad coverage). Every generator returns exact (q, qd, qdd)
sampled on the frame grid, so inverse-dynamics labels need no approximation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.interpolate import CubicSpline

from ..rbd import GeneralizedState

if TYPE_CHECKING:
    from .profiles import DomainProfile

FAMILIES = ("periodic-gait-like", "random-smooth-spline")


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
    frames = int(round(duration * fps)) + 1
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
    spline = CubicSpline(knot_t, knot_q, axis=0, bc_type="clamped")
    return GeneralizedState(spline(t), spline(t, 1), spline(t, 2))
