"""Smooth synthetic motion generators with exact analytic derivatives.

Two families: multi-harmonic oscillation around a posture (gait-like) and
cubic splines through random knots (broad coverage). Every generator returns exact (q, qd, qdd)
sampled on the frame grid, so inverse-dynamics labels need no approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from ..rbd import GeneralizedState

FAMILIES = ("periodic-gait-like", "random-smooth-spline")


class MotionError(Exception):
    pass


@dataclass(frozen=True)
class MotionSpec:
    family: str
    bias: tuple[float, ...]  # rest posture, one per DoF
    amp_base: tuple[float, ...]  # per-DoF amplitude ceiling, rad
    amp_scale: tuple[float, float]  # per-sequence multiplier range
    freq_range: tuple[float, float]  # Hz

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise MotionError(f"unknown motion family '{self.family}'")
        if len(self.bias) != len(self.amp_base):
            raise MotionError("bias and amp_base lengths differ")


def sample_trajectory(
    spec: MotionSpec, duration: float, fps: float, rng: np.random.Generator
) -> GeneralizedState:
    n = len(spec.bias)
    frames = int(round(duration * fps)) + 1
    t = np.arange(frames) / fps
    bias = np.asarray(spec.bias)
    amps = np.asarray(spec.amp_base) * rng.uniform(*spec.amp_scale, size=n)

    if spec.family == "periodic-gait-like":
        base_f = rng.uniform(*spec.freq_range)
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
