"""Calibrated timing: wall time corrected for the machine's speed at the moment.

On a shared machine the same work can take 1.7x longer from one minute to
the next (measured on a 2-core VM whose steal time stayed near zero, so the
guest cannot see the cause). Each timed interval is therefore bracketed by a
fixed numpy kernel, and its wall time is scaled by reference / (mean kernel
time around it). The result reads as seconds at the reference speed; the raw
wall time is reported beside it. Long intervals also run the kernel at
points inside them (after calls of a named hdys function), so the speed is
sampled every quarter second or so; kernel time itself is never counted. The
kernels never call hdys, so only a change in hdys moves a calibrated time.

The slowdowns do not hit all code alike, so there are two kernels, and each
interval is calibrated by the one that matches its bottleneck (NOTES.md has
the measurements behind the choice):

- ``interp``: a Python loop of 3-vector numpy calls, interpreter-bound like
  the rigid-body oracle (gen-data, rollouts, dataset set-up);
- ``array``: BLAS matmuls and elementwise work on 2 MB arrays, like the
  autodiff kernels (training steps, eval).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Median kernel seconds on the reference box (2-core VM, OpenBLAS, 1 thread).
REFERENCE_S = {"interp": 0.023, "array": 0.044}


@dataclass(frozen=True)
class Timing:
    raw: float  # wall seconds
    cal: float  # seconds at the reference speed


class SpeedClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._v3 = rng.normal(size=(8, 3))
        self._m3 = rng.normal(size=(3, 3))
        self._x = rng.normal(size=(4080, 64))
        self._w = rng.normal(size=(64, 128))
        self.kernel_s: dict[str, list[float]] = {kind: [] for kind in REFERENCE_S}

    def kernel(self, kind: str) -> float:
        start = perf_counter()
        acc = 0.0
        if kind == "interp":
            for i in range(600):
                c = np.cross(self._v3[i % 8], self._v3[(i + 3) % 8])
                acc += float(self._m3 @ c @ c)
        else:
            for _ in range(6):
                h = self._x @ self._w
                acc += float((np.tanh(h) * h @ self._w.T).sum())
        took = perf_counter() - start
        if not np.isfinite(acc):
            raise FloatingPointError("calibration kernel produced a non-finite value")
        self.kernel_s[kind].append(took)
        return took

    @contextmanager
    def sampled(self, kind: str, at: tuple[str, str] | None = None, gap_s: float = 0.0):
        """Run the kernel before and after the block, and after calls of `at`.

        `at` names a function as (module, attribute); the kernel runs after a
        call of it once `gap_s` has passed since the last kernel. Yields a
        Samples whose pieces are the stretches between kernel runs.
        """
        samples = Samples(kind)
        samples.marks.append((0.0, self.kernel(kind), perf_counter()))
        module = sys.modules[at[0]] if at else None
        inner = getattr(module, at[1]) if at else None

        def hooked(*args, **kwargs):
            out = inner(*args, **kwargs)
            now = perf_counter()
            if now - samples.marks[-1][2] >= gap_s:
                samples.marks.append((now, self.kernel(kind), perf_counter()))
            return out

        if at:
            setattr(module, at[1], hooked)
        try:
            yield samples
            end = perf_counter()
        finally:
            if at:
                setattr(module, at[1], inner)
        samples.marks.append((end, self.kernel(kind), end))

    @contextmanager
    def timed(self, kind: str, out: list, at: tuple[str, str] | None = None, gap_s: float = 0.25):
        """Append the calibrated Timing of the block to `out` (nothing if it raises)."""
        with self.sampled(kind, at, gap_s) as samples:
            yield
        out.append(samples.total())


class Samples:
    """Kernel runs inside one timed block; kernel time is never counted."""

    def __init__(self, kind: str):
        self.ref = REFERENCE_S[kind]
        self.marks: list[tuple[float, float, float]] = []  # (pause, kernel s, resume)

    def pieces(self) -> list[Timing]:
        out = []
        for (_, k0, resume), (pause, k1, _) in zip(self.marks, self.marks[1:]):
            raw = pause - resume
            out.append(Timing(raw, raw * self.ref * 2.0 / (k0 + k1)))
        return out

    def total(self) -> Timing:
        pieces = self.pieces()
        return Timing(sum(p.raw for p in pieces), sum(p.cal for p in pieces))
