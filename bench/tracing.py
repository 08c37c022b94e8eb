"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each hdys layer from outside the
package: every module under ``hdys`` that holds a reference to a wrapped
function gets the wrapper in its place, so a call is caught wherever the name
is looked up (``hdys.kinrep.rnea`` as well as ``hdys.rbd.dynamics.rnea``).
Nothing inside ``src/`` changes. Spans (name, start, end, parent, phase,
extra) stay in memory and are written out once the run ends. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# numcore kernel name in OP_NAMES -> function name in hdys.numcore.tensor
OP_FUNCTIONS = {
    "slice": "slice_axis",
    "sum": "sum_",
    "layernorm": "layer_norm",
    "l2norm": "l2_normalize",
    "l1dist": "l1_distance",
}

CALIBRATION = "bench.calibrate"  # the benchmark's own speed kernel (speed.py)

# (span name, module, attribute): the public boundaries of each layer.
BOUNDARIES = [
    ("numcore.backward", "hdys.numcore.tensor", "backward"),
    ("numcore.adamw_step", "hdys.numcore.adamw", "adamw_step"),
    ("model.encode_kinematics", "hdys.model.network", "HDySModel.encode_kinematics"),
    ("model.encode_kinematics_stripped", "hdys.model.network", "HDySModel.encode_kinematics_stripped"),
    ("model.refine", "hdys.model.network", "HDySModel.refine"),
    ("model.forward_group", "hdys.model.network", "HDySModel.forward_group"),
    ("model.loss_recon", "hdys.model.losses", "loss_recon"),
    ("model.loss_align", "hdys.model.losses", "loss_align"),
    ("model.total_loss", "hdys.model.losses", "total_loss"),
    ("engine.build_groups", "hdys.engine.batching", "build_groups"),
    ("engine.predict_sequences", "hdys.engine.evaluate", "predict_sequences"),
    ("engine.evaluate", "hdys.engine.evaluate", "evaluate"),
    ("engine.rollout_eval", "hdys.engine.rollout", "rollout_eval"),
    ("engine.train", "hdys.engine.train", "train"),
    ("rbd.rnea", "hdys.rbd.dynamics", "rnea"),
    ("rbd.mass_matrix", "hdys.rbd.dynamics", "mass_matrix"),
    ("rbd.forward_dynamics", "hdys.rbd.dynamics", "forward_dynamics"),
    ("rbd.step", "hdys.rbd.dynamics", "step"),
    ("rbd.solve_activations", "hdys.rbd.muscle", "solve_activations"),
    ("rbd.synth_emg", "hdys.rbd.muscle", "synth_emg"),
    ("rbd.forward_kinematics", "hdys.rbd.tree", "KinematicTree.forward_kinematics"),
    ("kinrep.build_representations", "hdys.kinrep", "build_representations"),
    ("kinrep.attach_dynamics", "hdys.kinrep", "attach_dynamics"),
    ("kinrep.finite_difference", "hdys.kinrep", "finite_difference"),
    ("datahub.generate_sequence", "hdys.datahub.profiles", "generate_sequence"),
    ("datahub.sample_trajectory", "hdys.datahub.motion", "sample_trajectory"),
    ("datahub.write_record", "hdys.datahub.records", "write_record"),
    ("datahub.read_record", "hdys.datahub.records", "read_record"),
]


def _rnea_frames(args, kwargs, out):
    q = (args[1] if len(args) > 1 else kwargs["state"]).q
    return 1 if q.ndim == 1 else q.shape[0]


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _matmul_flop(args, kwargs, out):
    a = args[0]
    inner = getattr(a, "data", a).shape[-1]
    return 2.0 * out.data.size * inner


# Per-call quantities recorded in a span's `extra` field.
EXTRAS = {
    "rbd.rnea": _rnea_frames,
    "datahub.write_record": _file_bytes,
    "datahub.read_record": _file_bytes,
    "numcore.matmul": _matmul_flop,
}


def boundaries() -> list[tuple[str, str, str]]:
    """Every traced boundary: the layer functions plus each numcore kernel."""
    tensor = importlib.import_module("hdys.numcore.tensor")
    ops = [(f"numcore.{op}", "hdys.numcore.tensor", OP_FUNCTIONS.get(op, op)) for op in tensor.OP_NAMES]
    return ops + BOUNDARIES


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    extra: float = 0.0


class Tracer:
    """Records spans while `phase` is set; passes calls straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase, extra]
        self.phase: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------------

    def wrap(self, name, fn, extra=None):
        """`fn` recording a span named `name` (and `extra(args, kwargs, result)`)."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.phase, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, perf_counter()
                tracer._stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every boundary where it is looked up; raise if one has moved."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "hdys" or n.startswith("hdys.")]
        for name, module_name, attr in boundaries():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                if meth not in vars(cls):
                    raise AttributeError(f"traced boundary {module_name}.{attr} no longer exists")
                self._set(cls, meth, self.wrap(name, vars(cls)[meth], EXTRAS.get(name)))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                raise AttributeError(f"traced boundary {module_name}.{attr} no longer exists")
            wrapper = self.wrap(name, original, EXTRAS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        # Each kernel hands its backward rule to _make; time those rules too.
        tensor = importlib.import_module("hdys.numcore.tensor")
        make = tensor._make

        def traced_make(out, op, parents, bwd):
            return make(out, op, parents, self.wrap(f"numcore.{op}.bwd", bwd))

        self._set(tensor, "_make", traced_make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def recording(self, phase: str):
        self.install()
        self.phase = phase
        try:
            yield
        finally:
            self.phase = None
            self.uninstall()

    @contextmanager
    def paused(self):
        """Run the block unrecorded, e.g. the benchmark's own output checks."""
        phase, self.phase = self.phase, None
        try:
            yield
        finally:
            self.phase = phase

    # -- results ----------------------------------------------------------------

    def stats(self, phase: str) -> dict[str, Stat]:
        """Per-name totals; time spent in CALIBRATION spans counts toward no layer."""
        n = len(self.spans)
        child = [0.0] * n
        calibration = [0.0] * n
        for i in range(n - 1, -1, -1):  # children come after their parents
            name, start, end, parent, _, _ = self.spans[i]
            if name == CALIBRATION:
                calibration[i] = end - start
            if parent >= 0:
                child[parent] += end - start
                calibration[parent] += calibration[i]
        out: dict[str, Stat] = defaultdict(Stat)
        for i, (name, start, end, parent, ph, extra) in enumerate(self.spans):
            if ph != phase or name == CALIBRATION:
                continue
            st = out[name]
            st.calls += 1
            st.s += end - start - calibration[i]
            st.self_s += end - start - child[i]
            st.extra += extra
        return out

    def rnea_split(self, phase: str) -> tuple[int, float, int, float]:
        """(single-frame calls, their seconds, batched frames, their seconds)."""
        single = single_s = frames = batched_s = 0
        for name, start, end, _, ph, extra in self.spans:
            if name != "rbd.rnea" or ph != phase:
                continue
            if extra == 1:
                single += 1
                single_s += end - start
            else:
                frames += extra
                batched_s += end - start
        return single, single_s, frames, batched_s

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "phase", "start_s", "end_s", "parent", "extra"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, ph, extra) in enumerate(self.spans):
                w.writerow([i, name, ph, f"{start - t0:.7f}", f"{end - t0:.7f}", parent, extra])


class NullTracer:
    """Stand-in for untraced runs."""

    @contextmanager
    def paused(self):
        yield
