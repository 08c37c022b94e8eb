import importlib.util
import sys
from pathlib import Path

import numpy as np

import hdys.cli  # noqa: F401  (imports every layer the tracer wraps)
import hdys.kinrep
import hdys.rbd.dynamics
from hdys.model.layers import ParamSet, TransformerLayer
from hdys.numcore import Tensor, backward, sum_

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _hdys_namespaces():
    """Every hdys module and every class defined in one, by name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "hdys" or name.startswith("hdys."):
            out[name] = mod
            for key, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{key}"] = value
    return out


def test_benchmark_tracer_finds_every_boundary_and_restores_it():
    """The benchmark's traced run wraps the public function of each layer by
    name; a renamed or moved boundary makes `install` raise."""
    before = {name: dict(vars(ns)) for name, ns in _hdys_namespaces().items()}
    rnea = hdys.rbd.dynamics.rnea
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert hdys.rbd.dynamics.rnea is not rnea and hdys.kinrep.rnea.__wrapped__ is rnea
    finally:
        tracer.uninstall()
    for name, ns in _hdys_namespaces().items():
        now = vars(ns)
        changed = [key for key, value in before.get(name, {}).items() if now.get(key) is not value]
        assert not changed, (name, changed)


def test_traced_layer_gives_the_untraced_gradients():
    """The traced run hands each kernel's backward rule to `_make` wrapped in a
    span, through `_make`'s four arguments; a kernel that calls `_make` any
    other way fails here, and the traced gradients stay bit for bit."""

    def gradients():
        ps = ParamSet(seed=0)
        block = TransformerLayer(ps, "blk", dim=8, heads=2, ffn_mult=2)
        y = block(Tensor(np.random.default_rng(5).normal(size=(3, 6, 8))))
        return backward(sum_(y), list(ps.params.values()))

    want = gradients()
    tracer = _tracing().Tracer()
    with tracer.recording("round"):
        got = gradients()
    assert {"numcore.matmul.bwd", "numcore.gelu.bwd", "numcore.layernorm.bwd"} <= {span[0] for span in tracer.spans}
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
