"""Self-describing binary checkpoint files.

Layout (strings, arrays and payloads as encoded by `hdys.codec`):

    magic "HDYS1"
    u32 number of arrays
    per array: name string, array
    u8 optimizer-present flag
    if present: u64 step, f64 lr, f64 weight_decay, f64 beta1, f64 beta2, f64 eps,
                u32 number of tracked arrays,
                per array: name string, m payload, v payload
                (shapes as recorded for the parameter of the same name)

Round trips are byte-identical: float64 payloads are written verbatim.
Files are replaced atomically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..codec import Reader, Writer, atomic_write
from .adamw import AdamWState

MAGIC = b"HDYS1"


class CheckpointError(Exception):
    pass


def save_checkpoint(path, arrays: dict[str, np.ndarray], opt: Optional[AdamWState] = None) -> None:
    w = Writer(MAGIC, CheckpointError)
    w.pack("<I", len(arrays))
    for name, a in arrays.items():
        w.str(name)
        w.array(a)
    if opt is None:
        w.pack("<B", 0)
    else:
        w.pack("<B", 1)
        w.pack("<Qddddd", opt.step, opt.lr, opt.weight_decay, opt.beta1, opt.beta2, opt.eps)
        w.pack("<I", len(opt.m))
        for name in opt.m:
            if name not in arrays:
                raise CheckpointError(f"optimizer slot '{name}' has no matching array")
            w.str(name)
            w.payload(opt.m[name])
            w.payload(opt.v[name])
    atomic_write(path, w.bytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], Optional[AdamWState]]:
    with open(path, "rb") as fh:
        r = Reader(fh.read(), MAGIC, "checkpoint", CheckpointError)
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("<I")):
        name = r.str()
        arrays[name] = r.array()
    opt = None
    if r.unpack("<B"):
        step, lr, wd, b1, b2, eps = r.unpack("<Qddddd")
        opt = AdamWState(lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps, step=step)
        for _ in range(r.unpack("<I")):
            name = r.str()
            if name not in arrays:
                raise CheckpointError(f"optimizer slot '{name}' has no matching array")
            shape = arrays[name].shape
            opt.m[name] = r.payload(shape)
            opt.v[name] = r.payload(shape)
    r.done()
    return arrays, opt
