"""Homogeneous dynamics space over heterogeneous motion representations.

Subpackages: numcore (autodiff + AdamW), rbd (articulated rigid-body
oracle), kinrep (per-frame representations), datahub (synthetic domains and
dataset files), model (encoders, decoders, losses), engine (training,
metrics, rollouts, ablations), codec (binary fields, atomic writes), cli
(hdysctl).
"""

__version__ = "0.1.0"


class HdysError(Exception):
    """A failure that the run's inputs cause: a dataset, run directory, motion
    or configuration that the program cannot use. hdysctl prints it as
    `error: <message>` and exits 1."""
