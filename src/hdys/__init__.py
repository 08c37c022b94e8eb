"""Homogeneous dynamics space over heterogeneous motion representations.

Subpackages: numcore (autodiff + AdamW), rbd (articulated rigid-body
oracle), kinrep (per-frame representations), datahub (synthetic domains and
dataset files), model (encoders, decoders, losses), engine (training,
metrics, rollouts, ablations), codec (binary fields, atomic writes), cli
(hdysctl).
"""

__version__ = "0.1.0"
