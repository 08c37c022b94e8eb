"""Inverse and forward dynamics on kinematic trees.

Recursive Newton-Euler (RNEA) is the one dynamics recursion: it runs
batched over frames, with spatial vectors kept as separate angular/linear
3-vector arrays. The mass matrix is RNEA at unit accelerations, one frame per
column (zero velocity, no gravity), and forward dynamics solves
M(q) qdd = tau - bias with one batched LU solve over the frames. A batch at
rest (qd all zero, as in the mass matrix and static torques) skips every
velocity product, since its bodies' velocities are zero. Joint torques and
gravity are the only forces; contact and other external wrenches are not
modelled.

Every entry point takes states with frames on axis 0, (F, n_dof), and
rejects a bare (n_dof,) state. A one-row RNEA call (the bias term of a
one-row `forward_dynamics`) is bound by the count of small numpy calls
per body, not by arithmetic, so the recursion keeps that count low and every
byte as it is. What does not depend on the body is set up once per call:
`KinematicTree.joint_transforms` forms every revolute body's rotation in one
Rodrigues pass over all frames, the joint velocities and accelerations are
multiplied by the axes as (F, n_bodies, 3) arrays, and every joint torque is
read in one einsum after the backward sweep. Each body's motion is a tuple
of (F, 3) arrays; `_cross` forms numpy's six products with one gather per
operand and one multiply, and a constant operand (a body's COM, a
revolute's joint offset) comes gathered once per tree (`_lcross`,
`_rcross`); the massless bodies that spherical and free joints decompose
into add no inertial terms; and a revolute body with an exactly zero joint
offset (`at_origin`, as the inner bodies of a spherical joint) skips the
offset products, which would add only zeros.
`test_rnea_is_bitwise_the_plain_recursion` checks these rules against the
plain recursion (`np.cross`, every product) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import HdysError
from .tree import _CROSS_A, _CROSS_B, KinematicTree


class DivergedRollout(HdysError):
    pass


@dataclass
class GeneralizedState:
    """Generalized coordinates, velocities and accelerations of F frames, (F, n_dof) each."""

    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.qd = np.asarray(self.qd, dtype=np.float64)
        self.qdd = np.asarray(self.qdd, dtype=np.float64)
        if not (self.q.shape == self.qd.shape == self.qdd.shape):
            raise HdysError("q/qd/qdd shapes differ")
        for a in (self.q, self.qd, self.qdd):
            if not np.isfinite(a).all():
                raise HdysError("non-finite generalized state")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, broadcasting; the same arithmetic as numpy's cross."""
    pq = a[..., _CROSS_A] * b[..., _CROSS_B]  # a1b2 a2b0 a0b1 | a2b1 a0b2 a1b0
    return pq[..., :3] - pq[..., 3:]


def _lcross(ca: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c x b for a constant c given pre-gathered as ca = c[_CROSS_A]; `_cross`'s arithmetic."""
    pq = ca * b[..., _CROSS_B]
    return pq[..., :3] - pq[..., 3:]


def _rcross(a: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """a x c for a constant c given pre-gathered as cb = c[_CROSS_B]; `_cross`'s arithmetic."""
    pq = a[..., _CROSS_A] * cb
    return pq[..., :3] - pq[..., 3:]


def _require_frames(tree: KinematicTree, q) -> None:
    if np.ndim(q) != 2 or np.shape(q)[1] != tree.n_dof:
        raise HdysError(f"state must be (F, {tree.n_dof}), got q of shape {np.shape(q)}")


def rnea(
    tree: KinematicTree,
    state: GeneralizedState,
    gravity: np.ndarray | None = None,
) -> np.ndarray:
    """Generalized forces (F, n_dof) required to realize the (F, n_dof) states.

    For a free-root tree the first six columns are the residual root wrench,
    which is not an actuation label.
    """
    q, qd, qdd = state.q, state.qd, state.qdd
    _require_frames(tree, q)
    f = q.shape[0]
    g = tree.gravity if gravity is None else np.asarray(gravity, dtype=np.float64)
    bodies = tree._bodies
    nb = len(bodies)
    xs = tree.joint_transforms(q)  # child pose in the parent frame, reused by the backward pass
    # at rest every velocity and velocity product is zero; one moving frame
    # sends the whole batch through the full recursion
    moving = bool(qd.any())
    # each body's joint motion, (F, n_bodies, 3): coordinate i moves body i along its axis
    sd = qd[..., None] * tree._axes if moving else None
    sdd = qdd[..., None] * tree._axes

    # per body, (F, 3) each: angular velocity and linear velocity of the body
    # origin (body coords), spatial angular and linear acceleration
    motion = []
    fn = np.zeros((nb, f, 3))  # net moment at body origin
    ff = np.zeros((nb, f, 3))  # net force
    offsets = []  # each body's p_pc[_CROSS_A] (None at its parent's origin), for the backward pass
    a_base = np.broadcast_to(-g, (f, 3))
    rest = np.zeros((f, 3))

    for bi, b in enumerate(bodies):
        r_pc, p_pc = xs[bi]
        e = r_pc.transpose(0, 2, 1)  # parent -> child
        if b.parent == -1:
            wp = vp = alp = rest
            aap = a_base
        else:
            wp, vp, alp, aap = motion[b.parent]
        p_a = p_b = None  # the offset's gathered operands: a revolute's are constant, a prismatic's move with q
        if not b.at_origin:
            p_a, p_b = (b.p_a, b.p_b) if b.kind == "rev" else (p_pc[..., _CROSS_A], p_pc[..., _CROSS_B])
        offsets.append(p_a)
        wi = vi = rest
        if moving:
            wi = np.einsum("fij,fj->fi", e, wp)
            vi = np.einsum("fij,fj->fi", e, vp if b.at_origin else vp + _rcross(wp, p_b))
        ali = np.einsum("fij,fj->fi", e, alp)
        aai = np.einsum("fij,fj->fi", e, aap if b.at_origin else aap + _rcross(alp, p_b))
        if b.kind == "rev":
            ali = ali + sdd[:, bi]
        else:
            aai = aai + sdd[:, bi]
        if moving:
            sj = sd[:, bi]
            if b.kind == "rev":
                wi = wi + sj
                ali = ali + _cross(wi, sj)
                aai = aai + _cross(vi, sj)
            else:
                vi = vi + sj
                aai = aai + _cross(wi, sj)
        motion.append((wi, vi, ali, aai))

        if b.mass != 0.0:  # a massless body's own force rows stay zero
            m, ca, cb, ic = b.mass, b.com_a, b.com_b, b.inertia
            i_al = np.einsum("ij,fj->fi", ic, ali) - m * _lcross(ca, _lcross(ca, ali)) + m * _lcross(ca, aai)
            i_aa = m * (aai + _rcross(ali, cb))
            if moving:
                # spatial inertia applied to velocity: momentum (h_n, h_f)
                h_n = np.einsum("ij,fj->fi", ic, wi) - m * _lcross(ca, _lcross(ca, wi)) + m * _lcross(ca, vi)
                h_f = m * (vi + _rcross(wi, cb))
                fn[bi] = i_al + _cross(wi, h_n) + _cross(vi, h_f)
                ff[bi] = i_aa + _cross(wi, h_f)
            else:
                fn[bi], ff[bi] = i_al, i_aa

    for bi in range(nb - 1, 0, -1):  # body 0 is the only one attached to the world
        b = bodies[bi]
        r_pc = xs[bi][0]
        f_par = np.einsum("fij,fj->fi", r_pc, ff[bi])
        n_par = np.einsum("fij,fj->fi", r_pc, fn[bi])
        fn[b.parent] += n_par if b.at_origin else n_par + _lcross(offsets[bi], f_par)
        ff[b.parent] += f_par
    # a revolute's torque is its moment about the axis, a prismatic's its force along it
    return np.einsum("bfi,bi->fb", np.where(tree._is_rev[:, None, None], fn, ff), tree._axes, order="C")


def mass_matrix(tree: KinematicTree, q: np.ndarray) -> np.ndarray:
    """Generalized inertia (F, n_dof, n_dof) at the (F, n_dof) configurations.

    Column j of frame k is the inverse dynamics of a unit acceleration of
    coordinate j at q[k], at rest and without gravity, so every column of
    every frame comes from one RNEA over F * n_dof rows, which at rest skips
    the velocity products.
    """
    _require_frames(tree, q)
    f, n = np.shape(q)
    state = GeneralizedState(np.repeat(q, n, axis=0), np.zeros((f * n, n)), np.tile(np.eye(n), (f, 1)))
    return rnea(tree, state, gravity=np.zeros(3)).reshape(f, n, n).transpose(0, 2, 1)


def forward_dynamics(
    tree: KinematicTree,
    q: np.ndarray,
    qd: np.ndarray,
    tau: np.ndarray,
) -> np.ndarray:
    """Accelerations (F, n_dof) produced by tau at (q, qd): solves the inverse relation."""
    if np.shape(tau) != np.shape(q):
        raise HdysError(f"tau has shape {np.shape(tau)}, q has shape {np.shape(q)}")
    if not np.isfinite(tau).all():
        raise HdysError(f"non-finite torque: {tau}")
    bias = rnea(tree, GeneralizedState(q, qd, np.zeros_like(q)))
    try:  # each row's right side as an (n, 1) column: a 2-D b would be one matrix for every frame
        return np.linalg.solve(mass_matrix(tree, q), (tau - bias)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise HdysError(f"singular mass matrix: {exc}") from None


def step(
    tree: KinematicTree,
    q: np.ndarray,
    qd: np.ndarray,
    tau: np.ndarray,
    dt: float = 1.0 / 90.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One semi-implicit Euler step of every (F, n_dof) row: velocity first, then position."""
    if not (np.isfinite(dt) and dt > 0):
        raise HdysError(f"dt must be finite and positive, got {dt}")
    qdd = forward_dynamics(tree, q, qd, tau)
    qd_next = qd + dt * qdd
    q_next = q + dt * qd_next
    if not (np.isfinite(q_next).all() and np.isfinite(qd_next).all()):
        raise DivergedRollout("integration step produced non-finite state")
    return q_next, qd_next
