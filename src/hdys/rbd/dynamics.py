"""Inverse and forward dynamics on fixed-base kinematic trees with revolute
and spherical joints only, so every internal body turns about one axis and
each joint torque is its body's moment about that axis.

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
one-row `forward_dynamics`) is bound by the count of small numpy calls, not
by arithmetic, so the recursion sweeps the tree one depth level at a time
instead of one body at a time, with every byte as it is. `KinematicTree`
keeps its bodies in level order (`_Level`): each level is a contiguous slice
of every (n_bodies, F, ...) array, siblings in descending body index.
`KinematicTree.joint_rotations` forms every body's rotation in one Rodrigues
pass over all frames; the forward sweep forms each level's motion with one
einsum per quantity from its parents' rows; the inertial terms of all
massive bodies come in one batched pass after it (the massless bodies that
spherical joints decompose into add none); the backward sweep adds
each level into its parents, with `np.add.at` in the level's order where
siblings share a parent, which is the serial order; and one einsum reads
every joint torque. `_cross` forms numpy's six products with one gather per
operand and one multiply, and a constant operand (a COM, a joint offset)
comes gathered once per tree (`_lcross`, `_rcross`). A level whose bodies
all have an exactly zero joint offset (`at_origin`, as the
inner bodies of a spherical joint) skips the offset products, which would
add only zeros. `test_rnea_is_bitwise_the_plain_recursion` checks these
rules against the plain per-body recursion (`np.cross`, every product) bit
for bit.
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
    """Generalized forces (F, n_dof) required to realize the (F, n_dof) states."""
    q, qd, qdd = state.q, state.qd, state.qdd
    _require_frames(tree, q)
    f = q.shape[0]
    g = tree.gravity if gravity is None else np.asarray(gravity, dtype=np.float64)
    nb = tree.n_dof
    rot = tree.joint_rotations(q)  # child orientation in the parent frame, reused by the backward sweep
    rot_t = rot.transpose(0, 1, 3, 2)  # parent -> child
    # at rest every velocity and velocity product is zero; one moving frame
    # sends the whole batch through the full recursion
    moving = bool(qd.any())
    # each body's joint motion, (n_bodies, F, 3) in level order: coordinate i moves body i along its axis
    sd = qd.T[tree._order, :, None] * tree._level_axes if moving else None
    sdd = qdd.T[tree._order, :, None] * tree._level_axes

    # per body, (n_bodies, F, 3) each in level order: angular velocity and linear
    # velocity of the body origin (body coords), spatial angular and linear acceleration
    w = np.empty((nb, f, 3)) if moving else None
    v = np.empty((nb, f, 3)) if moving else None
    al = np.empty((nb, f, 3))
    aa = np.empty((nb, f, 3))
    rest = np.zeros((1, f, 3))
    a_base = np.broadcast_to(-g, (1, f, 3))

    for lv in tree._levels:
        s = lv.span
        e = rot_t[s]
        if lv.parents is None:
            wp = vp = alp = rest
            aap = a_base
        else:
            par = lv.parents
            wp, vp = (w[par], v[par]) if moving else (None, None)
            alp, aap = al[par], aa[par]
        if moving:
            np.einsum("bfij,bfj->bfi", e, wp, out=w[s])
            np.einsum("bfij,bfj->bfi", e, vp if lv.at_origin else vp + _rcross(wp, lv.p_b), out=v[s])
        np.einsum("bfij,bfj->bfi", e, alp, out=al[s])
        np.einsum("bfij,bfj->bfi", e, aap if lv.at_origin else aap + _rcross(alp, lv.p_b), out=aa[s])
        ali, aai = al[s], aa[s]
        ali += sdd[s]
        if moving:
            wi, sj = w[s], sd[s]
            wi += sj
            ali += _cross(wi, sj)
            aai += _cross(v[s], sj)

    # the inertial terms of every massive body in one pass; a massless body's force rows stay zero
    mb = tree._massive
    m, ca, cb, ic = tree._mass, tree._com_a, tree._com_b, tree._inertia
    ali, aai = al[mb], aa[mb]
    fn = np.zeros((nb, f, 3))  # net moment at body origin
    ff = np.zeros((nb, f, 3))  # net force
    i_al = np.einsum("bij,bfj->bfi", ic, ali) - m * _lcross(ca, _lcross(ca, ali)) + m * _lcross(ca, aai)
    i_aa = m * (aai + _rcross(ali, cb))
    if moving:
        # spatial inertia applied to velocity: momentum (h_n, h_f)
        wi, vi = w[mb], v[mb]
        h_n = np.einsum("bij,bfj->bfi", ic, wi) - m * _lcross(ca, _lcross(ca, wi)) + m * _lcross(ca, vi)
        h_f = m * (vi + _rcross(wi, cb))
        fn[mb] = i_al + _cross(wi, h_n) + _cross(vi, h_f)
        ff[mb] = i_aa + _cross(wi, h_f)
    else:
        fn[mb], ff[mb] = i_al, i_aa

    # the root level is the only one attached to the world
    for lv in tree._levels[:0:-1]:
        s, par = lv.span, lv.parents
        r_pc = rot[s]
        f_par = np.einsum("bfij,bfj->bfi", r_pc, ff[s])
        n_par = np.einsum("bfij,bfj->bfi", r_pc, fn[s])
        if not lv.at_origin:
            n_par += _lcross(lv.p_a, f_par)
        if lv.shared:  # siblings add into their parent one at a time, in descending body index
            np.add.at(fn, par, n_par)
            np.add.at(ff, par, f_par)
        else:
            fn[par] += n_par
            ff[par] += f_par
    # each joint's torque is its body's moment about the axis
    return np.einsum("bfi,bi->fb", fn[tree._pos], tree._axes, order="C")


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
