"""Articulated kinematic trees and batched forward kinematics.

Trees are fixed-base: the root link's joint sits at a fixed point of the
world. Joint types: `revolute` (1 DoF about a fixed axis) and `spherical`
(3 DoF, decomposed internally into three orthogonal revolutes with intrinsic
x-y-z angles, so every coordinate stays a scalar angle). Every internal body
is thus a revolute. Public links stay as declared; the decomposition only
introduces massless internal bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import HdysError

_EYE3 = np.eye(3)
_AX = np.array([1.0, 0.0, 0.0])
_AY = np.array([0.0, 1.0, 0.0])
_AZ = np.array([0.0, 0.0, 1.0])

# joint type -> the axes of its internal revolute bodies, parent first; a
# revolute's axis (None here) is its link's own
_CHAINS = {"revolute": (None,), "spherical": (_AX, _AY, _AZ)}


@dataclass(frozen=True)
class Link:
    name: str
    parent: int  # -1 attaches to the world
    joint: str
    axis: Optional[tuple[float, float, float]]  # revolute only
    offset: tuple[float, float, float]  # joint origin in parent frame
    mass: float
    com: tuple[float, float, float]  # in link frame
    inertia: tuple  # 3x3 about the COM, link frame


# a x b is pq[..., :3] - pq[..., 3:] with pq = a[..., _CROSS_A] * b[..., _CROSS_B]
# (a1b2 a2b0 a0b1 | a2b1 a0b2 a1b0), the products numpy's cross forms
_CROSS_A, _CROSS_B = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


@dataclass(frozen=True)
class _Body:
    """One internal revolute body; its coordinate is its own body index."""

    parent: int  # internal body index, -1 for world
    axis: np.ndarray
    p_fix: np.ndarray  # 3, joint origin in the parent body's frame
    mass: float
    com: np.ndarray
    inertia: np.ndarray  # 3x3 about COM
    at_origin: bool  # its p_fix is exactly zero: its origin is its parent's


@dataclass(frozen=True)
class _Level:
    """The bodies at one depth of the tree: a contiguous slice of the level order."""

    span: slice  # its rows of every (n_bodies, ...) level-ordered array
    parents: Optional[np.ndarray]  # each body's parent's row, None at the root level
    shared: bool  # some bodies share a parent
    # every body sits at its parent's origin, so the level skips the offset products; in a
    # level that mixes, an at-origin body's zero offset adds exact zeros, which change no bit
    # of the einsum outputs they meet, as those are never -0
    at_origin: bool
    # the level's joint offsets gathered by _CROSS_A and _CROSS_B, (n, 1, 6) each
    p_a: np.ndarray
    p_b: np.ndarray


def _skew(axis: np.ndarray) -> np.ndarray:
    k = np.zeros((3, 3))
    k[0, 1], k[0, 2] = -axis[2], axis[1]
    k[1, 0], k[1, 2] = axis[2], -axis[0]
    k[2, 0], k[2, 1] = -axis[1], axis[0]
    return k


class KinematicTree:
    """Immutable articulated chain with inertial data and marker sites."""

    # a fixed base actuates every coordinate; no src/ code reads this, bench/workloads.py
    # slices rnea's columns by it
    root_dof = 0

    def __init__(
        self,
        links: Sequence[Link],
        gravity=(0.0, 0.0, -9.81),
        marker_sites: Sequence[tuple[int, tuple[float, float, float]]] = (),
        name: str = "tree",
    ):
        self.links = list(links)
        self.gravity = np.asarray(gravity, dtype=np.float64)
        self.marker_sites = [(int(i), np.asarray(off, dtype=np.float64)) for i, off in marker_sites]
        self.name = name
        self._validate()
        self._build()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        if not self.links:
            raise HdysError("tree has no links")
        roots = [i for i, l in enumerate(self.links) if l.parent == -1]
        if len(roots) != 1 or roots[0] != 0:
            raise HdysError("tree must have exactly one root at index 0")
        for i, l in enumerate(self.links):
            if l.joint not in _CHAINS:
                raise HdysError(f"link {i}: unknown joint type '{l.joint}'")
            if not (-1 <= l.parent < i):
                raise HdysError(f"link {i}: parent {l.parent} is not topologically sorted")
            if l.mass <= 0:
                raise HdysError(f"link {i}: mass must be positive")
            inertia = np.asarray(l.inertia, dtype=np.float64)
            if inertia.shape != (3, 3) or np.abs(inertia - inertia.T).max() > 1e-12:
                raise HdysError(f"link {i}: inertia must be symmetric 3x3")
            if np.linalg.eigvalsh(inertia).min() <= 0:
                raise HdysError(f"link {i}: inertia must be positive definite")
            if l.joint == "revolute":
                a = np.asarray(l.axis, dtype=np.float64)
                if abs(np.linalg.norm(a) - 1.0) > 1e-9:
                    raise HdysError(f"link {i}: revolute axis must be a unit vector")
        for li, off in self.marker_sites:
            if not (0 <= li < len(self.links)):
                raise HdysError(f"marker site on unknown link {li}")

    # -- internal 1-DoF decomposition ---------------------------------------

    def _build(self) -> None:
        bodies: list[_Body] = []
        link_body: list[int] = []
        zero3 = np.zeros(3)
        zero33 = np.zeros((3, 3))
        for l in self.links:
            # the joint offset goes on the chain's first body, the link's inertia on its last
            chain = _CHAINS[l.joint]
            for j, axis in enumerate(chain):
                first, last = j == 0, j == len(chain) - 1
                parent = (-1 if l.parent == -1 else link_body[l.parent]) if first else len(bodies) - 1
                axis = np.asarray(l.axis, dtype=np.float64) if axis is None else axis
                bodies.append(
                    _Body(
                        parent,
                        axis,
                        np.asarray(l.offset, dtype=np.float64) if first else zero3,
                        float(l.mass) if last else 0.0,
                        np.asarray(l.com, dtype=np.float64) if last else zero3,
                        np.asarray(l.inertia, dtype=np.float64) if last else zero33,
                        not (first and np.any(l.offset)),
                    )
                )
            link_body.append(len(bodies) - 1)
        self._bodies = bodies
        self._link_body = link_body
        self.n_dof = len(bodies)
        self.subject_mass = float(sum(l.mass for l in self.links))
        self._build_levels()

    def _build_levels(self) -> None:
        """The level order and its tables: bodies by depth, each depth in descending
        body index, which is the order the backward sweep adds siblings into a
        shared parent. Every level-ordered array has one row per body in this order."""
        bodies = self._bodies
        depth: list[int] = []
        for b in bodies:
            depth.append(0 if b.parent == -1 else depth[b.parent] + 1)
        by_depth = [sorted((bi for bi, d in enumerate(depth) if d == level), reverse=True) for level in range(max(depth) + 1)]
        self._order = np.array([bi for level in by_depth for bi in level])
        self._pos = np.argsort(self._order)  # each body's row
        self._levels = []
        start = 0
        for level in by_depth:
            members = [bodies[bi] for bi in level]
            parents = None if members[0].parent == -1 else self._pos[[b.parent for b in members]]
            p_fix = np.stack([b.p_fix for b in members])[:, None]
            self._levels.append(
                _Level(
                    slice(start, start + len(level)),
                    parents,
                    parents is not None and len(set(parents.tolist())) < len(parents),
                    all(b.at_origin for b in members),
                    p_fix[..., _CROSS_A],
                    p_fix[..., _CROSS_B],
                )
            )
            start += len(level)
        ordered = [bodies[bi] for bi in self._order]
        # the Rodrigues operands K and K^2 of each axis
        k = np.stack([_skew(b.axis) for b in ordered])
        self._k = k[:, None]
        self._kk = (k @ k)[:, None]
        self._level_axes = np.stack([b.axis for b in ordered])[:, None]  # (n_bodies, 1, 3)
        self._axes = np.stack([b.axis for b in bodies])  # (n_bodies, 3) in body order, row i coordinate i's
        # the massive bodies' rows and inertial operands; massless bodies add no inertial terms
        massive = [bi for bi in self._order if bodies[bi].mass != 0.0]
        com = np.stack([bodies[bi].com for bi in massive])[:, None]
        self._massive = self._pos[massive]
        self._mass = np.array([bodies[bi].mass for bi in massive])[:, None, None]
        self._com_a, self._com_b = com[..., _CROSS_A], com[..., _CROSS_B]
        self._inertia = np.stack([bodies[bi].inertia for bi in massive])

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_markers(self) -> int:
        return len(self.marker_sites)

    # -- kinematics ---------------------------------------------------------

    def joint_rotations(self, q: np.ndarray) -> np.ndarray:
        """Every body's orientation in its parent's frame at the (F, n_dof) coordinates q,
        (n_bodies, F, 3, 3) in level order: one Rodrigues pass, I + sin(q) K + (1 - cos(q)) K^2."""
        qt = q.T[self._order]
        c = np.cos(qt)[..., None, None]
        s = np.sin(qt)[..., None, None]
        return _EYE3 + s * self._k + (1.0 - c) * self._kk

    def body_poses(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World poses of every internal body at the (F, n_dof) coordinates q.

        Returns (R, p) with shapes (F, n_bodies, 3, 3) and (F, n_bodies, 3).
        """
        q = np.asarray(q, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != self.n_dof:
            raise HdysError(f"q must be (F, {self.n_dof}), got shape {q.shape}")
        f = q.shape[0]
        nb = len(self._bodies)
        r = np.empty((f, nb, 3, 3))
        p = np.empty((f, nb, 3))
        rot = self.joint_rotations(q)
        for bi, b in enumerate(self._bodies):
            # the child's pose in its parent's frame: its rotation and its fixed offset
            r_pc = rot[self._pos[bi]]
            p_pc = b.p_fix[None]
            if b.parent == -1:
                r[:, bi] = r_pc
                p[:, bi] = p_pc
            else:
                rp = r[:, b.parent]
                r[:, bi] = rp @ r_pc
                p[:, bi] = p[:, b.parent] + np.einsum("fij,fj->fi", rp, p_pc)
        return r, p

    def forward_kinematics(self, q: np.ndarray):
        """Per-link world transforms and marker positions at the (F, n_dof) coordinates q.

        Returns (link_R, link_p, markers) with shapes (F, n_links, 3, 3),
        (F, n_links, 3) and (F, n_markers, 3); link_p are the joint centres.
        """
        r, p = self.body_poses(q)
        idx = np.asarray(self._link_body)
        if self.marker_sites:
            site_link = np.asarray([self._link_body[li] for li, _ in self.marker_sites])
            offs = np.stack([off for _, off in self.marker_sites])
            markers = p[:, site_link] + np.einsum("fsij,sj->fsi", r[:, site_link], offs)
        else:
            markers = np.zeros((p.shape[0], 0, 3))
        return r[:, idx], p[:, idx], markers
