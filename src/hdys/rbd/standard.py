"""Built-in subject models.

Two deliberately different trees drive the synthetic domains: a branched
9-link lower-body-plus-trunk model with 23 angle DoFs (T1) and a 12-link
serial chain with 12 DoFs (T2). Muscle sets are constructed so that every
torque the bundled motion generators produce stays inside the activation
box: T1 gets an agonist/antagonist pair per DoF, T2 gets one muscle per DoF
whose arm sign matches the gravity loading at the chain's bias posture.
"""

from __future__ import annotations

import numpy as np

from .dynamics import GeneralizedState, rnea
from .muscle import MuscleSet
from .tree import KinematicTree, Link


def _diag(x, y, z):
    return np.diag([x, y, z])


def build_t1() -> KinematicTree:
    links = [
        Link("pelvis", -1, "spherical", None, (0.0, 0.0, 1.0), 11.0, (0.0, 0.0, 0.05), _diag(0.10, 0.09, 0.08)),
        Link("l_thigh", 0, "spherical", None, (0.0, 0.12, -0.06), 8.5, (0.0, 0.0, -0.20), _diag(0.14, 0.14, 0.03)),
        Link("l_shank", 1, "revolute", (0.0, 1.0, 0.0), (0.0, 0.0, -0.42), 3.8, (0.0, 0.0, -0.19), _diag(0.05, 0.05, 0.007)),
        Link("l_foot", 2, "spherical", None, (0.0, 0.0, -0.43), 1.1, (0.08, 0.0, -0.03), _diag(0.004, 0.004, 0.002)),
        Link("r_thigh", 0, "spherical", None, (0.0, -0.12, -0.06), 8.5, (0.0, 0.0, -0.20), _diag(0.14, 0.14, 0.03)),
        Link("r_shank", 4, "revolute", (0.0, 1.0, 0.0), (0.0, 0.0, -0.42), 3.8, (0.0, 0.0, -0.19), _diag(0.05, 0.05, 0.007)),
        Link("r_foot", 5, "spherical", None, (0.0, 0.0, -0.43), 1.1, (0.08, 0.0, -0.03), _diag(0.004, 0.004, 0.002)),
        Link("torso", 0, "spherical", None, (0.0, 0.0, 0.12), 26.0, (0.0, 0.0, 0.22), _diag(0.35, 0.30, 0.12)),
        Link("head", 7, "spherical", None, (0.0, 0.0, 0.50), 5.2, (0.0, 0.0, 0.10), _diag(0.03, 0.03, 0.02)),
    ]
    sites = _surface_sites(
        n_per_link=[6, 4, 4, 4, 4, 4, 4, 6, 4],
        spans=[0.12, 0.20, 0.20, 0.08, 0.20, 0.20, 0.08, 0.25, 0.10],
        seed=11,
    )
    return KinematicTree(links, marker_sites=sites, name="t1-lab23")


# Sagging-cantilever rest posture: keeps the gravity loading of every joint
# bounded away from zero with one sign, so the 12-muscle set stays feasible.
T2_BIAS_POSTURE = np.array(
    [-0.18, -0.12, -0.10, -0.08, -0.06, -0.05, -0.05, -0.04, -0.04, -0.03, -0.03, -0.02]
)


def build_t2() -> KinematicTree:
    masses = [6.0, 5.5, 5.0, 4.5, 4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.2, 1.0]
    links = []
    for i, m in enumerate(masses):
        # pitch-dominant axes with a small alternating tilt
        tilt = 0.15 if i % 2 else -0.15
        axis = np.array([tilt, 1.0, 0.12 * (1 if i % 3 == 0 else -1)])
        axis /= np.linalg.norm(axis)
        length = 0.22
        links.append(
            Link(
                f"seg{i}",
                i - 1,
                "revolute",
                tuple(axis),
                (0.0, 0.0, 1.30) if i == 0 else (length, 0.0, 0.0),
                m,
                (length / 2, 0.0, 0.0),
                _diag(0.002 + 0.001 * m, m * length**2 / 12 + 0.002, m * length**2 / 12 + 0.002),
            )
        )
    sites = _surface_sites(n_per_link=[4] * 12, spans=[0.11] * 12, seed=23)
    return KinematicTree(links, marker_sites=sites, name="t2-chain12")


def _surface_sites(n_per_link, spans, seed):
    """Fixed pseudo-random surface marker offsets, a few per link."""
    rng = np.random.default_rng(seed)
    sites = []
    for li, (n, span) in enumerate(zip(n_per_link, spans)):
        for _ in range(n):
            off = rng.uniform(-span, span, size=3)
            off += np.sign(off) * 0.03  # keep sites off the bone axis
            sites.append((li, tuple(off)))
    return sites


def t1_muscles() -> MuscleSet:
    """Agonist/antagonist pair per DoF; any torque inside the caps is feasible."""
    tree = build_t1()
    caps = _t1_torque_caps()
    arm = 0.05
    names, rows, fmax = [], [], []
    for j in range(tree.n_dof):
        for sign, tag in ((1.0, "ag"), (-1.0, "an")):
            row = np.zeros(tree.n_dof)
            row[j] = sign * arm
            names.append(f"d{j:02d}_{tag}")
            rows.append(row)
            fmax.append(caps[j] / arm)
    return MuscleSet(tuple(names), np.stack(rows), np.asarray(fmax))


def _t1_torque_caps() -> np.ndarray:
    # proximal joints carry the trunk: generous caps keep activations interior
    caps = np.empty(23)
    caps[0:3] = 700.0  # pelvis
    caps[3:6] = 500.0  # l hip
    caps[6] = 350.0  # l knee
    caps[7:10] = 200.0  # l ankle
    caps[10:13] = 500.0  # r hip
    caps[13] = 350.0  # r knee
    caps[14:17] = 200.0  # r ankle
    caps[17:20] = 700.0  # torso
    caps[20:23] = 150.0  # head
    return caps


# Eight sensor channels for the surface-EMG profile: hips, knees, ankles.
T1_EMG_MUSCLES = (6, 7, 12, 13, 20, 21, 28, 29)


def t2_muscles(tree: KinematicTree | None = None) -> MuscleSet:
    """One muscle per DoF, arm sign matched to the bias-posture loading."""
    tree = tree or build_t2()
    rest = np.zeros((1, tree.n_dof))
    static = rnea(tree, GeneralizedState(T2_BIAS_POSTURE[None], rest, rest))[0]
    arm = 0.05
    n = tree.n_dof
    signs = np.where(static >= 0, 1.0, -1.0)
    arms = np.zeros((n, n))
    fmax = np.empty(n)
    names = []
    for j in range(n):
        arms[j, j] = signs[j] * arm
        fmax[j] = (4.0 * abs(static[j]) + 60.0) / arm
        names.append(f"t2m{j:02d}")
    for j in range(n - 1):
        # bi-articular spillover onto the next joint, sign-matched to its
        # loading and small enough never to exceed the static demand there
        arms[j, j + 1] = signs[j + 1] * 0.10 * (abs(static[j + 1]) + 1.0) / fmax[j]
    return MuscleSet(tuple(names), arms, fmax)
