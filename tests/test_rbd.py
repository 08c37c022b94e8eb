from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.spatial.transform import Rotation

from hdys import HdysError
from hdys.rbd import (
    DivergedRollout,
    GeneralizedState,
    KinematicTree,
    Link,
    MuscleSet,
    build_t1,
    build_t2,
    forward_dynamics,
    mass_matrix,
    rnea,
    solve_activations,
    step,
    synth_emg,
)
from hdys.rbd.tree import _skew
from conftest import make_pendulum, random_chain

G = 9.81


def total_energy(tree: KinematicTree, q: np.ndarray, qd: np.ndarray) -> float:
    """Kinetic plus gravitational potential energy (world z up the -gravity axis) of one (1, n) state."""
    m = mass_matrix(tree, q)[0]
    kin = 0.5 * float(qd[0] @ m @ qd[0])
    r, p = tree.body_poses(q)
    pot = 0.0
    for bi, b in enumerate(tree._bodies):
        if b.mass == 0.0:
            continue
        com_w = p[0, bi] + r[0, bi] @ b.com
        pot -= b.mass * float(tree.gravity @ com_w)
    return kin + pot


def test_tree_invariants():
    root = Link("a", -1, "revolute", (0, 0, 1), (0, 0, 0), 1.0, (0, 0, 0), np.eye(3))
    with pytest.raises(HdysError, match="^tree has no links$"):
        KinematicTree([])
    with pytest.raises(HdysError, match="^link 0: mass must be positive$"):
        KinematicTree([replace(root, mass=-1.0)])
    with pytest.raises(HdysError, match="^tree must have exactly one root at index 0$"):
        KinematicTree([replace(root, parent=0)])
    for joint in ("free", "prismatic", "ball"):  # trees are fixed-base, with revolute and spherical joints only
        with pytest.raises(HdysError, match=f"^link 0: unknown joint type '{joint}'$"):
            KinematicTree([replace(root, joint=joint, axis=None)])
    with pytest.raises(HdysError, match="^link 1: unknown joint type 'free'$"):
        KinematicTree([root, replace(root, parent=0, joint="free", axis=None)])
    for parent in (1, 2):
        with pytest.raises(HdysError, match=f"^link 1: parent {parent} is not topologically sorted$"):
            KinematicTree([root, replace(root, parent=parent), replace(root, parent=0)])
    asymmetric = np.eye(3)
    asymmetric[0, 1] = 0.01
    with pytest.raises(HdysError, match="^link 0: inertia must be symmetric 3x3$"):
        KinematicTree([replace(root, inertia=asymmetric)])
    with pytest.raises(HdysError, match="^link 0: inertia must be symmetric 3x3$"):
        KinematicTree([replace(root, inertia=np.eye(2))])
    with pytest.raises(HdysError, match="^link 0: inertia must be positive definite$"):
        KinematicTree([replace(root, inertia=-np.eye(3))])
    for axis in ((0, 0, 2), (0.6, 0.6, 0.6), (0, 0, 0)):
        with pytest.raises(HdysError, match="^link 0: revolute axis must be a unit vector$"):
            KinematicTree([replace(root, axis=axis)])
    for site in (1, -1):
        with pytest.raises(HdysError, match=f"^marker site on unknown link {site}$"):
            KinematicTree([root], marker_sites=[(0, (0, 0, 0)), (site, (0, 0, 0))])
    assert KinematicTree([root, replace(root, parent=0, joint="spherical", axis=None)]).n_dof == 4
    tree = make_pendulum()
    assert tree.subject_mass == 2.0


# -- forward kinematics ----------------------------------------------------------


def test_fk_zero_q_composes_fixed_transforms():
    rng = np.random.default_rng(0)
    tree = random_chain(rng, 4, spherical_ok=False)
    _, link_p, _ = tree.forward_kinematics(np.zeros((1, tree.n_dof)))
    expect = np.zeros(3)
    acc = []
    for l in tree.links:
        expect = expect + np.asarray(l.offset)  # identity orientations at q=0
        acc.append(expect.copy())
    assert np.allclose(link_p[0], np.stack(acc), atol=1e-14)


def test_fk_single_revolute_tip():
    tree = KinematicTree(
        [Link("l", -1, "revolute", (0, 0, 1), (0, 0, 0), 1.0, (0.5, 0, 0), np.eye(3) * 0.01)],
        marker_sites=[(0, (1.0, 0.0, 0.0))],
    )
    _, _, markers = tree.forward_kinematics(np.array([[np.pi / 2]]))
    assert np.allclose(markers[0, 0], [0.0, 1.0, 0.0], atol=1e-12)


def test_fk_orthonormal_and_matrix_chain_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        tree = random_chain(rng, int(rng.integers(2, 6)))
        q = rng.uniform(-2, 2, tree.n_dof)
        link_r, _, markers = tree.forward_kinematics(q[None])
        for r in link_r[0]:
            assert np.abs(r @ r.T - np.eye(3)).max() < 1e-10
        # independent oracle: homogeneous 4x4 chain over the internal bodies
        world = {}
        for bi, b in enumerate(tree._bodies):
            # the stacked Rodrigues operands: K of the axis and K @ K, at the body's row
            k = tree._k[tree._pos[bi], 0]
            assert np.array_equal(k, _skew(b.axis)) and np.array_equal(tree._kk[tree._pos[bi], 0], k @ k)
            t = np.eye(4)
            t[:3, 3] = b.p_fix
            j = np.eye(4)
            j[:3, :3] = Rotation.from_rotvec(b.axis * q[bi]).as_matrix()
            parent = world[b.parent] if b.parent != -1 else np.eye(4)
            world[bi] = parent @ t @ j
        for (li, off), got in zip(tree.marker_sites, markers[0]):
            t = world[tree._link_body[li]]
            expect = t[:3, :3] @ np.asarray(off) + t[:3, 3]
            assert np.abs(expect - got).max() < 1e-12


def test_fk_wrong_length():
    tree = make_pendulum()
    with pytest.raises(HdysError, match=r"^q must be \(F, 1\), got shape \(1, 3\)$"):
        tree.forward_kinematics(np.zeros((1, 3)))


# -- inverse dynamics ------------------------------------------------------------


def test_pendulum_static_torque_analytic():
    m, lc = 2.0, 1.0
    tree = make_pendulum(m=m, lc=lc)
    q = np.array([[-2.0], [-0.4], [0.3], [1.0], [2.5]])
    tau = rnea(tree, GeneralizedState(q, np.zeros_like(q), np.zeros_like(q)))
    assert np.abs(tau - m * G * lc * np.sin(q)).max() < 1e-10


def test_zero_gravity_zero_motion_zero_torque():
    rng = np.random.default_rng(2)
    tree = random_chain(rng, 4)
    q = rng.uniform(-1, 1, (1, tree.n_dof))
    tau = rnea(tree, GeneralizedState(q, np.zeros_like(q), np.zeros_like(q)), gravity=np.zeros(3))
    assert np.abs(tau).max() < 1e-12


def test_roundtrip_100_random_chains():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        tree = random_chain(rng, int(rng.integers(2, 7)))
        q = rng.uniform(-1.5, 1.5, (1, tree.n_dof))
        qd = rng.uniform(-1, 1, (1, tree.n_dof))
        tau = rng.uniform(-5, 5, (1, tree.n_dof))
        qdd = forward_dynamics(tree, q, qd, tau)
        back = rnea(tree, GeneralizedState(q, qd, qdd))
        worst = max(worst, float(np.abs(back - tau).max()))
    assert worst <= 1e-8


def test_mass_matrix_symmetric_spd_100():
    rng = np.random.default_rng(4)
    for _ in range(100):
        tree = random_chain(rng, int(rng.integers(2, 6)))
        q = rng.uniform(-2, 2, (1, tree.n_dof))
        m = mass_matrix(tree, q)[0]
        assert np.abs(m - m.T).max() <= 1e-10
        np.linalg.cholesky(m)  # SPD via factorization success


def _jacobian_inertia_oracle(tree, q, h=1e-5):
    """M = sum over links of m Jv^T Jv + Jw^T (R I R^T) Jw, with no dynamics code.

    The COM Jacobian Jv and the angular Jacobian Jw come from central
    differences of the body poses (kinematics only): column j of Jw is the
    axial vector of (dR/dq_j) R^T.
    """
    n = tree.n_dof
    qs = np.concatenate([q + h * np.eye(n), q - h * np.eye(n), q[None]])
    r, p = tree.body_poses(qs)
    m = np.zeros((n, n))
    for li, link in enumerate(tree.links):
        bi = tree._link_body[li]
        com = p[:, bi] + r[:, bi] @ np.asarray(link.com)
        jv = (com[:n] - com[n : 2 * n]).T / (2 * h)
        r0 = r[-1, bi]
        w = (r[:n, bi] - r[n : 2 * n, bi]) / (2 * h) @ r0.T
        jw = np.stack([w[:, 2, 1], w[:, 0, 2], w[:, 1, 0]])
        m += link.mass * jv.T @ jv + jw.T @ (r0 @ np.asarray(link.inertia) @ r0.T) @ jw
    return m


def test_mass_matrix_matches_jacobian_inertia_oracle():
    rng = np.random.default_rng(5)
    trees = [random_chain(rng, int(rng.integers(2, 6))) for _ in range(12)]
    assert sum(l.joint == "spherical" for t in trees for l in t.links) >= 10
    for tree in trees:
        q = rng.uniform(-1.5, 1.5, tree.n_dof)
        expect = _jacobian_inertia_oracle(tree, q)
        assert np.abs(mass_matrix(tree, q[None])[0] - expect).max() <= 1e-6 * np.abs(expect).max()


def test_pendulum_mass_matrix_analytic():
    m, lc, iy = 2.0, 1.0, 0.04
    tree = make_pendulum(m=m, lc=lc, iy=iy)
    mm = mass_matrix(tree, np.array([[0.7]]))
    assert abs(mm[0, 0, 0] - (m * lc**2 + iy)) < 1e-12


def test_rnea_affine_in_qdd():
    rng = np.random.default_rng(6)
    tree = random_chain(rng, 5)
    q = rng.uniform(-1, 1, tree.n_dof)
    qd = rng.uniform(-1, 1, tree.n_dof)
    a1 = rng.uniform(-2, 2, tree.n_dof)
    a2 = rng.uniform(-2, 2, tree.n_dof)
    qdd = np.stack([a1 + a2, np.zeros_like(q), a1, a2])  # one frame per acceleration, at the same (q, qd)
    t = rnea(tree, GeneralizedState(np.tile(q, (4, 1)), np.tile(qd, (4, 1)), qdd))
    lhs = t[0] - t[1]
    rhs = (t[2] - t[1]) + (t[3] - t[1])
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_rnea_batched_equals_single():
    rng = np.random.default_rng(7)
    tree = random_chain(rng, 3)
    qs = rng.uniform(-1, 1, (6, tree.n_dof))
    qd = rng.uniform(-1, 1, (6, tree.n_dof))
    qdd = rng.uniform(-1, 1, (6, tree.n_dof))
    batch = rnea(tree, GeneralizedState(qs, qd, qdd))
    for i in range(6):
        one_row = rnea(tree, GeneralizedState(qs[i : i + 1], qd[i : i + 1], qdd[i : i + 1]))
        assert np.array_equal(batch[i : i + 1], one_row)


def test_mass_matrix_batched_equals_single_and_rnea_columns():
    """Each frame's mass matrix is, bit for bit, its one-row call and the
    one-row rest RNEA of each unit acceleration, without gravity."""
    for tree in (random_chain(np.random.default_rng(7), 3), build_t1()):
        n = tree.n_dof
        qs = np.random.default_rng(12).uniform(-1, 1, (3, n))
        batch = mass_matrix(tree, qs)
        assert batch.shape == (3, n, n)
        for k in range(3):
            assert batch[k].tobytes() == mass_matrix(tree, qs[k : k + 1])[0].tobytes()
            for j in range(n):
                column = rnea(tree, GeneralizedState(qs[k : k + 1], np.zeros((1, n)), np.eye(n)[j : j + 1]), np.zeros(3))
                assert batch[k, :, j].tobytes() == column[0].tobytes()


def test_forward_dynamics_and_step_batched_equal_single():
    rng = np.random.default_rng(13)
    for tree in (random_chain(rng, 4), build_t1()):
        q, qd, tau = (rng.uniform(-1, 1, (5, tree.n_dof)) for _ in range(3))
        qdd = forward_dynamics(tree, q, qd, tau)
        q2, qd2 = step(tree, q, qd, tau, dt=0.01)
        for i in range(5):
            row = slice(i, i + 1)
            assert qdd[row].tobytes() == forward_dynamics(tree, q[row], qd[row], tau[row]).tobytes()
            one_q, one_qd = step(tree, q[row], qd[row], tau[row], dt=0.01)
            assert q2[row].tobytes() == one_q.tobytes() and qd2[row].tobytes() == one_qd.tobytes()


def test_singular_mass_matrix_is_domain_error(monkeypatch):
    import hdys.rbd.dynamics as dynamics

    monkeypatch.setattr(dynamics, "mass_matrix", lambda tree, q: np.zeros((1, 1, 1)))
    zero = np.zeros((1, 1))
    with pytest.raises(HdysError, match="^singular mass matrix"):
        forward_dynamics(make_pendulum(), zero, zero, zero)


def test_frame_batched_functions_reject_one_dimensional_input():
    """rnea, mass_matrix, forward_dynamics, step, body_poses, forward_kinematics,
    solve_activations and synth_emg take frames on axis 0 only; a bare (n,)
    input fails by name instead of as one frame or an IndexError."""
    tree = random_chain(np.random.default_rng(11), 3)
    n = tree.n_dof
    one = np.zeros(n)
    shape = rf"^q must be \(F, {n}\), got shape \({n},\)$"
    state = rf"^state must be \(F, {n}\), got q of shape \({n},\)$"
    with pytest.raises(HdysError, match=state):
        rnea(tree, GeneralizedState(one, one, one))
    with pytest.raises(HdysError, match=state):
        mass_matrix(tree, one)
    for entry in (forward_dynamics, step):
        with pytest.raises(HdysError, match=state):
            entry(tree, one, one, one)
    with pytest.raises(HdysError, match=shape):
        tree.body_poses(one)
    with pytest.raises(HdysError, match=shape):
        tree.forward_kinematics(one)
    ms = MuscleSet(("a", "b"), np.array([[0.05], [-0.05]]), np.array([400.0, 400.0]))
    with pytest.raises(HdysError, match=r"^tau_target must be \(F, 1\), got shape \(1,\)$"):
        solve_activations(ms, np.zeros(1))
    with pytest.raises(HdysError, match=r"^a_sequence must be \(F, channels\), got shape \(5,\)$"):
        synth_emg(np.zeros(5), fps=90.0)
    assert rnea(tree, GeneralizedState(one[None], one[None], one[None])).shape == (1, n)
    assert mass_matrix(tree, one[None]).shape == (1, n, n)
    assert forward_dynamics(tree, one[None], one[None], one[None]).shape == (1, n)
    assert [a.shape[0] for a in tree.forward_kinematics(one[None])] == [1, 1, 1]
    assert solve_activations(ms, np.zeros((1, 1))).shape == (1, 2)


def joint_transform(body, qi):
    """Pose of `body` in its parent's frame at joint coordinates qi of shape (F,), one body
    at a time: the child's orientation (F, 3, 3) from Rodrigues, I + sin(q) K + (1 - cos(q)) K^2,
    and its fixed origin in the parent frame with a leading axis of 1."""
    c = np.cos(qi)[:, None, None]
    s = np.sin(qi)[:, None, None]
    k = _skew(body.axis)
    return np.eye(3) + s * k + (1.0 - c) * (k @ k), body.p_fix[None]


def _ref_rnea(tree, q, qd, qdd, gravity=None):
    """RNEA as the plain recursion over (F, n) states: `np.cross`, every offset
    product, and every velocity and inertial term of every body, none skipped."""
    f = q.shape[0]
    g = tree.gravity if gravity is None else gravity
    zero = np.zeros((f, 3))
    motion, fn, ff, xs = [], [], [], []
    for bi, b in enumerate(tree._bodies):
        r_pc, p_pc = joint_transform(b, q[:, bi])
        xs.append((r_pc, p_pc))
        e = r_pc.transpose(0, 2, 1)
        wp, vp, alp, aap = (zero, zero, zero, np.broadcast_to(-g, (f, 3))) if b.parent == -1 else motion[b.parent]
        wi = np.einsum("fij,fj->fi", e, wp)
        vi = np.einsum("fij,fj->fi", e, vp + np.cross(wp, p_pc))
        ali = np.einsum("fij,fj->fi", e, alp)
        aai = np.einsum("fij,fj->fi", e, aap + np.cross(alp, p_pc))
        sj, sdd = b.axis * qd[:, bi, None], b.axis * qdd[:, bi, None]
        ali = ali + sdd
        wi = wi + sj
        ali = ali + np.cross(wi, sj)
        aai = aai + np.cross(vi, sj)
        motion.append((wi, vi, ali, aai))
        m, c, ic = b.mass, b.com, b.inertia
        i_al = np.einsum("ij,fj->fi", ic, ali) - m * np.cross(c, np.cross(c, ali)) + m * np.cross(c, aai)
        i_aa = m * (aai + np.cross(ali, c))
        h_n = np.einsum("ij,fj->fi", ic, wi) - m * np.cross(c, np.cross(c, wi)) + m * np.cross(c, vi)
        h_f = m * (vi + np.cross(wi, c))
        fn.append(i_al + np.cross(wi, h_n) + np.cross(vi, h_f))
        ff.append(i_aa + np.cross(wi, h_f))
    tau = np.zeros((f, tree.n_dof))
    for bi in range(len(tree._bodies) - 1, -1, -1):
        b = tree._bodies[bi]
        tau[:, bi] = np.einsum("fi,i->f", fn[bi], b.axis)
        if b.parent != -1:
            r_pc, p_pc = xs[bi]
            f_par = np.einsum("fij,fj->fi", r_pc, ff[bi])
            fn[b.parent] = fn[b.parent] + (np.einsum("fij,fj->fi", r_pc, fn[bi]) + np.cross(p_pc, f_par))
            ff[b.parent] = ff[b.parent] + f_par
    return tau


def _with_signed_zeros(rng, a):
    """A copy of `a` with a random third of its entries set to +0.0 or -0.0."""
    a = a.copy()
    hit = rng.random(a.shape) < 1 / 3
    a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return a


def _random_branched_tree(rng, n_links=9):
    """A random fixed-base tree whose root has three children, the later links taking random
    parents, with revolute and spherical joints and some exactly zero joint offsets."""
    chain = random_chain(rng, n_links)
    parents = [-1, 0, 0, 0] + [int(rng.integers(0, i)) for i in range(4, n_links)]
    joints = ["spherical", "revolute", "spherical", "revolute"] + [str(j) for j in rng.choice(["revolute", "spherical"], n_links - 4)]
    links = []
    for i, (l, parent, joint) in enumerate(zip(chain.links, parents, joints)):
        axis = l.axis if l.axis is not None else tuple(np.eye(3)[i % 3])
        offset = (0.0, -0.0, 0.0) if i % 3 == 1 else l.offset  # a revolute or spherical joint at its parent's origin
        links.append(replace(l, parent=parent, joint=joint, axis=axis if joint == "revolute" else None, offset=offset))
    return KinematicTree(links, marker_sites=chain.marker_sites, name="branched")


def _bitwise_trees(rng):
    """T1, T2, and a random chain as all-spherical and at-origin trees, with a pendulum,
    another random chain and a random branched tree: every offset rule, and levels whose
    bodies share a parent, have several parents, or mix at-origin and offset bodies."""
    chain = random_chain(rng, 4)
    sites = chain.marker_sites
    spherical = KinematicTree([replace(l, joint="spherical", axis=None) for l in chain.links], marker_sites=sites)
    at_origin = KinematicTree([replace(l, offset=(0.0, -0.0, 0.0)) for l in chain.links], marker_sites=sites)
    branched = _random_branched_tree(np.random.default_rng(2))
    return [build_t1(), build_t2(), spherical, at_origin, make_pendulum(), random_chain(rng, 5), branched]


def test_level_tables_order_every_body_once_after_its_parent():
    """Each tree's level order holds every body once, each level after its bodies'
    parents' level, siblings in descending body index."""
    trees = _bitwise_trees(np.random.default_rng(16))
    assert [len(t._levels) for t in trees[:2]] == [10, 12]  # T1, T2
    branched = trees[-1]
    assert max(len(lv.parents) - len(set(lv.parents.tolist())) for lv in branched._levels[1:]) >= 2  # three siblings
    assert any(lv.shared and len(set(lv.parents.tolist())) > 1 for lv in branched._levels)
    # a level that mixes at-origin and offset bodies
    assert any(len({branched._bodies[bi].at_origin for bi in branched._order[lv.span]}) == 2 for lv in branched._levels)
    for tree in trees:
        nb = len(tree._bodies)
        assert sorted(tree._order.tolist()) == list(range(nb))
        assert np.array_equal(tree._order[tree._pos], np.arange(nb))
        spans = [lv.span for lv in tree._levels]
        assert spans[0].start == 0 and spans[-1].stop == nb
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
        level_of = np.empty(nb, dtype=int)
        for k, lv in enumerate(tree._levels):
            members = tree._order[lv.span]
            level_of[members] = k
            assert list(members) == sorted(members, reverse=True)
            parents = [tree._bodies[bi].parent for bi in members]
            assert lv.parents is None if k == 0 else np.array_equal(lv.parents, tree._pos[parents])
            assert lv.shared == (len(set(parents)) < len(parents))
            assert lv.at_origin == all(tree._bodies[bi].at_origin for bi in members)
        assert tree._levels[0].parents is None and len(tree._order[spans[0]]) == 1
        for bi, b in enumerate(tree._bodies):
            assert b.parent == -1 or level_of[b.parent] == level_of[bi] - 1


def _ref_body_poses(tree, q):
    """World poses of every body composed one body at a time from its own Rodrigues transform."""
    f, nb = q.shape[0], len(tree._bodies)
    r, p = np.empty((f, nb, 3, 3)), np.empty((f, nb, 3))
    for bi, b in enumerate(tree._bodies):
        r_pc, p_pc = joint_transform(b, q[:, bi])
        if b.parent == -1:
            r[:, bi], p[:, bi] = r_pc, p_pc
        else:
            rp = r[:, b.parent]
            r[:, bi] = rp @ r_pc
            p[:, bi] = p[:, b.parent] + np.einsum("fij,fj->fi", rp, p_pc)
    return r, p


def test_body_poses_is_bitwise_the_per_body_composition():
    """One Rodrigues pass over every body and frame changes no byte of the
    body poses, link transforms or markers."""
    rng = np.random.default_rng(17)
    trees = _bitwise_trees(rng)
    assert all(t.n_markers for t in trees)
    for tree in trees:
        links = np.asarray(tree._link_body)
        sites = np.asarray([tree._link_body[li] for li, _ in tree.marker_sites])
        offs = np.stack([off for _, off in tree.marker_sites])
        for f in (1, 5, 271):
            q = _with_signed_zeros(rng, rng.uniform(-2, 2, (f, tree.n_dof)))
            q[0] = 0.0
            q[-1] = -0.0
            r, p = _ref_body_poses(tree, q)
            got_r, got_p = tree.body_poses(q)
            assert got_r.tobytes() == r.tobytes() and got_p.tobytes() == p.tobytes(), (tree.name, f)
            markers = p[:, sites] + np.einsum("fsij,sj->fsi", r[:, sites], offs)
            for got, want in zip(tree.forward_kinematics(q), (r[:, links], p[:, links], markers)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (tree.name, f)


def test_rnea_is_bitwise_the_plain_recursion():
    """Skipped products (velocity terms at rest, massless bodies' inertial terms,
    offset terms of a body at its parent's origin) and `_cross` change no byte."""
    rng = np.random.default_rng(16)
    trees = _bitwise_trees(rng)
    assert sum(b.at_origin for b in trees[0]._bodies) == 14  # 14 of T1's 23 bodies sit at their parent's origin
    cases = 0
    for tree in trees:
        assert [b.at_origin for b in tree._bodies] == [not b.p_fix.any() for b in tree._bodies]
        n = tree.n_dof
        for f in (1, 5, 271):
            q = _with_signed_zeros(rng, rng.uniform(-1, 1, (f, n)))
            q[0] = 0.0
            moving = _with_signed_zeros(rng, rng.uniform(-2, 2, (f, n)))
            moving[1:2] = -0.0  # a frame at rest in a moving batch
            accel = _with_signed_zeros(rng, rng.uniform(-3, 3, (f, n)))
            for qd in (np.zeros((f, n)), -np.zeros((f, n)), moving):
                for qdd in (np.zeros((f, n)), -np.zeros((f, n)), accel):
                    for gravity in (None, np.zeros(3), -np.zeros(3)):
                        want = _ref_rnea(tree, q, qd, qdd, gravity)
                        got = rnea(tree, GeneralizedState(q, qd, qdd), gravity)
                        assert got.tobytes() == want.tobytes(), (tree.name, f)
                        assert rnea(tree, GeneralizedState(q[:1], qd[:1], qdd[:1]), gravity).tobytes() == want[:1].tobytes()
                        cases += 2
            # the mass matrix is the reference's unit-acceleration columns at rest, without gravity
            columns = _ref_rnea(tree, np.broadcast_to(q[-1], (n, n)), np.zeros((n, n)), np.eye(n), np.zeros(3))
            assert mass_matrix(tree, q[-1:])[0].tobytes() == columns.T.tobytes(), (tree.name, f)
    assert cases == len(trees) * 3 * 27 * 2


def test_cross_is_bitwise_numpy_cross():
    from hdys.rbd.dynamics import _cross, _lcross, _rcross
    from hdys.rbd.tree import _CROSS_A, _CROSS_B

    rng = np.random.default_rng(8)
    a, b, c = rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), rng.normal(size=3)
    one = rng.normal(size=(1, 3))  # a single frame
    offset = np.broadcast_to(rng.normal(size=3), (5, 3))  # a joint's fixed offset
    # signed and exact zeros, whose products and differences keep a sign np.cross keeps
    z = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -0.0], [2.0, -0.0, 0.0], [-1.0, 0.0, -0.0], [0.0, 0.0, 0.0]])
    pairs = [(a, b), (c, a), (a, c), (c, c), (one, one), (one, c), (c, one), (a, offset), (offset, a)]
    pairs += [(z, a), (a, z), (z, -z), (z, z[::-1]), (z[1], z), (z, offset), (-z, c)]
    for x, y in pairs:
        got, want = _cross(x, y), np.cross(x, y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # a constant operand gathered once: the left one by _CROSS_A, the right one by _CROSS_B
        if x.ndim == 1:
            got = _lcross(x[_CROSS_A], y)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if y.ndim == 1:
            got = _rcross(x, y[_CROSS_B])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the tree's own gathered operands: each massive body's COM and each body's joint offset
    for tree in (build_t1(), build_t2()):
        rows = [tree._bodies[bi] for bi in tree._order]
        operands = [(ca, cb, rows[i].com) for ca, cb, i in zip(tree._com_a, tree._com_b, tree._massive)]
        for lv in tree._levels:
            operands += [(pa, pb, b.p_fix) for pa, pb, b in zip(lv.p_a, lv.p_b, rows[lv.span])]
        assert len(operands) == sum(b.mass != 0.0 for b in rows) + len(rows)
        for ca, cb, c in operands:
            for x in (a, z, one):
                assert _lcross(ca, x).tobytes() == np.cross(c, x).tobytes()
                assert _rcross(x, cb).tobytes() == np.cross(x, c).tobytes()


# -- forward dynamics and stepping ------------------------------------------------


def test_fd_inverts_rnea():
    rng = np.random.default_rng(8)
    tree = random_chain(rng, 5)
    q = rng.uniform(-1, 1, (1, tree.n_dof))
    qd = rng.uniform(-1, 1, (1, tree.n_dof))
    target = rng.uniform(-3, 3, (1, tree.n_dof))
    tau = rnea(tree, GeneralizedState(q, qd, target))
    assert np.abs(forward_dynamics(tree, q, qd, tau) - target).max() <= 1e-8


def test_fd_zero_everything():
    rng = np.random.default_rng(9)
    tree = random_chain(rng, 3)
    tree2 = KinematicTree(tree.links, gravity=(0, 0, 0), marker_sites=tree.marker_sites)
    q = rng.uniform(-1, 1, (1, tree2.n_dof))
    qdd = forward_dynamics(tree2, q, np.zeros_like(q), np.zeros_like(q))
    assert np.abs(qdd).max() < 1e-12


def test_pendulum_fd_analytic():
    m, lc, iy = 2.0, 1.0, 0.04
    tree = make_pendulum(m=m, lc=lc, iy=iy)
    q = np.array([[0.5]])
    qdd = forward_dynamics(tree, q, np.zeros((1, 1)), np.zeros((1, 1)))
    expect = -(m * G * lc / (m * lc**2 + iy)) * np.sin(0.5)
    assert abs(qdd[0, 0] - expect) < 1e-12


def test_step_zero_dynamics_is_linear_drift():
    tree = KinematicTree(
        [Link("l", -1, "revolute", (0, 0, 1), (0, 0, 0), 1.0, (0.3, 0, 0), np.eye(3) * 0.01)],
        gravity=(0, 0, 0),
    )
    q, qd = np.array([[0.2]]), np.array([[1.5]])
    q2, qd2 = step(tree, q, qd, np.zeros((1, 1)), dt=0.01)
    assert abs(qd2[0, 0] - 1.5) < 1e-12 and abs(q2[0, 0] - (0.2 + 0.01 * 1.5)) < 1e-12


def test_step_richardson_order():
    tree = make_pendulum()
    q, qd = np.array([[0.6]]), np.array([[0.0]])

    def advance(dt, n):
        qq, dd = q.copy(), qd.copy()
        for _ in range(n):
            qq, dd = step(tree, qq, dd, np.zeros((1, 1)), dt=dt)
        return qq[0, 0]

    dt = 1.0 / 90.0
    ref = advance(dt / 10, 10)
    err_full = abs(advance(dt, 1) - ref)
    err_half = abs(advance(dt / 2, 2) - ref)
    assert err_half < err_full  # first-order global error shrinks with dt
    assert err_full < 4.0 * (dt**2) * 50  # O(dt^2) one-step scale bound


def test_step_rejects_bad_dt():
    tree = make_pendulum()
    for dt in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(HdysError, match="dt must be finite and positive"):
            step(tree, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), dt=dt)


def test_step_rejects_wrong_tau_shape():
    tree = random_chain(np.random.default_rng(5), 3, spherical_ok=False)
    q = np.zeros((1, tree.n_dof))
    for tau in (np.array([1.0]), 1.0, np.zeros((1, tree.n_dof + 1)), np.zeros(tree.n_dof)):
        with pytest.raises(HdysError, match="tau has shape"):
            step(tree, q, q, tau)
        with pytest.raises(HdysError, match="tau has shape"):
            forward_dynamics(tree, q, q, tau)


def test_step_rejects_non_finite_torque():
    tree = make_pendulum()
    for bad in (np.nan, np.inf, -np.inf):
        for entry in (step, forward_dynamics):
            with pytest.raises(HdysError, match="non-finite torque"):
                entry(tree, np.zeros((1, 1)), np.zeros((1, 1)), np.array([[bad]]))


def test_pendulum_energy_drift_under_two_percent():
    tree = make_pendulum()
    q, qd = np.array([[0.4]]), np.array([[0.0]])
    e0 = total_energy(tree, q, qd)
    e_min = -2.0 * G * 1.0  # hanging rest energy
    drift = 0.0
    for _ in range(90):
        q, qd = step(tree, q, qd, np.zeros((1, 1)), dt=1.0 / 90.0)
        drift = max(drift, abs(total_energy(tree, q, qd) - e0))
    assert drift < 0.02 * (e0 - e_min)


def test_rollout_reproduces_generating_trajectory():
    rng = np.random.default_rng(10)
    tree = random_chain(rng, 3)
    dt = 1.0 / 90.0
    q, qd = rng.uniform(-0.5, 0.5, (1, tree.n_dof)), rng.uniform(-0.5, 0.5, (1, tree.n_dof))
    taus = rng.uniform(-2, 2, (5, tree.n_dof))
    states = [(q.copy(), qd.copy())]
    for i in range(5):
        q, qd = step(tree, q, qd, taus[i : i + 1], dt=dt)
        states.append((q.copy(), qd.copy()))
    # replay from the recorded start: bit-for-bit the same path
    q, qd = states[0]
    for i in range(5):
        q, qd = step(tree, q, qd, taus[i : i + 1], dt=dt)
        mse = float(((q - states[i + 1][0]) ** 2).mean())
        assert mse <= 1e-20 if i == 0 else mse <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    tree = random_chain(rng, int(rng.integers(2, 5)))
    q = rng.uniform(-1, 1, (1, tree.n_dof))
    qd = rng.uniform(-1, 1, (1, tree.n_dof))
    tau = rng.uniform(-3, 3, (1, tree.n_dof))
    qdd = forward_dynamics(tree, q, qd, tau)
    assert np.abs(rnea(tree, GeneralizedState(q, qd, qdd)) - tau).max() <= 1e-8
