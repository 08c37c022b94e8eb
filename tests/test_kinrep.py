import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hdys.datahub import MotionSpec, sample_trajectory
from hdys.kinrep import (
    RepresentationError,
    SequenceRecord,
    attach_dynamics,
    build_representations,
    finite_difference,
)
from hdys.rbd import GeneralizedState, muscle_to_torque, rnea
from conftest import make_pendulum, random_chain


def test_fd_constant_zero():
    v, a = finite_difference(np.full((10, 3), 2.5), fps=90)
    assert np.abs(v).max() == 0.0 and np.abs(a).max() == 0.0


def test_fd_linear_ramp_exact():
    fps = 90.0
    t = np.arange(12) / fps
    x = 3.0 * t[:, None]
    v, a = finite_difference(x, fps)
    assert np.abs(v - 3.0).max() < 1e-12
    assert np.abs(a[1:-1]).max() < 1e-9


def test_fd_quadratic_exact_interior():
    fps = 100.0
    t = np.arange(20) / fps
    x = t[:, None] ** 2
    v, a = finite_difference(x, fps)
    assert np.abs(a[1:-1] - 2.0).max() < 1e-9
    assert np.abs(v[1:-1] - 2.0 * t[1:-1, None]).max() < 1e-12


def test_fd_needs_three_frames():
    with pytest.raises(RepresentationError):
        finite_difference(np.zeros((2, 1)), fps=90)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_fd_linearity(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(9, 2))
    y = rng.normal(size=(9, 2))
    al, be = rng.normal(), rng.normal()
    v1, a1 = finite_difference(al * x + be * y, 50.0)
    vx, ax = finite_difference(x, 50.0)
    vy, ay = finite_difference(y, 50.0)
    assert np.allclose(v1, al * vx + be * vy, atol=1e-9, rtol=0)
    assert np.allclose(a1, al * ax + be * ay, atol=1e-6, rtol=0)


def _static_traj(tree, frames=10):
    q = np.tile(np.linspace(0.1, 0.5, tree.n_dof), (frames, 1))
    z = np.zeros_like(q)
    return GeneralizedState(q, z, z)


def test_build_representations_static_pose():
    rng = np.random.default_rng(1)
    tree = random_chain(rng, 3)
    rec = build_representations(tree, _static_traj(tree), [0, 1, 2], ("x_m", "x_k", "x_a"), 90.0)
    assert np.abs(rec.channels["x_m"][:, :, 3:]).max() == 0.0
    assert np.abs(rec.channels["x_k"][:, :, 3:]).max() == 0.0
    xa = rec.channels["x_a"]
    assert np.abs(xa[:, 1::3]).max() == 0.0 and np.abs(xa[:, 2::3]).max() == 0.0


def test_marker_subset_row_counts():
    tree = make_pendulum()
    # duplicate-site tree for bigger subsets
    rng = np.random.default_rng(2)
    tree40 = random_chain(rng, 4)
    from hdys.rbd import KinematicTree

    sites = [(0, tuple(rng.uniform(-0.1, 0.1, 3))) for _ in range(40)]
    tree40 = KinematicTree(tree40.links, marker_sites=sites)
    traj = _static_traj(tree40)
    r20 = build_representations(tree40, traj, range(20), ("x_m",), 90.0)
    r40 = build_representations(tree40, traj, range(40), ("x_m",), 90.0)
    assert r20.channels["x_m"].shape[1] == 20
    assert r40.channels["x_m"].shape[1] == 40
    assert np.array_equal(r40.channels["x_m"][:, :20], r20.channels["x_m"])


def test_marker_subset_out_of_range():
    tree = make_pendulum()
    with pytest.raises(RepresentationError):
        build_representations(tree, _static_traj(tree), [99], ("x_m",), 90.0)
    with pytest.raises(RepresentationError):
        build_representations(tree, _static_traj(tree), [], ("x_m",), 90.0)


def test_angle_acceleration_matches_oracle_on_smooth_motion():
    rng = np.random.default_rng(3)
    tree = random_chain(rng, 3)
    spec = MotionSpec(
        family="periodic-gait-like",
        bias=tuple(np.zeros(tree.n_dof)),
        amp_base=tuple(np.full(tree.n_dof, 0.3)),
        amp_scale=(0.8, 1.0),
        freq_range=(0.5, 0.8),
    )
    fps = 300.0  # dense sampling keeps the truncation error tiny
    traj = sample_trajectory(spec, 1.0, fps, np.random.default_rng(42))
    rec = build_representations(tree, traj, [0], ("x_a",), fps)
    acc = rec.channels["x_a"][:, 2::3]
    assert np.abs(acc[1:-1] - traj.qdd[1:-1]).max() < 1e-2
    # same motion sampled twice as densely: second-order stencil error drops ~4x
    traj2 = sample_trajectory(spec, 1.0, 2 * fps, np.random.default_rng(42))
    rec2 = build_representations(tree, traj2, [0], ("x_a",), 2 * fps)
    e1 = np.abs(acc[1:-1] - traj.qdd[1:-1]).max()
    e2 = np.abs(rec2.channels["x_a"][1:-1, 2::3] - traj2.qdd[1:-1]).max()
    assert e2 < e1 / 2.5


def test_attach_dynamics_static_gravity_free():
    rng = np.random.default_rng(4)
    tree = random_chain(rng, 3)
    from hdys.rbd import KinematicTree

    tree0 = KinematicTree(tree.links, gravity=(0, 0, 0), marker_sites=tree.marker_sites)
    traj = _static_traj(tree0)
    rec = build_representations(tree0, traj, [0], ("x_m", "x_k"), 90.0)
    attach_dynamics(rec, tree0, traj, None, ("tau_tr",), torque_channel="tau_tr")
    assert np.abs(rec.channels["tau_tr"]).max() < 1e-12


def test_attach_dynamics_pendulum_analytic():
    m, lc = 2.0, 1.0
    tree = make_pendulum(m=m, lc=lc, iy=0.04)
    fps = 90.0
    t = np.arange(40) / fps
    q = 0.5 * np.sin(2 * np.pi * 0.8 * t)[:, None]
    qd = 0.5 * 2 * np.pi * 0.8 * np.cos(2 * np.pi * 0.8 * t)[:, None]
    qdd = -0.5 * (2 * np.pi * 0.8) ** 2 * np.sin(2 * np.pi * 0.8 * t)[:, None]
    traj = GeneralizedState(q, qd, qdd)
    rec = build_representations(tree, traj, [0], ("x_k",), fps)
    attach_dynamics(rec, tree, traj, None, ("tau_tr",))
    analytic = (m * lc**2 + 0.04) * qdd[:, 0] + m * 9.81 * lc * np.sin(q[:, 0])
    assert np.abs(rec.channels["tau_tr"][:, 0] - analytic).max() < 1e-8


def test_attach_muscle_actions_roundtrip():
    from hdys.rbd import build_t2, t2_muscles, T2_BIAS_POSTURE

    tree = build_t2()
    ms = t2_muscles(tree)
    frames = 12
    q = np.tile(T2_BIAS_POSTURE, (frames, 1))
    traj = GeneralizedState(q, np.zeros_like(q), np.zeros_like(q))
    rec = build_representations(tree, traj, [0, 1], ("x_k",), 90.0)
    attach_dynamics(rec, tree, traj, ms, ("tau_m",), torque_channel="tau_ts")
    tau = rnea(tree, traj)
    recovered = muscle_to_torque(ms, rec.channels["tau_m"][0])
    assert np.abs(recovered - tau[0]).max() < 1e-6 * max(1.0, np.abs(tau).max())


def test_frame_sample_invariants():
    rec_channels = {"x_m": np.zeros((5, 3, 9)), "tau_m": np.full((5, 2), 0.5)}
    rec = SequenceRecord("s", "p", "t", 90.0, 70.0, rec_channels)
    assert rec.mask == frozenset({"x_m", "tau_m"})
    bad = {"x_m": np.zeros((5, 3, 8))}
    with pytest.raises(RepresentationError):
        SequenceRecord("s", "p", "t", 90.0, 70.0, bad)
    with pytest.raises(RepresentationError):
        SequenceRecord("s", "p", "t", 90.0, 70.0, {"tau_m": np.full((5, 2), 1.5)})


def test_record_validation_checks_every_frame():
    tau_m = np.full((5, 2), 0.5)
    tau_m[3, 1] = 1.5
    with pytest.raises(RepresentationError, match="muscle actions"):
        SequenceRecord("s", "p", "t", 90.0, 70.0, {"tau_m": tau_m})
    tau_e = np.full((5, 2), 0.5)
    tau_e[4, 0] = -1.0
    with pytest.raises(RepresentationError, match="sEMG"):
        SequenceRecord("s", "p", "t", 90.0, 70.0, {"tau_e": tau_e})
