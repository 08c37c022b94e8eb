import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hdys.rbd import (
    InfeasibleActivation,
    MuscleError,
    MuscleSet,
    muscle_to_torque,
    rnea,
    solve_activations,
    synth_emg,
)
from hdys.datahub import default_profiles, generate_sequence, tree_bundle
from hdys.rbd.muscle import _newton


def antagonist_pair():
    return MuscleSet(
        ("ag", "an"), np.array([[0.05], [-0.05]]), np.array([400.0, 400.0])
    )


def redundant_three():
    return MuscleSet(
        ("a", "b", "c"), np.array([[0.04], [0.03], [0.05]]), np.array([500.0, 400.0, 600.0])
    )


def test_zero_activation_zero_torque():
    ms = redundant_three()
    assert np.array_equal(muscle_to_torque(ms, np.zeros(3)), np.zeros(1))


def test_single_muscle_definition():
    ms = MuscleSet(("m",), np.array([[0.07]]), np.array([300.0]))
    tau = muscle_to_torque(ms, np.array([1.0]))
    assert abs(tau[0] - 0.07 * 300.0) < 1e-12


def test_antagonists_cancel():
    ms = antagonist_pair()
    tau = muscle_to_torque(ms, np.array([0.6, 0.6]))
    assert abs(tau[0]) < 1e-12


def test_activation_bounds_enforced():
    ms = antagonist_pair()
    with pytest.raises(MuscleError):
        muscle_to_torque(ms, np.array([1.2, 0.0]))
    with pytest.raises(MuscleError):
        muscle_to_torque(ms, np.array([-0.1, 0.0]))


def test_solve_zero_target_is_zero():
    ms = redundant_three()
    assert np.array_equal(solve_activations(ms, np.zeros(1)), np.zeros(3))


def test_solve_scalar_single_muscle_per_dof():
    ms = MuscleSet(("m",), np.array([[0.07]]), np.array([300.0]))
    a = solve_activations(ms, np.array([10.5]))
    assert abs(a[0] - 10.5 / (0.07 * 300.0)) < 1e-12


def test_solve_matches_grid_oracle():
    ms = redundant_three()
    b = ms.torque_map  # [20, 12, 30]
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    a1, a2 = np.meshgrid(grid, grid, indexing="ij")
    for tau in (7.0, 30.0, 55.0):
        a = solve_activations(ms, np.array([tau]))
        assert np.abs(muscle_to_torque(ms, a) - tau).max() < 1e-6 * max(1.0, tau)
        a0 = (tau - b[0, 1] * a1 - b[0, 2] * a2) / b[0, 0]
        valid = (a0 >= 0) & (a0 <= 1)
        norms = np.where(valid, a0**2 + a1**2 + a2**2, np.inf)
        i, j = np.unravel_index(np.argmin(norms), norms.shape)
        best = np.array([a0[i, j], a1[i, j], a2[i, j]])
        assert np.abs(a - best).max() < 2e-3


def test_solve_infeasible_not_clipped():
    ms = redundant_three()
    # max torque = 20 + 12 + 30 = 62
    with pytest.raises(InfeasibleActivation):
        solve_activations(ms, np.array([80.0]))
    with pytest.raises(InfeasibleActivation):
        solve_activations(ms, np.array([-5.0]))  # all arms positive


def test_solve_requires_enough_muscles():
    ms = MuscleSet(("m",), np.array([[0.05, 0.0]]), np.array([100.0]))
    with pytest.raises(MuscleError):
        solve_activations(ms, np.zeros(2))


def random_feasible(seed):
    """A random full-rank muscle set and a target torque that `a_true` reaches."""
    rng = np.random.default_rng(seed)
    n_dof = int(rng.integers(1, 5))
    n_mus = int(rng.integers(n_dof + 1, n_dof + 6))
    arms = rng.uniform(-0.08, 0.08, (n_mus, n_dof))
    while np.linalg.matrix_rank(arms.T) < n_dof:
        arms = rng.uniform(-0.08, 0.08, (n_mus, n_dof))
    ms = MuscleSet(tuple(f"m{i}" for i in range(n_mus)), arms, rng.uniform(100, 900, n_mus))
    a_true = rng.uniform(0.05, 0.95, n_mus)
    return ms, a_true, muscle_to_torque(ms, a_true)


def assert_solved(ms, a_true, tau):
    a = solve_activations(ms, tau)
    assert (a >= -1e-12).all() and (a <= 1 + 1e-12).all()
    assert np.abs(muscle_to_torque(ms, a) - tau).max() <= 1e-6 * max(1.0, np.abs(tau).max())
    assert float(a @ a) <= float(a_true @ a_true) + 1e-9  # never worse than a witness


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_property_random_feasible_targets(seed):
    assert_solved(*random_feasible(seed))


@pytest.mark.parametrize("seed", [523, 168, 172])
def test_newton_alone_reaches_hard_targets(seed):
    # feasible targets outside the box that a residual-norm line search does not
    # reach from the closed-form multipliers; 168 has about 1e9-long directions,
    # whose first acceptable step is near t = 1e-12
    ms, a_true, tau = random_feasible(seed)
    b = ms.torque_map
    lam0 = np.linalg.solve(b @ b.T, tau)
    a_free = b.T @ lam0
    assert ((a_free < 0.0) | (a_free > 1.0)).any()
    _, r = _newton(b, tau[None], lam0[None])
    assert np.abs(r).max() <= 1e-6 * max(1.0, np.abs(tau).max())
    assert_solved(ms, a_true, tau)


@pytest.mark.slow
def test_solver_contract_over_twenty_thousand_random_targets():
    # every target is feasible by construction; the in-box closed form and the
    # one Newton run, with no other fallback, must meet the same contract
    for seed in range(20_000):
        assert_solved(*random_feasible(seed))


# -- one solve per sequence ----------------------------------------------------------


def profile_torques(profile_id):
    """A profile's muscle set and the actuated torques of its first seed-0 sequence."""
    profiles = default_profiles(n_train=1, n_test=0)
    p_idx = [p.profile_id for p in profiles].index(profile_id)
    _, traj = generate_sequence(0, profiles[p_idx], p_idx, 0)
    bundle = tree_bundle(profiles[p_idx].tree_key)
    return bundle.muscles, rnea(bundle.tree, traj)[:, bundle.tree.root_dof :]


@pytest.mark.parametrize("profile_id", ["C", "D"])
def test_sequence_solve_equals_frame_by_frame(profile_id):
    ms, tau = profile_torques(profile_id)
    acts = solve_activations(ms, tau)
    assert acts.shape == (len(tau), ms.n_muscles)
    assert np.array_equal(acts, np.stack([solve_activations(ms, row) for row in tau]))
    if profile_id == "D":  # some frames leave the box, so the batched Newton run is covered
        assert ((acts == 0.0) | (acts == 1.0)).any()


def test_mixed_batch_rows_equal_their_one_row_calls():
    # seed 523's null-space direction is all positive, so the zero torque is
    # its only in-box target; the random reachable targets and the seed-523
    # target leave the box and share one Newton run
    ms, _, hard = random_feasible(523)
    reachable = muscle_to_torque(ms, np.random.default_rng(0).uniform(0.0, 1.0, (3, ms.n_muscles)))
    zero = np.zeros(ms.n_actuated)
    batch = np.stack([zero, hard, reachable[0], zero, reachable[1], hard, reachable[2]])
    acts = solve_activations(ms, batch)
    for row, a in zip(batch, acts):
        assert np.array_equal(a, solve_activations(ms, row))
    assert np.array_equal(acts[[0, 3]], np.zeros((2, ms.n_muscles)))
    assert np.abs(muscle_to_torque(ms, acts) - batch).max() <= 1e-6 * max(1.0, np.abs(batch).max())


def test_sequence_solve_names_first_infeasible_frame():
    ms = redundant_three()  # torques reachable: [0, 62]
    with pytest.raises(InfeasibleActivation, match=r"^frame 2: torque outside"):
        solve_activations(ms, np.array([[7.0], [55.0], [80.0], [30.0], [-5.0]]))
    with pytest.raises(InfeasibleActivation, match=r"^torque outside"):
        solve_activations(ms, np.array([80.0]))


def test_sequence_solve_rejects_bad_shapes():
    ms = redundant_three()
    for tau in (np.zeros((4, 2)), np.zeros(2), np.zeros((2, 3, 1)), np.float64(1.0)):
        with pytest.raises(MuscleError):
            solve_activations(ms, tau)


# -- surface EMG -------------------------------------------------------------------


def test_emg_zero_input_zero_output():
    y = synth_emg(np.zeros((30, 3)), fps=100, noise_seed=None)
    assert np.array_equal(y, np.zeros((30, 3)))


def test_emg_step_response_time_constant():
    a = np.zeros((20, 1))
    a[5:] = 1.0
    y = synth_emg(a, fps=100, noise_seed=None)
    # 40 ms after the step at fps 100 = 4 frames: exactly 1 - e^-1
    assert abs(y[9, 0] - (1.0 - np.exp(-1.0))) < 1e-12
    assert y[4, 0] == 0.0


def test_emg_deterministic_and_nonnegative():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, (50, 4))
    y1 = synth_emg(a, 90.0, noise_seed=123)
    y2 = synth_emg(a, 90.0, noise_seed=123)
    y3 = synth_emg(a, 90.0, noise_seed=124)
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)
    assert (y1 >= 0).all()


def test_emg_rejects_bad_activations():
    with pytest.raises(MuscleError):
        synth_emg(np.full((5, 2), 1.4), fps=90)
