"""Backward operator: weighted payoff, game value field, integration, contraction."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ctsg import matrix_game
from ctsg.errors import ModelScaleError
from ctsg.example_games import build_gaussian, build_rps
from ctsg.matrix_game import solve_matrix_game
from ctsg.model import GameModel
from ctsg.shapley import (
    PolicyPair,
    TimeGrid,
    ValueGrid,
    _checked_policies,
    _payoff_stacks,
    _pure_payoffs,
    apply_gamma,
    game_value_field,
    verify_saddle,
    weighted_payoff,
)
from ctsg.solver import SolverConfig, default_initial_grid, solve
from ctsg.truncation import floor_and_shift, truncate_nonnegative

from .conftest import mixed_shape_model, random_bounded_model, refused_real, single_state_model


def constant_grid(n_t: int, values: np.ndarray, T: float = 1.0) -> ValueGrid:
    return ValueGrid(TimeGrid(T, n_t), np.tile(values, (n_t + 1, 1)))


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(2.0, 4)
        np.testing.assert_allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.interval_index(0.0) == 0
        assert grid.interval_index(2.0) == 3

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        for horizon in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match=refused_real("horizon", horizon)):
                TimeGrid(horizon, 4)

    @pytest.mark.parametrize(
        "n_steps, message",
        [
            (2.5, "n_steps=2.5 is not an integer"),
            (True, "n_steps=True is not an integer"),
            (np.float64(4.0), "n_steps=np.float64(4.0) is not an integer"),
            (0, "n_steps must be at least 1, got 0"),
        ],
        ids=["float", "bool", "numpy_float", "zero"],
    )
    def test_n_steps_must_be_an_integer_of_at_least_one(self, n_steps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TimeGrid(1.0, n_steps)

    def test_numpy_n_steps_is_held_as_an_int(self):
        grid = TimeGrid(1.0, np.int64(4))
        assert type(grid.n_steps) is int and grid == TimeGrid(1.0, 4)


@pytest.mark.parametrize("shape", [(3, 2), (5, 2), (4,)])
def test_value_grid_needs_n_steps_plus_one_time_rows(shape):
    with pytest.raises(ValueError, match=re.escape(f"values must have 4 time rows, got shape {shape}")):
        ValueGrid(TimeGrid(1.0, 3), np.zeros(shape))


class TestWeightedPayoff:
    def test_constant_grid_annihilated(self):
        # conservative rows annihilate constants; r = 0 gives c = 0
        model = random_bounded_model(np.random.default_rng(0), n_states=3)
        model = replace(model, payoff=[np.zeros_like(p) for p in model.payoff])
        v = constant_grid(4, np.ones(3))
        for x in range(3):
            np.testing.assert_allclose(weighted_payoff(model, v, 2, x), 0.0, atol=1e-14)

    def test_constant_payoff(self):
        model = random_bounded_model(np.random.default_rng(1), n_states=2)
        model = replace(model, payoff=[np.full_like(p, 2.0) for p in model.payoff])
        v = constant_grid(4, np.ones(2))
        np.testing.assert_allclose(weighted_payoff(model, v, 0, 0), 2.0, atol=1e-14)

    def test_dot_product(self):
        # v(t, .) = (1, 3), q row (-1, 1), theta = 1, r = 0 -> c = 2
        model = GameModel(
            actions_p1=[[0], [0]],
            actions_p2=[[0], [0]],
            payoff=[np.zeros((1, 1)), np.zeros((1, 1))],
            generator=[
                np.array([[-1.0, 1.0]]).reshape(1, 1, 2),
                np.array([[1.0, -1.0]]).reshape(1, 1, 2),
            ],
            terminal=np.zeros(2),
            theta=1.0,
            horizon=1.0,
        )
        v = constant_grid(2, np.array([1.0, 3.0]))
        assert weighted_payoff(model, v, 0, 0)[0, 0] == pytest.approx(2.0)


class TestGameValueField:
    def test_zero_payoff_zero_field(self):
        model = random_bounded_model(np.random.default_rng(2), n_states=2)
        model = replace(model, payoff=[np.zeros_like(p) for p in model.payoff])
        v = constant_grid(4, np.ones(2))
        a_field, _ = game_value_field(model, v)
        np.testing.assert_allclose(a_field, 0.0, atol=1e-12)

    def test_single_cell_scaling(self):
        # 1x1 game: a(t, x) = theta r0 v(t, x)
        model = single_state_model(r0=0.7, theta=2.0)
        v = ValueGrid(TimeGrid(1.0, 3), np.array([[1.0], [2.0], [3.0], [4.0]]))
        a_field, policies = game_value_field(model, v)
        np.testing.assert_allclose(a_field[:, 0], 2.0 * 0.7 * np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(policies.pi1[0], 1.0)


    def test_mixed_shapes_match_per_cell_solves(self):
        model = mixed_shape_model()
        rng = np.random.default_rng(5)
        # integer data keep every weighted payoff exact, whatever the summation order
        v = ValueGrid(TimeGrid(1.0, 5), rng.integers(1, 6, size=(6, model.n_states)).astype(float))
        a_field, policies = game_value_field(model, v)
        for x in range(model.n_states):
            for i in range(6):
                sol = solve_matrix_game(weighted_payoff(model, v, i, x))
                assert a_field[i, x] == sol.value
                np.testing.assert_array_equal(policies.pi1[x][i], sol.strategy_p1)
                np.testing.assert_array_equal(policies.pi2[x][i], sol.strategy_p2)
        np.testing.assert_array_equal(a_field[:, 5], 0.0)  # the all-zero games

    @pytest.mark.parametrize("case", ["rps8_solve", "mixed_shapes_sweep"])
    def test_policies_are_the_sweeps_stacks_read_in_place(self, case):
        # one layout from the sweep on: per-state rows are views of the stacks, and the check copies nothing
        if case == "rps8_solve":
            model = build_rps(0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)[0]
            _, policies, _ = solve(model, SolverConfig(epsilon=1e-3, n_t=16))
        else:
            model = mixed_shape_model()
            _, policies = apply_gamma(model, default_initial_grid(model, 8))
        groups = _checked_policies(model, policies)
        for (group, p1, p2), (states, s1, s2) in zip(groups, policies._stacks, strict=True):
            assert p1 is s1 and p2 is s2 and np.array_equal(states, group.states)
            assert s1.flags.c_contiguous and s2.flags.c_contiguous  # as a policy file reads back
            for j, x in enumerate(states):
                for rows, stack in ((policies.pi1[x], s1), (policies.pi2[x], s2)):
                    assert np.shares_memory(rows, stack) and np.array_equal(rows, stack[j])
        with pytest.raises(TypeError):
            policies.pi1[0] = policies.pi1[0].copy()
        x = int(policies._stacks[0][0][0])
        policies.pi2[x][2] = 7.0
        assert np.all(policies._stacks[0][2][0, 2] == 7.0)


class TestPolicyPair:
    def test_per_state_rows_are_stacked_once_as_the_sweep_stacks_them(self):
        model = mixed_shape_model()
        _, swept = apply_gamma(model, default_initial_grid(model, 8))
        # Fortran-order rows, as a caller may hand in: the pair copies them into C-order stacks
        policies = PolicyPair(swept.grid, [np.asfortranarray(p) for p in swept.pi1], list(swept.pi2))
        assert policies.pi1 is policies.pi1 and policies.pi2 is policies.pi2  # built once, not per read
        for got, want in zip(policies._stacks, swept._stacks, strict=True):
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes() and a.flags.c_contiguous
            assert not np.shares_memory(got[1], want[1]) and not np.shares_memory(got[2], want[2])
        assert _checked_policies(model, policies)[0][1] is policies._stacks[0][1]

    @pytest.mark.parametrize(
        "pi1, pi2, message",
        [
            ([np.ones((5, 1))] * 2, [np.ones((5, 1))], "pi1 has rows for 2 states, pi2 for 1"),
            ([np.ones((5, 1))], [np.ones(5)], "pi2 of state 0 has shape (5,), not n_steps + 1 = 5 rows"),
        ],
        ids=["state_counts", "not_a_table"],
    )
    def test_refuses_rows_that_are_not_one_table_per_state(self, pi1, pi2, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PolicyPair(TimeGrid(1.0, 4), pi1, pi2)


def per_cell_saddle_gap(model: GameModel, v: ValueGrid, policies) -> float:
    """verify_saddle's quantity by one weighted_payoff per cell."""
    worst = -np.inf
    for x in range(model.n_states):
        for i in range(v.grid.n_steps + 1):
            c = weighted_payoff(model, v, i, x)
            gap = float(np.max(c @ policies.pi2[x][i]) - np.min(policies.pi1[x][i] @ c))
            worst = max(worst, gap)
    return worst


@pytest.mark.parametrize("game", ["two_state", "rps8"])
def test_verify_saddle_matches_per_cell_loop(game, two_state_model):
    if game == "two_state":
        model = two_state_model
    else:
        model, _ = build_rps(0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
    v, policies, _ = solve(model, SolverConfig(epsilon=1e-3, n_t=16))
    expected = per_cell_saddle_gap(model, v, policies)
    # the stacked and the per-cell generator products may round differently
    scale = float(np.max(np.abs(v.values))) * (model.theta * model.norm_r + 2.0 * model.norm_q)
    assert verify_saddle(model, v, policies) == pytest.approx(expected, rel=0.0, abs=1e-13 * scale)


def test_verify_saddle_on_mixed_shapes_equals_the_per_cell_loop():
    # Integer values and payoffs with rows in multiples of 1/8 make every product and sum
    # exact, so the stacked and per-cell readings agree to the bit whatever the order.
    model = mixed_shape_model()
    rng = np.random.default_rng(3)
    grid = TimeGrid(1.0, 4)
    v = ValueGrid(grid, rng.integers(1, 6, size=(5, model.n_states)).astype(float))

    def rows(n_actions):
        counts = rng.multinomial(8, np.ones(n_actions) / n_actions, size=5)
        return counts / 8.0

    policies = PolicyPair(
        grid, [rows(len(a)) for a in model.actions_p1], [rows(len(b)) for b in model.actions_p2]
    )
    groups = _checked_policies(model, policies)
    for (states, C), (_, p1, p2) in zip(_payoff_stacks(model, v.values), groups, strict=True):
        row_scores, col_scores = _pure_payoffs(C, p2, 1), _pure_payoffs(C, p1, 2)
        for j, x in enumerate(states):
            for i in range(5):
                c = weighted_payoff(model, v, i, x)
                np.testing.assert_array_equal(row_scores[:, j, i], c @ policies.pi2[x][i])
                np.testing.assert_array_equal(col_scores[:, j, i], policies.pi1[x][i] @ c)
    assert verify_saddle(model, v, policies) == per_cell_saddle_gap(model, v, policies)


@pytest.mark.parametrize("player, state, row, entries", [(1, 0, 2, [1.2, -0.2]), (2, 1, 0, [0.9, 0.2])])
def test_verify_saddle_refuses_a_row_that_is_not_a_probability_vector(
    two_state_model, player, state, row, entries
):
    v = constant_grid(4, np.ones(2))
    _, policies = apply_gamma(two_state_model, v)
    (policies.pi1 if player == 1 else policies.pi2)[state][row] = entries
    message = f"pi{player} at state {state}, row {row} is not a probability vector: {entries}"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_saddle(two_state_model, v, policies)


def test_verify_saddle_refuses_value_and_policy_grids_that_differ(two_state_model):
    # the value rows would not line up with the policy rows
    _, policies = apply_gamma(two_state_model, constant_grid(4, np.ones(2)))
    message = (
        "value grid TimeGrid(horizon=1.0, n_steps=8) and "
        "policy grid TimeGrid(horizon=1.0, n_steps=4) differ"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_saddle(two_state_model, constant_grid(8, np.ones(2)), policies)


class TestApplyGamma:
    def test_fixed_point_of_trivial_model(self):
        model = random_bounded_model(np.random.default_rng(3), n_states=2)
        model = replace(model, payoff=[np.zeros_like(p) for p in model.payoff], terminal=np.zeros(2))
        v = constant_grid(6, np.ones(2))
        v_next, _ = apply_gamma(model, v)
        np.testing.assert_allclose(v_next.values, 1.0, atol=1e-14)

    def test_one_step_linear(self):
        # constant integrand: one application of the operator to v = 1 gives
        # 1 + theta r0 (T - t); trapezoid is exact for constants
        model = single_state_model(r0=0.3)
        v = constant_grid(5, np.ones(1))
        v_next, _ = apply_gamma(model, v)
        t = v.grid.nodes
        np.testing.assert_allclose(v_next.values[:, 0], 1.0 + 0.3 * (1.0 - t), atol=1e-14)

    def test_boundary_row_exact(self):
        model = random_bounded_model(np.random.default_rng(4), n_states=3)
        v = constant_grid(4, np.array([2.0, 0.5, 1.5]))
        v_next, _ = apply_gamma(model, v)
        np.testing.assert_array_equal(v_next.values[-1], np.exp(model.theta * model.terminal))

    def test_non_finite_grid_rejected(self):
        v = constant_grid(4, np.ones(2))
        v.values[2, 1] = np.nan
        with pytest.raises(ModelScaleError, match="value grid contains non-finite entries"):
            apply_gamma(random_bounded_model(np.random.default_rng(4), n_states=2), v)

    def test_terminal_overflow_detected(self):
        model = single_state_model(r0=0.0, g0=1000.0)
        with pytest.raises(ModelScaleError):
            apply_gamma(model, constant_grid(2, np.ones(1)))


def test_iterated_contraction_bound():
    """Sup-norm gap of iterated applications respects the factorial envelope."""
    rng = np.random.default_rng(7)
    model = random_bounded_model(rng, n_states=2, rate_scale=0.9, payoff_scale=0.8)
    l_tilde = model.theta * model.norm_r + 2.0 * model.norm_q
    T = model.horizon
    grid = TimeGrid(T, 200)
    v = ValueGrid(grid, rng.uniform(0.5, 2.0, size=(201, 2)))
    w = ValueGrid(grid, rng.uniform(0.5, 2.0, size=(201, 2)))
    gap0 = float(np.max(np.abs(v.values - w.values)))
    for n in range(1, 7):
        v, _ = apply_gamma(model, v)
        w, _ = apply_gamma(model, w)
        gap = float(np.max(np.abs(v.values - w.values)))
        assert gap <= 1.05 * l_tilde**n * T**n / math.factorial(n) * gap0


def test_monotone_in_time_for_nonnegative_model(two_state_model):
    v, _, report = solve(two_state_model, SolverConfig(epsilon=1e-6, n_t=96))
    assert report.converged
    increments = np.diff(v.values, axis=0)
    assert np.all(increments <= 1e-9)


KERNEL_RULE_MODELS = {
    "rps8": lambda: build_rps(0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)[0],
    "gaussian8": lambda: build_gaussian(
        sigma=1.0, rate_bound=0.25, payoff_bound=1.0, x_min=-4.0, x_max=4.0, n_x=8, theta=1.0, T=1.0
    )[0],
}


@pytest.mark.parametrize("name", list(KERNEL_RULE_MODELS))
def test_kernel_rule_answers_every_varied_game_of_a_sweep(name, monkeypatch):
    """The closed form takes every non-constant game of a sweep; none reaches the tableau."""
    model = KERNEL_RULE_MODELS[name]()
    games: dict[str, int] = {"_completely_mixed": 0, "_simplex": 0}

    def counted(name):
        solver = getattr(matrix_game, name)

        def count_games(stack):
            games[name] += stack.shape[-1]  # games last
            return solver(stack)

        return count_games

    for name in games:
        monkeypatch.setattr(matrix_game, name, counted(name))
    apply_gamma(model, default_initial_grid(model, 32))
    assert games["_completely_mixed"] > 0 and games["_simplex"] == 0


@pytest.mark.parametrize("name", list(KERNEL_RULE_MODELS))
def test_kernel_rule_solve_matches_tableau_solve(name, monkeypatch):
    """A solve through the closed form takes the tableau-only solve's iterations and values."""
    model = KERNEL_RULE_MODELS[name]()
    config = SolverConfig(epsilon=1e-3, n_t=32)
    v, policies, report = solve(model, config)
    rule = matrix_game._completely_mixed
    monkeypatch.setattr(
        matrix_game, "_completely_mixed", lambda D: (*rule(D)[:3], np.zeros(D.shape[-1], dtype=bool))
    )
    ref_v, ref_policies, ref_report = solve(model, config)
    assert report.iterations == ref_report.iterations
    np.testing.assert_allclose(v.values, ref_v.values, rtol=1e-13, atol=0.0)
    for got, want in zip(policies.pi1 + policies.pi2, ref_policies.pi1 + ref_policies.pi2):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def test_game_value_field_on_a_cap_level_is_each_game_solved_alone(monkeypatch):
    """A cap level's absorbing states give constant games; blocks of 7 cut across states.

    Every cell's value and both strategy rows are bitwise the single-game
    solve of the same payoff stack entry.
    """
    model, cert = build_gaussian(
        sigma=1.0, rate_bound=0.25, payoff_bound=1.0, x_min=-4.0, x_max=4.0, n_x=8, theta=1.0, T=1.0
    )
    base, _ = floor_and_shift(model, 1)
    level = truncate_nonnegative(base, cert, 4)
    v = solve(level, SolverConfig(epsilon=1e-3, n_t=8))[0]
    monkeypatch.setattr(matrix_game, "_BLOCK_GAMES", 7)
    a_field, policies = game_value_field(level, v)
    constant = 0
    for states, C in _payoff_stacks(level, v.values):
        for j, x in enumerate(states):
            for i in range(v.grid.n_steps + 1):
                game = C[:, :, j, i]
                constant += np.ptp(game) == 0.0
                sol = solve_matrix_game(game)
                assert a_field[i, x].tobytes() == np.float64(sol.value).tobytes()
                assert policies.pi1[x][i].tobytes() == sol.strategy_p1.tobytes()
                assert policies.pi2[x][i].tobytes() == sol.strategy_p2.tobytes()
    assert 0 < constant < a_field.size
