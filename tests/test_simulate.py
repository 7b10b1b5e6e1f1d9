"""Path sampler laws and the Monte Carlo estimator against closed-form oracles."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from ctsg import io as artifacts
from ctsg.errors import ModelScaleError, NumericsError
from ctsg.example_games import build_rps
from ctsg.model import GameModel
from ctsg.shapley import PolicyPair, TimeGrid, _checked_policies, weighted_payoff
from ctsg.simulate import (
    _destination,
    _mix,
    _PolicyTables,
    _series_terms,
    deviation_gain,
    estimate_value,
    evaluate_policies,
)
from ctsg.solver import SolverConfig, solve

from .conftest import FIXTURES, action_dependent_rps, mixed_shape_model, single_state_model


def uniform_policies(model: GameModel, n_t: int) -> PolicyPair:
    grid = TimeGrid(model.horizon, n_t)
    pi1 = [
        np.full((n_t + 1, len(model.actions_p1[x])), 1.0 / len(model.actions_p1[x]))
        for x in range(model.n_states)
    ]
    pi2 = [
        np.full((n_t + 1, len(model.actions_p2[x])), 1.0 / len(model.actions_p2[x]))
        for x in range(model.n_states)
    ]
    return PolicyPair(grid, pi1, pi2)


def two_state_chain(rate: float, T: float = 10.0, r: float = 0.0, g=(0.0, 0.0)) -> GameModel:
    """Two states that swap at `rate`, both paying `r`, with terminal reward g."""
    q0 = np.array([[-rate, rate]]).reshape(1, 1, 2)
    q1 = np.array([[rate, -rate]]).reshape(1, 1, 2)
    return GameModel(
        actions_p1=[[0]] * 2,
        actions_p2=[[0]] * 2,
        payoff=[np.full((1, 1), r)] * 2,
        generator=[q0, q1],
        terminal=np.array(g, dtype=float),
        theta=1.0,
        horizon=T,
    )


def absorbing_clock(q0: np.ndarray, T: float) -> GameModel:
    """State 0 pays rate 1 and leaves at q0[a] under player-1 action a; state 1 absorbs.

    With theta = 1 each path's functional is exp(min(tau, T)), tau the first
    jump time, so the log of the retained values is the censored jump time.
    """
    n_act = q0.shape[0]
    return GameModel(
        actions_p1=[list(range(n_act)), [0]],
        actions_p2=[[0], [0]],
        payoff=[np.ones((n_act, 1)), np.zeros((1, 1))],
        generator=[np.asarray(q0, dtype=float).reshape(n_act, 1, 2), np.zeros((1, 1, 2))],
        terminal=np.zeros(2),
        theta=1.0,
        horizon=T,
    )


def first_jump_ks(model: GameModel, pol: PolicyPair, n: int, cdf) -> float:
    """Kolmogorov-Smirnov distance of the sampled first-jump times to cdf, censored at T."""
    est = estimate_value(model, pol, 0, 0.0, paths=n, rng_seed=0)
    tau = np.log(est.values)
    xs = np.sort(tau[tau < model.horizon * (1.0 - 1e-12)])
    return float(np.max(np.abs(np.arange(1, len(xs) + 1) / n - cdf(xs))))


class TestSamplePath:
    """Laws of the paths drawn by the estimator's sampler, read off retained values."""

    def test_first_jump_exponential_ks(self):
        # 1% critical value at 10^4 samples
        rate = 0.7
        model = absorbing_clock(np.array([[-rate, rate]]), T=10.0)
        n = 10_000
        ks = first_jump_ks(model, uniform_policies(model, 10), n, lambda t: 1.0 - np.exp(-rate * t))
        assert ks < 1.628 / math.sqrt(n)

    def test_symmetric_chain_occupation(self):
        # terminal [0, 1] makes log(value) the indicator of ending in state 1
        model = two_state_chain(1.0, T=20.0)
        model = dataclasses.replace(model, terminal=np.array([0.0, 1.0]))
        n = 1500
        pol = uniform_policies(model, 10)
        est = estimate_value(model, pol, 0, 0.0, paths=n, rng_seed=0)
        freq = float(np.mean(np.log(est.values)))
        assert abs(freq - 0.5) <= 3.0 * 0.5 / math.sqrt(n)

    def test_two_piece_policy_jump_law(self):
        # policy switches the jump rate at t = 1; first-jump CDF has the
        # closed inhomogeneous-survival form, checked by Kolmogorov-Smirnov
        lo, hi, T = 0.4, 1.2, 3.0
        model = absorbing_clock(np.array([[-lo, lo], [-hi, hi]]), T)
        grid = TimeGrid(T, 3)
        pi1 = np.zeros((4, 2))
        pi1[0] = [1.0, 0.0]  # rate lo on [0, 1)
        pi1[1:] = [0.0, 1.0]  # rate hi afterwards
        pol = PolicyPair(grid, [pi1, np.ones((4, 1))], [np.ones((4, 1))] * 2)

        def cdf(t: np.ndarray) -> np.ndarray:
            hazard = np.where(t < 1.0, lo * t, lo + hi * (t - 1.0))
            return 1.0 - np.exp(-hazard)

        n = 4000
        assert first_jump_ks(model, pol, n, cdf) < 1.628 / math.sqrt(n)


class TestEstimateValue:
    def test_zero_payoff_is_exactly_one(self):
        model = two_state_chain(1.0, T=2.0)
        est = estimate_value(model, uniform_policies(model, 4), 0, 0.0, paths=500, rng_seed=0)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_degenerate_single_state(self):
        # every path yields exp(theta r0 (T - t0) + theta g0) exactly
        model = single_state_model(r0=0.4, g0=0.3, theta=2.0, T=1.5)
        est = estimate_value(model, uniform_policies(model, 6), 0, 0.0, paths=100, rng_seed=1)
        expected = math.exp(2.0 * (0.4 * 1.5 + 0.3))
        np.testing.assert_allclose(est.values, expected, rtol=1e-12)
        assert est.std_error <= 1e-12 * expected

    def test_reproducible_and_thread_invariant(self, two_state_model):
        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=16))
        a = estimate_value(two_state_model, pol, 0, 0.0, paths=20_000, rng_seed=7)
        b = estimate_value(two_state_model, pol, 0, 0.0, paths=20_000, rng_seed=7)
        c = estimate_value(two_state_model, pol, 0, 0.0, paths=20_000, rng_seed=7, threads=4)
        assert a.mean == b.mean == c.mean
        assert a.std_error == b.std_error == c.std_error

    def test_disjoint_seeds_consistent(self, two_state_model):
        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=16))
        a = estimate_value(two_state_model, pol, 0, 0.0, paths=30_000, rng_seed=1)
        b = estimate_value(two_state_model, pol, 0, 0.0, paths=30_000, rng_seed=2)
        pooled = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 3.0 * pooled

    def test_estimates_are_positive(self, two_state_model):
        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=16))
        est = estimate_value(two_state_model, pol, 1, 0.0, paths=1000, rng_seed=3)
        assert est.values.shape == (1000,) and np.all(est.values > 0.0)

    @pytest.mark.parametrize("t0", [math.inf, math.nan])
    def test_non_finite_t0_rejected(self, two_state_model, t0):
        pol = uniform_policies(two_state_model, 4)
        with pytest.raises(ValueError, match="t0 must be a time-grid node"):
            estimate_value(two_state_model, pol, 0, t0, paths=10, rng_seed=0)
        with pytest.raises(ValueError, match="t0 must be a time-grid node"):
            deviation_gain(two_state_model, pol, 1, x0=0, t0=t0)

    def test_t0_must_be_grid_node(self, two_state_model):
        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=16))
        with pytest.raises(ValueError):
            estimate_value(two_state_model, pol, 0, 0.1234, paths=10, rng_seed=0)
        with pytest.raises(ValueError):
            estimate_value(two_state_model, pol, 0, 0.0, paths=1, rng_seed=0)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, two_state_model, threads):
        pol = uniform_policies(two_state_model, 4)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            estimate_value(two_state_model, pol, 0, 0.0, paths=10, rng_seed=0, threads=threads)

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("paths", 100.5), ("paths", True),
            ("threads", 1.5), ("threads", True), ("threads", np.bool_(True)),
        ],
    )
    def test_paths_and_threads_must_be_integers(self, two_state_model, keyword, value):
        pol = uniform_policies(two_state_model, 4)
        counts = {"paths": 10, "threads": 1}
        with pytest.raises(ValueError, match=re.escape(f"{keyword}={value!r} is not an integer")):
            estimate_value(two_state_model, pol, 0, 0.0, rng_seed=0, **{**counts, keyword: value})
        est = estimate_value(two_state_model, pol, 0, 0.0, rng_seed=0, **counts)
        same = estimate_value(
            two_state_model, pol, 0, 0.0, paths=np.int64(10), rng_seed=0, threads=np.int32(1)
        )
        np.testing.assert_array_equal(same.values, est.values)
        assert type(same.paths) is int  # so the CLI's estimate JSON can hold it
        json.dumps(artifacts.estimate_to_dict(same))

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "rng_seed must be at least 0, got -1"),
            (2**64, "rng_seed must be below 2**64, got 18446744073709551616"),
            (1.7, "rng_seed=1.7 is not an integer"),
            (True, "rng_seed=True is not an integer"),
        ],
    )
    def test_rng_seed_must_be_a_philox_key(self, two_state_model, seed, message):
        # -1 and 2**64 once ended in an OverflowError from numpy, 1.7 and True ran as seed 1
        pol = uniform_policies(two_state_model, 4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_value(two_state_model, pol, 0, 0.0, paths=10, rng_seed=seed)

    def test_largest_rng_seed_runs(self, two_state_model):
        pol = uniform_policies(two_state_model, 4)
        est = estimate_value(two_state_model, pol, 0, 0.0, paths=10, rng_seed=2**64 - 1)
        same = estimate_value(two_state_model, pol, 0, 0.0, paths=10, rng_seed=np.uint64(2**64 - 1))
        np.testing.assert_array_equal(same.values, est.values)

    def test_overflowing_estimate_is_a_scale_error(self):
        # payoff rate 800 over T = 1: every path's functional is e^800
        model = single_state_model(r0=800.0)
        with pytest.raises(ModelScaleError, match="overflows"):
            estimate_value(model, uniform_policies(model, 4), 0, 0.0, paths=10, rng_seed=0)

    def test_x0_outside_states_rejected(self, two_state_model):
        pol = uniform_policies(two_state_model, 4)
        for x0 in (-1, two_state_model.n_states, 1.9, 1.0, True, np.bool_(True), np.float64(1.0)):
            with pytest.raises(ValueError, match="x0"):
                estimate_value(two_state_model, pol, x0, 0.0, paths=10, rng_seed=0)
        est = estimate_value(two_state_model, pol, 1, 0.0, paths=10, rng_seed=0)
        for x0 in (np.int64(1), np.int32(1), np.uint8(1)):
            same = estimate_value(two_state_model, pol, x0, 0.0, paths=10, rng_seed=0)
            np.testing.assert_array_equal(same.values, est.values)

    def test_policy_shape_mismatch_rejected(self, two_state_model):
        pol = uniform_policies(two_state_model, 4)
        fewer_states = PolicyPair(pol.grid, pol.pi1[:1], pol.pi2[:1])
        with pytest.raises(ValueError, match="states"):
            estimate_value(two_state_model, fewer_states, 0, 0.0, paths=10, rng_seed=0)
        extra_action = PolicyPair(pol.grid, [np.full((5, 3), 1.0 / 3.0), *pol.pi1[1:]], pol.pi2)
        with pytest.raises(ValueError, match="policy shapes"):
            estimate_value(two_state_model, extra_action, 0, 0.0, paths=10, rng_seed=0)

    @pytest.mark.parametrize(
        ("player", "state", "row", "entries"),
        [(1, 0, 2, [1.2, -0.2]), (2, 1, 0, [0.9, 0.2]), (1, 1, 4, [np.nan, 1.0])],
    )
    def test_policy_rows_must_be_probability_vectors(
        self, two_state_model, player, state, row, entries
    ):
        pol = uniform_policies(two_state_model, 4)
        rows = (pol.pi1 if player == 1 else pol.pi2)[state]
        rows[row] = entries
        with pytest.raises(ValueError, match=f"pi{player} at state {state}, row {row} "):
            estimate_value(two_state_model, pol, 0, 0.0, paths=10, rng_seed=0)
        with pytest.raises(ValueError, match=f"pi{player} at state {state}, row {row} "):
            evaluate_policies(two_state_model, pol)
        for deviator in (1, 2):
            with pytest.raises(ValueError, match=f"pi{player} at state {state}, row {row} "):
                deviation_gain(two_state_model, pol, deviator, x0=0)

    def test_policy_grid_horizon_must_match_the_model(self, two_state_model):
        pol = uniform_policies(two_state_model, 4)
        longer = PolicyPair(TimeGrid(2.0 * two_state_model.horizon, 4), pol.pi1, pol.pi2)
        with pytest.raises(ValueError, match="policy grid horizon does not match the model"):
            estimate_value(two_state_model, longer, 0, 0.0, paths=10, rng_seed=0)
        with pytest.raises(ValueError, match="policy grid horizon does not match the model"):
            evaluate_policies(two_state_model, longer)

    def test_interior_start_matches_solver(self, two_state_model):
        v, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.01, n_t=64))
        t0 = 0.5
        i = 32
        est = estimate_value(two_state_model, pol, 0, t0, paths=40_000, rng_seed=9)
        assert abs(est.mean - v.values[i, 0]) <= 4.0 * est.std_error


def test_evaluator_mix_matches_per_state_einsum():
    # the batched matmuls round differently from the einsum, within a few ulps,
    # on all rows at once (the sampler's tables) and on one row (the evaluator)
    model = mixed_shape_model()
    n_x = model.n_states
    rng = np.random.default_rng(8)
    n_t = 7
    pi1 = [rng.dirichlet(np.ones(len(model.actions_p1[x])), n_t + 1) for x in range(n_x)]
    pi2 = [rng.dirichlet(np.ones(len(model.actions_p2[x])), n_t + 1) for x in range(n_x)]
    policies = PolicyPair(TimeGrid(model.horizon, n_t), pi1, pi2)
    groups = _checked_policies(model, policies)
    assert any(group.payoff.shape[1:] == (2, 3) for group, _, _ in groups)
    rbar_all, qbar_all = _mix(groups, slice(None), n_x)
    for i in range(n_t + 1):
        rbar, qbar = _mix(groups, slice(i, i + 1), n_x)
        for x in range(n_x):
            a, b = pi1[x][i], pi2[x][i]
            want = np.einsum("a,aby,b->y", a, model.generator[x], b)
            for r, q in ((rbar[0, x], qbar[0, x]), (rbar_all[i, x], qbar_all[i, x])):
                np.testing.assert_allclose(r, a @ model.payoff[x] @ b, rtol=1e-14, atol=0.0)
                np.testing.assert_allclose(q, want, rtol=1e-14, atol=0.0)
    # the sampler's tables: the all-rows mix, diagonal zeroed, clipped, normalized, summed up
    tables = _PolicyTables(model, policies)
    mixed = qbar_all.copy()
    mixed[:, np.arange(n_x), np.arange(n_x)] = 0.0
    np.clip(mixed, 0.0, None, out=mixed)
    total = mixed.sum(axis=2)
    safe = np.where(total > 0.0, total, 1.0)
    assert tables.rbar.tobytes() == rbar_all.tobytes()
    assert tables.qbar.tobytes() == total.tobytes()
    assert tables.dest_cum.tobytes() == np.cumsum(mixed / safe[:, :, None], axis=2).tobytes()


@pytest.mark.parametrize("n_x", [1, 2, 3, 8, 64, 65])
def test_destination_search_counts_the_row(n_x):
    # the log-step search equals counting a nondecreasing row, clamped to n_x - 1
    rng = np.random.default_rng(n_x)
    n_rows = 40
    w = rng.random((n_rows, n_x))
    w[rng.random((n_rows, n_x)) < 0.4] = 0.0  # zero-probability entries: tied cumulative values
    w[:, -1] += 0.5
    rows = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
    rows[0] = 0.0  # an all-zero row, as for a state that never leaves
    rows[1] *= 1.0 - 2.0**-50  # last entry rounded below 1
    top = 1.0 - 2.0**-53  # the largest draw of Generator.random
    r = np.repeat(np.arange(n_rows), 8)
    u = rng.random(r.size)
    u[0::8] = 0.0
    u[1::8] = top
    u[2::8] = rows[r[2::8], rng.integers(0, n_x, r.size // 8)]  # exactly a cumulative entry
    u[3::8] = rows[r[3::8], 0]
    u[4::8] = rows[r[4::8], -1]
    got = _destination(rows.ravel(), r * n_x, u, n_x)
    want = np.minimum((rows[r] <= u[:, None]).sum(axis=1), n_x - 1)
    np.testing.assert_array_equal(got, want)
    assert got[9] == n_x - 1 and rows[1, -1] < top  # row 1, u above the whole row


def test_drift_shadow_bound():
    """Empirical mean of v0 along paths stays under the exponential drift bound."""
    model, cert = build_rps(0.3, x_max=4.0, n_x=16, theta=1.0, T=2.0)
    x0 = 8
    n = 800
    for t in (0.5, 1.5):
        # horizon t, no payoff, terminal log(v0) / theta: each path's value is v0(X_t)
        model_t = dataclasses.replace(
            model,
            payoff=[np.zeros_like(p) for p in model.payoff],
            terminal=np.log(cert.v0) / model.theta,
            horizon=t,
        )
        est = estimate_value(model_t, uniform_policies(model_t, 8), x0, 0.0, paths=n, rng_seed=0)
        assert est.mean <= math.exp(cert.rho0 * t) * cert.v0[x0] + 3.0 * est.std_error


class TestDeviationGain:
    def test_zero_payoff_nash_gain_zero(self):
        model = two_state_chain(1.0, T=2.0)
        pol = uniform_policies(model, 4)
        report = deviation_gain(model, pol, 1, x0=0)
        assert report.gain == pytest.approx(0.0, abs=1e-12)
        assert report.n_candidates == 1

    def test_detects_profitable_deviation(self):
        # single state, q = 0: equilibrium of the exponential game equals the
        # matrix-game equilibrium; value 1.5, strategies (.5,.5) / (.25,.75)
        model = GameModel(
            actions_p1=[[0, 1]],
            actions_p2=[[0, 1]],
            payoff=[np.array([[3.0, 1.0], [0.0, 2.0]])],
            generator=[np.zeros((2, 2, 1))],
            terminal=np.zeros(1),
            theta=1.0,
            horizon=1.0,
        )
        grid = TimeGrid(1.0, 4)
        equalizer = PolicyPair(
            grid, [np.tile([0.5, 0.5], (5, 1))], [np.tile([0.25, 0.75], (5, 1))]
        )
        report = deviation_gain(model, equalizer, 1, x0=0)
        assert report.gain == pytest.approx(0.0, abs=1e-9)

        # swap player 2's weights: player 1 now profits by playing row 0
        perturbed = PolicyPair(
            grid, [np.tile([0.5, 0.5], (5, 1))], [np.tile([0.75, 0.25], (5, 1))]
        )
        report = deviation_gain(model, perturbed, 1, x0=0)
        expected = math.exp(3.0 * 0.75 + 1.0 * 0.25) - math.exp(1.5)
        assert report.gain == pytest.approx(expected, rel=1e-9)
        np.testing.assert_array_equal(report.best_response.pi1[0], np.tile([1.0, 0.0], (5, 1)))
        # the opponent's rows are the base pair's, not a copy
        assert np.shares_memory(report.best_response.pi2[0], perturbed.pi2[0])
        np.testing.assert_array_equal(report.best_response.pi2[0], perturbed.pi2[0])

    def test_solver_output_near_equilibrium(self, two_state_model):
        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=64))
        for player in (1, 2):
            report = deviation_gain(two_state_model, pol, player, x0=0)
            assert report.gain <= 0.05
            assert report.n_candidates == 1
            deviator, opponent = report.best_response.pi1, report.best_response.pi2
            if player == 2:
                deviator, opponent = opponent, deviator
            for rows in deviator:
                assert set(np.unique(rows)) <= {0.0, 1.0} and np.all(rows.sum(axis=1) == 1.0)
            base_rows = pol.pi2 if player == 1 else pol.pi1
            for a, b in zip(opponent, base_rows, strict=True):
                assert np.shares_memory(a, b) and np.array_equal(a, b)

    def test_leaves_the_base_pair_unchanged(self):
        # the benchmark's order, player 1 and then player 2 on one pair: only copies are rewritten
        model = mixed_shape_model()
        pol = arithmetic_policies(model, 8)
        before = [stack.tobytes() for _, *stacks in pol._stacks for stack in stacks]
        reports = [deviation_gain(model, pol, player, x0=2) for player in (1, 2)]
        assert [stack.tobytes() for _, *stacks in pol._stacks for stack in stacks] == before
        fresh = deviation_gain(model, arithmetic_policies(model, 8), 2, x0=2)
        assert (reports[1].gain, reports[1].base) == (fresh.gain, fresh.base)
        for got, want in zip(reports[1].best_response._stacks, fresh.best_response._stacks, strict=True):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))

    def test_best_response_in_large_action_space(self):
        # 17^2 = 289 stationary assignments: the best response plays the top
        # action everywhere, worth e^0.5 against the uniform base's e^0.25
        n_act = 17
        model = GameModel(
            actions_p1=[list(range(n_act))] * 2,
            actions_p2=[[0]] * 2,
            payoff=[np.linspace(0.0, 0.5, n_act).reshape(n_act, 1)] * 2,
            generator=[np.zeros((n_act, 1, 2))] * 2,
            terminal=np.zeros(2),
            theta=1.0,
            horizon=1.0,
        )
        grid = TimeGrid(1.0, 2)
        pol = PolicyPair(
            grid,
            [np.full((3, n_act), 1.0 / n_act)] * 2,
            [np.ones((3, 1))] * 2,
        )
        report = deviation_gain(model, pol, 1, x0=0)
        top = np.zeros((3, n_act))
        top[:, n_act - 1] = 1.0
        for rows in report.best_response.pi1:
            np.testing.assert_array_equal(rows, top)
        assert report.gain == pytest.approx(math.exp(0.5) - math.exp(0.25), rel=1e-12)

    @pytest.mark.parametrize("player", [1, 2])
    def test_first_best_pure_action_on_non_square_states(self, player):
        # State 1 (3x1) gets equal best rows 0 and 2 and state 3 (2x3) equal best columns
        # 0 and 2, so the choice must be the first of the two. Each row is checked against
        # the per-cell score of the weighted payoff at the deviation's own value J(t_{i+1}).
        model = mixed_shape_model()
        payoff, generator = list(model.payoff), list(model.generator)
        payoff[1] = np.array([[3.0], [1.0], [3.0]])
        generator[1] = generator[1][[0, 1, 0]]
        payoff[3] = np.array([[-3.0, 2.0, -3.0], [-3.0, 1.0, -3.0]])
        generator[3] = generator[3][:, [0, 1, 0]]
        model = dataclasses.replace(model, payoff=payoff, generator=generator)
        n_t = 6
        report = deviation_gain(model, uniform_policies(model, n_t), player, x0=3)
        chosen = report.best_response.pi1 if player == 1 else report.best_response.pi2
        values = evaluate_policies(model, report.best_response)
        for x in range(model.n_states):
            for i in range(n_t + 1):
                c = weighted_payoff(model, values, min(i + 1, n_t), x)
                if player == 1:
                    score = c @ report.best_response.pi2[x][i]
                else:
                    score = -(report.best_response.pi1[x][i] @ c)
                first = int(np.argmax(score >= score.max() - 1e-12 * np.abs(score).max()))
                np.testing.assert_array_equal(chosen[x][i], np.eye(score.size)[first])
        tied_state = 1 if player == 1 else 3
        assert all(row[0] == 1.0 for row in chosen[tied_state])

    def test_time_varying_best_response(self):
        # player 2 plays column 0 on [0, 1/2) and column 1 after: matching it
        # earns payoff 1 throughout, which no time-constant deviation can
        model = GameModel(
            actions_p1=[[0, 1]],
            actions_p2=[[0, 1]],
            payoff=[np.eye(2)],
            generator=[np.zeros((2, 2, 1))],
            terminal=np.zeros(1),
            theta=1.0,
            horizon=1.0,
        )
        switch = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        pol = PolicyPair(TimeGrid(1.0, 2), [np.full((3, 2), 0.5)], [switch])
        report = deviation_gain(model, pol, 1, x0=0)
        np.testing.assert_array_equal(report.best_response.pi1[0], switch)
        assert report.gain == pytest.approx(math.e - math.exp(0.5), rel=1e-12)

    def test_makes_no_matrix_game_call(self, monkeypatch, two_state_model):
        import ctsg.matrix_game
        import ctsg.shapley

        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=16))

        def refuse(*args, **kwargs):
            raise AssertionError("deviation_gain solved a matrix game")

        monkeypatch.setattr(ctsg.matrix_game, "solve_games_last", refuse)
        monkeypatch.setattr(ctsg.shapley, "solve_games_last", refuse)
        for player in (1, 2):
            deviation_gain(two_state_model, pol, player, x0=0)

    @pytest.mark.parametrize("name", ["two_state", "action_dependent"])
    @pytest.mark.parametrize("node", [0, 5])
    def test_gain_is_the_exact_value_of_the_response(self, two_state_model, name, node):
        model = evaluated_model(name, two_state_model)
        _, pol, _ = solve(model, SolverConfig(epsilon=1e-3, n_t=16))
        x0 = model.n_states - 1
        t0 = float(pol.grid.nodes[node])
        for player in (1, 2):
            report = deviation_gain(model, pol, player, x0=x0, t0=t0)
            j_dev = evaluate_policies(model, report.best_response).values[node, x0]
            assert report.base == evaluate_policies(model, pol).values[node, x0]
            assert report.gain == (j_dev - report.base if player == 1 else report.base - j_dev)

    def test_choice_reads_the_deviations_own_values(self):
        # state 0 pays 0.1 to stay (action 0) or jumps at rate 1 (action 1) to
        # state 1, which pays 2: jumping wins once state 1's value has grown,
        # though at the terminal values exp(theta g) = 1 staying scores higher
        model = GameModel(
            actions_p1=[[0, 1], [0]],
            actions_p2=[[0], [0]],
            payoff=[np.array([[0.1], [0.0]]), np.array([[2.0]])],
            generator=[np.array([[[0.0, 0.0]], [[-1.0, 1.0]]]), np.zeros((1, 1, 2))],
            terminal=np.zeros(2),
            theta=1.0,
            horizon=1.0,
        )
        n_t = 8
        pol = PolicyPair(
            TimeGrid(1.0, n_t),
            [np.full((n_t + 1, 2), 0.5), np.ones((n_t + 1, 1))],
            [np.ones((n_t + 1, 1))] * 2,
        )
        report = deviation_gain(model, pol, 1, x0=0)
        rows = report.best_response.pi1[0]
        assert rows[0, 1] == 1.0 and rows[n_t, 0] == 1.0
        jump = PolicyPair(pol.grid, [np.tile([0.0, 1.0], (n_t + 1, 1)), pol.pi1[1]], pol.pi2)
        j_jump = evaluate_policies(model, jump).values[0, 0]
        assert report.gain > 0.99 * (j_jump - report.base)

    def test_action_dependent_gain_beats_every_constant_deviation(self):
        # the rates depend on the actions, so the time step leaves a profitable deviation
        model = action_dependent_rps(8, T=2.0)
        _, pol, _ = solve(model, SolverConfig(epsilon=1e-3, n_t=32))
        x0 = 5
        j_base = evaluate_policies(model, pol).values[0, x0]
        for player in (1, 2):
            report = deviation_gain(model, pol, player, x0=x0)
            assert report.gain > 0.0
            for action in range(3):
                rows = [np.zeros_like(p) for p in pol.pi1]
                for r in rows:
                    r[:, action] = 1.0
                if player == 1:
                    constant = PolicyPair(pol.grid, rows, pol.pi2)
                else:
                    constant = PolicyPair(pol.grid, pol.pi1, rows)
                j = evaluate_policies(model, constant).values[0, x0]
                assert report.gain >= (j - j_base if player == 1 else j_base - j)

    def test_start_off_grid_or_outside_states_rejected(self, two_state_model):
        pol = uniform_policies(two_state_model, 4)
        with pytest.raises(ValueError, match="t0 must be a time-grid node"):
            deviation_gain(two_state_model, pol, 1, x0=0, t0=0.1234)
        with pytest.raises(ValueError, match="t0 must be a time-grid node"):
            deviation_gain(two_state_model, pol, 1, x0=0, t0=two_state_model.horizon)
        for x0 in (-1, two_state_model.n_states, 1.9, 1.0, True, np.bool_(True), np.float64(1.0)):
            with pytest.raises(ValueError, match="x0"):
                deviation_gain(two_state_model, pol, 2, x0=x0)
        report = deviation_gain(two_state_model, pol, 2, x0=1)
        for x0 in (np.int64(1), np.int32(1), np.uint8(1)):
            same = deviation_gain(two_state_model, pol, 2, x0=x0)
            assert (same.gain, same.base) == (report.gain, report.base)

    @pytest.mark.parametrize(
        "player, message",
        [
            (0, "deviating_player must be 1 or 2"),
            (3, "deviating_player must be 1 or 2"),
            (True, "deviating_player=True is not an integer"),
        ],
        ids=["0", "3", "True"],
    )
    def test_deviating_player_must_be_1_or_2(self, two_state_model, player, message):
        pol = uniform_policies(two_state_model, 4)
        with pytest.raises(ValueError, match=message):
            deviation_gain(two_state_model, pol, player, x0=0)

    def test_exact_gain_ignores_sampling_keywords(self, two_state_model):
        # the benchmark still passes paths and rng_seed; they change nothing
        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=16))
        j = evaluate_policies(two_state_model, pol).values[8, 1]  # t0 = 0.5 is node 8
        for player in (1, 2):
            plain = deviation_gain(two_state_model, pol, player, x0=1, t0=0.5)
            sampled = deviation_gain(two_state_model, pol, player, paths=4096, rng_seed=1, x0=1, t0=0.5)
            assert plain.std_error == sampled.std_error == 0.0
            assert (plain.gain, plain.base, plain.player, plain.n_candidates) == (
                sampled.gain, sampled.base, sampled.player, sampled.n_candidates
            )
            for a, b in zip(
                plain.best_response.pi1 + plain.best_response.pi2,
                sampled.best_response.pi1 + sampled.best_response.pi2,
            ):
                np.testing.assert_array_equal(a, b)
            assert plain.base == j

    def test_threads_keyword_is_gone(self, two_state_model):
        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=16))
        with pytest.raises(TypeError, match="threads"):
            deviation_gain(two_state_model, pol, 1, x0=1, threads=2)


def expm_taylor(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring a 30-term Taylor polynomial (numpy only)."""
    s = max(0, math.ceil(math.log2(float(np.linalg.norm(A, np.inf)) + 1e-300)) + 1)
    X = A / 2.0**s  # ||X||_inf <= 1/2
    term = np.eye(len(A))
    total = term.copy()
    for k in range(1, 30):
        term = term @ X / k
        total += term
    for _ in range(s):
        total = total @ total
    return total


def interval_rates(model: GameModel, pol: PolicyPair, i: int) -> np.ndarray:
    """A_i = theta diag(rbar_i) + Qbar_i, built state by state."""
    n = model.n_states
    A = np.zeros((n, n))
    for x in range(n):
        a, b = pol.pi1[x][i], pol.pi2[x][i]
        A[x] = np.einsum("a,aby,b->y", a, model.generator[x], b)
        A[x, x] += model.theta * (a @ model.payoff[x] @ b)
    return A


def expm_product_values(model: GameModel, pol: PolicyPair) -> np.ndarray:
    """J on every grid node as a product of exp(A_i dt), each A_i built state by state."""
    w = np.exp(model.theta * model.terminal)
    rows = [w]
    for i in range(pol.grid.n_steps - 1, -1, -1):
        w = expm_taylor(interval_rates(model, pol, i) * pol.grid.dt) @ w
        rows.append(w)
    return np.array(rows[::-1])


def squaring_bound(squarings: int, n_x: int, n_terms: int) -> float:
    """The evaluator's stated relative error of a series squared j times: 2^j (2 n_x + K + 4) u."""
    return 2.0**squarings * (2 * n_x + n_terms + 4) * 2.0**-53


def squared_steps_bound(model: GameModel, pol: PolicyPair) -> float:
    """Summed stated error of every interval the evaluator squares, with expm_taylor's own.

    Relative errors of products of nonnegative matrices add up over the
    intervals. An interval squares when lam > 1, lam = dt ||A_i + c I||_inf.
    """
    n, dt = model.n_states, pol.grid.dt
    total = 0.0
    for i in range(pol.grid.n_steps):
        A = interval_rates(model, pol, i)
        B = A + max(0.0, -float(np.min(np.diag(A)))) * np.eye(n)
        lam = dt * float(np.linalg.norm(B, np.inf))
        if lam > 1.0:
            j = math.frexp(lam)[1]
            s = max(0, math.ceil(math.log2(float(np.linalg.norm(A * dt, np.inf)))) + 1)
            total += squaring_bound(j, n, _series_terms(math.ldexp(lam, -j)))
            total += squaring_bound(s, n, 29)  # expm_taylor's 30 terms, squared s times
    return total


def evaluated_model(name: str, two_state: GameModel) -> GameModel:
    if name == "rps8":
        return build_rps(0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)[0]
    # lam > 1 on every interval of these two: the squared step runs
    if name == "rps8_fast":
        return build_rps(0.35, lambda_bound=1e3, x_max=8.0, n_x=8, theta=1.0, T=1.0)[0]
    if name == "two_state_fast":  # rps8_fast drains into its jump-free state; this chain does not
        return dataclasses.replace(two_state, generator=[1e3 * q for q in two_state.generator])
    if name == "mixed_shapes":
        return mixed_shape_model()
    if name == "action_dependent":
        return action_dependent_rps(8, T=2.0)
    return two_state


class TestEvaluatePolicies:
    def test_no_jumps_is_exp_of_payoff_integral(self):
        # one state, q = 0: J(t_i) = exp(theta (sum_{j >= i} rbar_j dt + g))
        model = GameModel(
            actions_p1=[[0, 1]],
            actions_p2=[[0, 1, 2]],
            payoff=[np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])],
            generator=[np.zeros((2, 3, 1))],
            terminal=np.array([0.3]),
            theta=1.7,
            horizon=2.0,
        )
        pol = arithmetic_policies(model, 10)
        rbar = np.einsum("ia,ab,ib->i", pol.pi1[0], model.payoff[0], pol.pi2[0])[:-1]
        tail = np.append(np.cumsum((rbar * pol.grid.dt)[::-1])[::-1], 0.0)
        expected = np.exp(model.theta * (tail + model.terminal[0]))
        got = evaluate_policies(model, pol).values[:, 0]
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_boundary_row_is_exp_theta_g(self):
        model, _ = build_rps(0.35, x_max=8.0, n_x=8, theta=1.3, T=1.0)
        got = evaluate_policies(model, arithmetic_policies(model, 4)).values[-1]
        assert got.tobytes() == np.exp(model.theta * model.terminal).tobytes()

    @pytest.mark.parametrize(
        "name", ["rps8", "mixed_shapes", "action_dependent", "rps8_fast", "two_state_fast"]
    )
    def test_matches_product_of_matrix_exponentials(self, two_state_model, name):
        model = evaluated_model(name, two_state_model)
        pol = arithmetic_policies(model, 6)
        got = evaluate_policies(model, pol).values
        rtol = max(1e-13, squared_steps_bound(model, pol))
        # mixed_shapes has lam in (1, 1.5] and squares once per interval
        assert (rtol > 1e-13) == (name == "mixed_shapes" or name.endswith("_fast"))
        np.testing.assert_allclose(got, expm_product_values(model, pol), rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("x0", [0, 1])
    def test_fast_switching_chain_matches_closed_form(self, x0):
        # w_{0,1}(t) = e^{theta r s} [(E0 + E1) +- e^{-2 rate s} (E0 - E1)] / 2, s = T - t and
        # E_x = e^{theta g_x}; at rate 1e6 each interval's lam is 125 000: it squares
        rate, r, g, n_t = 1e6, 0.5, (0.3, -0.2), 8
        model = two_state_chain(rate, T=1.0, r=r, g=g)
        pol = uniform_policies(model, n_t)
        s = model.horizon - pol.grid.nodes
        e0, e1 = np.exp(model.theta * np.array(g))
        sign = 1.0 if x0 == 0 else -1.0
        decay = np.exp(-2.0 * rate * s)
        exact = np.exp(model.theta * r * s) * 0.5 * (e0 + e1 + sign * decay * (e0 - e1))
        lam = rate * pol.grid.dt  # the row sum of A_i + c I, c = rate - theta r
        j = math.frexp(lam)[1]
        rtol = n_t * squaring_bound(j, 2, _series_terms(math.ldexp(lam, -j))) + 8 * 2.0**-53
        got = evaluate_policies(model, pol).values[:, x0]
        np.testing.assert_allclose(got, exact, rtol=rtol, atol=0.0)
        for player in (1, 2):
            report = deviation_gain(model, pol, player, x0=x0)
            assert report.gain == 0.0  # one action each: the deviation is the base pair
            assert report.base == got[0]

    @pytest.mark.parametrize(
        ("name", "x0", "node"), [("rps8", 3, 0), ("two_state", 0, 4), ("action_dependent", 5, 2)]
    )
    def test_within_three_standard_errors_of_monte_carlo(self, two_state_model, name, x0, node):
        model = evaluated_model(name, two_state_model)
        pol = arithmetic_policies(model, 8)
        exact = evaluate_policies(model, pol).values[node, x0]
        est = estimate_value(model, pol, x0, node * pol.grid.dt, paths=40_000, rng_seed=17)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_overflow_is_a_scale_error(self):
        # payoff rate 800 over T = 1: J = e^800 has no double
        model = single_state_model(r0=800.0)
        with pytest.raises(ModelScaleError, match="not finite"):
            evaluate_policies(model, uniform_policies(model, 4))
        for player in (1, 2):
            with pytest.raises(ModelScaleError, match="not finite"):
                deviation_gain(model, uniform_policies(model, 4), player, x0=0)

    def test_non_finite_mixed_rates_are_a_scale_error(self):
        # every rate is finite, but a row's sum |B| = 2e308 overflows
        q = np.full((3, 3), 1e308)
        np.fill_diagonal(q, -1e308)
        model = GameModel(
            actions_p1=[[0]] * 3,
            actions_p2=[[0]] * 3,
            payoff=[np.zeros((1, 1))] * 3,
            generator=[row.reshape(1, 1, 3) for row in q],
            terminal=np.zeros(3),
            theta=1.0,
            horizon=1.0,
        )
        with pytest.raises(ModelScaleError, match="policy-mixed rates are not finite"):
            evaluate_policies(model, uniform_policies(model, 4))

    def test_holds_one_interval_at_a_time(self):
        # an (n_t + 1) n_x^2 table of mixed generators would take 8.4 MB here
        model, _ = build_rps(0.35, x_max=8.0, n_x=64, theta=1.0, T=1.0)
        pol = arithmetic_policies(model, 256)
        table = (pol.grid.n_steps + 1) * model.n_states**2 * 8
        tracemalloc.start()
        try:
            evaluate_policies(model, pol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table / 4


def test_evaluator_agrees_with_its_pinned_values():
    # evaluate_policies and both deviation_gain passes on the rps64 solve (eps 1e-3,
    # n_t 32, x0 5), as the einsum-mixing evaluator computed them (numpy 2.4, x86-64).
    # A later evaluator change must stay within 1e-13 of them. The gain is a
    # difference of nearly equal values, so the pin holds J(best_response) itself.
    pin = json.loads((FIXTURES / "rps64_evaluator_pin.json").read_text())
    model, _ = build_rps(0.35, x_max=8.0, n_x=64, theta=1.0, T=1.0)
    _, pol, _ = solve(model, SolverConfig(epsilon=1e-3, n_t=32))
    got = evaluate_policies(model, pol).values
    np.testing.assert_allclose(got, pin["values"], rtol=1e-13, atol=0.0)
    for player in (1, 2):
        report = deviation_gain(model, pol, player, x0=5)
        value = report.base + report.gain if player == 1 else report.base - report.gain
        want = pin["deviation"][str(player)]
        np.testing.assert_allclose(
            [report.base, value], [want["base"], want["deviation"]], rtol=1e-13, atol=0.0
        )


def arithmetic_policies(model: GameModel, n_t: int) -> PolicyPair:
    """Time- and state-varying policies built by exact arithmetic, no random draws."""

    def rows(x: int, n_act: int, shift: int) -> np.ndarray:
        i = np.arange(n_t + 1)[:, None]
        a = np.arange(n_act)[None, :]
        w = 1.0 + ((x + 3 * i + shift * a) % 5)
        return w / w.sum(axis=1, keepdims=True)

    grid = TimeGrid(model.horizon, n_t)
    pi1 = [rows(x, len(model.actions_p1[x]), 1) for x in range(model.n_states)]
    pi2 = [rows(x, len(model.actions_p2[x]), 2) for x in range(model.n_states)]
    return PolicyPair(grid, pi1, pi2)


def _pinned_model(name: str, two_state: GameModel) -> GameModel:
    if name == "rps64":
        # action-dependent sojourn rates, so acceptance depends on the policies
        return action_dependent_rps(64, T=3.0)
    if name == "two_state":
        return two_state
    if name == "mixed_shapes":
        return mixed_shape_model()  # includes a state with an all-zero generator
    return single_state_model(r0=0.4, g0=0.3, theta=2.0, T=1.5)  # Lambda = 0


# SHA-256 of estimate_value(...).values.tobytes() with the tables mixed by
# _mix's batched matmuls (numpy 2.4, x86-64). The one_state digest is the one
# the full-width sampler, which counted each whole destination row, produced;
# the other four were re-taken when the tables stopped mixing by einsum, which
# moved 68 to 4621 of the 20 000 values, by at most 1.1e-15 relative. The
# per-path values for a seed are part of the reproducibility contract, so any
# rewrite of the sampler must keep them.
_PINNED_PATH_HASHES = {
    ("rps64", 5, 0): (
        "d9edb0698ad79eda7eff1cb7360d4b99"
        "fa15e0e3d541e2d0c20efcf2dc761cdf"
    ),
    ("rps64", 40, 12): (
        "68f472f071798689d0af0b710bf97bd7"
        "a40504c4c8de37345d0d6bb216127996"
    ),
    ("two_state", 0, 5): (
        "4b9710694194122d6cb28e3a7c254478"
        "5690e81e48362ad60ebd697330397bc2"
    ),
    ("mixed_shapes", 2, 0): (
        "5edb00d0607a3a1a0708959f2fd51215"
        "475039a10b0c2b54200d96d39049c33a"
    ),
    ("one_state", 0, 3): (
        "37f6846fb271fe04f93cca4eac463679"
        "5b88867fb220ea2ff4ea31007f30cb59"
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(("name", "x0", "node"), list(_PINNED_PATH_HASHES))
def test_per_path_values_pinned(two_state_model, name, x0, node, threads):
    # 20 000 paths: one full batch of 16 384 and one partial batch
    model = _pinned_model(name, two_state_model)
    pol = arithmetic_policies(model, 16)
    t0 = node * pol.grid.dt
    est = estimate_value(model, pol, x0, t0, paths=20_000, rng_seed=31, threads=threads)
    digest = hashlib.sha256(est.values.tobytes()).hexdigest()
    assert digest == _PINNED_PATH_HASHES[(name, x0, node)]
