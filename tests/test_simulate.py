"""Path sampler laws and the Monte Carlo estimator against closed-form oracles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from ctsg.model import GameModel
from ctsg.shapley import PolicyPair, TimeGrid
from ctsg.simulate import deviation_gain, estimate_value
from ctsg.solver import SolverConfig, solve

from .conftest import single_state_model


def uniform_policies(model: GameModel, n_t: int) -> PolicyPair:
    grid = TimeGrid(model.horizon, n_t)
    pi1 = [
        np.full((n_t + 1, model.n_actions_p1(x)), 1.0 / model.n_actions_p1(x))
        for x in range(model.n_states)
    ]
    pi2 = [
        np.full((n_t + 1, model.n_actions_p2(x)), 1.0 / model.n_actions_p2(x))
        for x in range(model.n_states)
    ]
    return PolicyPair(grid, pi1, pi2)


def two_state_chain(rate: float, T: float = 10.0) -> GameModel:
    q0 = np.array([[-rate, rate]]).reshape(1, 1, 2)
    q1 = np.array([[rate, -rate]]).reshape(1, 1, 2)
    return GameModel(
        actions_p1=[[0]] * 2,
        actions_p2=[[0]] * 2,
        payoff=[np.zeros((1, 1))] * 2,
        generator=[q0, q1],
        terminal=np.zeros(2),
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
    est = estimate_value(model, pol, 0, 0.0, paths=n, rng_seed=0, retain_values=True)
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
        model.terminal = np.array([0.0, 1.0])
        n = 1500
        pol = uniform_policies(model, 10)
        est = estimate_value(model, pol, 0, 0.0, paths=n, rng_seed=0, retain_values=True)
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
        est = estimate_value(
            model, uniform_policies(model, 6), 0, 0.0, paths=100, rng_seed=1, retain_values=True
        )
        expected = math.exp(2.0 * (0.4 * 1.5 + 0.3))
        assert est.values is not None
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
        est = estimate_value(
            two_state_model, pol, 1, 0.0, paths=1000, rng_seed=3, retain_values=True
        )
        assert est.values is not None and np.all(est.values > 0.0)

    def test_t0_must_be_grid_node(self, two_state_model):
        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=16))
        with pytest.raises(ValueError):
            estimate_value(two_state_model, pol, 0, 0.1234, paths=10, rng_seed=0)
        with pytest.raises(ValueError):
            estimate_value(two_state_model, pol, 0, 0.0, paths=1, rng_seed=0)

    def test_x0_outside_states_rejected(self, two_state_model):
        pol = uniform_policies(two_state_model, 4)
        for x0 in (-1, two_state_model.n_states):
            with pytest.raises(ValueError, match="x0"):
                estimate_value(two_state_model, pol, x0, 0.0, paths=10, rng_seed=0)

    def test_policy_shape_mismatch_rejected(self, two_state_model):
        pol = uniform_policies(two_state_model, 4)
        fewer_states = PolicyPair(pol.grid, pol.pi1[:1], pol.pi2[:1])
        with pytest.raises(ValueError, match="states"):
            estimate_value(two_state_model, fewer_states, 0, 0.0, paths=10, rng_seed=0)
        extra_action = PolicyPair(pol.grid, [np.full((5, 3), 1.0 / 3.0)] + pol.pi1[1:], pol.pi2)
        with pytest.raises(ValueError, match="policy shapes"):
            estimate_value(two_state_model, extra_action, 0, 0.0, paths=10, rng_seed=0)

    def test_interior_start_matches_solver(self, two_state_model):
        v, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.01, n_t=64))
        t0 = 0.5
        i = 32
        est = estimate_value(two_state_model, pol, 0, t0, paths=40_000, rng_seed=9)
        assert abs(est.mean - v.values[i, 0]) <= 4.0 * est.std_error


def test_drift_shadow_bound():
    """Empirical mean of v0 along paths stays under the exponential drift bound."""
    from ctsg.example_games import build_rps

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
        report = deviation_gain(model, pol, 1, paths=200, rng_seed=0, x0=0)
        assert report.gain == pytest.approx(0.0, abs=1e-12)
        assert report.exhaustive

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
        report = deviation_gain(model, equalizer, 1, paths=100, rng_seed=0, x0=0)
        assert report.gain == pytest.approx(0.0, abs=1e-9)

        # swap player 2's weights: player 1 now profits by playing row 0
        perturbed = PolicyPair(
            grid, [np.tile([0.5, 0.5], (5, 1))], [np.tile([0.75, 0.25], (5, 1))]
        )
        report = deviation_gain(model, perturbed, 1, paths=100, rng_seed=0, x0=0)
        expected = math.exp(3.0 * 0.75 + 1.0 * 0.25) - math.exp(1.5)
        assert report.gain == pytest.approx(expected, rel=1e-9)
        assert report.best_assignment == (0,)

    def test_solver_output_near_equilibrium(self, two_state_model):
        _, pol, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=64))
        for player in (1, 2):
            report = deviation_gain(two_state_model, pol, player, paths=20_000, rng_seed=4, x0=0)
            assert report.gain <= 0.05 + 3.0 * report.std_error
            assert report.n_candidates == 4 and report.exhaustive

    def test_large_action_space_falls_back_to_sampling(self, caplog):
        import logging

        # 17^2 = 289 stationary assignments exceeds the enumeration cap
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
        with caplog.at_level(logging.WARNING, logger="ctsg.simulate"):
            report = deviation_gain(model, pol, 1, paths=50, rng_seed=0, x0=0)
        assert not report.exhaustive
        assert report.n_candidates == 64
        assert "sampling" in caplog.text
        assert report.gain > 0.0  # uniform base is beatable by the top action
