"""Value iteration driver: thresholds, contraction constants, convergence."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsg.errors import NumericsError
from ctsg.model import check_assumptions, compute_value_bounds
from ctsg.shapley import verify_saddle
from ctsg.solver import (
    SolverConfig,
    contraction_constants,
    default_initial_grid,
    grid_refinement_check,
    solve,
    stopping_threshold,
)

from .conftest import random_bounded_model, single_state_model


class TestStoppingThreshold:
    def test_reference_value(self):
        # eps = 0.01, theta ||r|| = 1, ||q|| = 2, T = 1 -> 0.01 / (10 e^5)
        expected = 0.01 / (10.0 * math.exp(5.0))
        assert stopping_threshold(0.01, 1.0, 1.0, 2.0, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_constructed_inverse(self):
        eps = 2.0 * math.exp((1.0 + 2.0 * 2.0) * 1.0) * (1.0 + 2.0 * 2.0 / 1.0)
        assert stopping_threshold(eps, 1.0, 1.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_linear_in_epsilon(self):
        one = stopping_threshold(0.02, 1.0, 0.5, 1.0, 2.0)
        two = stopping_threshold(0.04, 1.0, 0.5, 1.0, 2.0)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_zero_payoff_norm_limit_form(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ctsg.solver"):
            thr = stopping_threshold(0.1, 1.0, 0.0, 2.0, 1.0)
        assert "degenerate" in caplog.text
        assert thr == pytest.approx(0.1 / (2.0 * math.exp(4.0) * 5.0), rel=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            stopping_threshold(-1.0, 1.0, 1.0, 1.0, 1.0)


class TestContractionConstants:
    def test_reference_value(self):
        l_tilde, k, beta = contraction_constants(1.0, 5.0, 0.0, 1.0)
        assert (l_tilde, k) == (5.0, 12)
        assert beta == pytest.approx(5.0**12 / math.factorial(12), rel=1e-12)

    def test_small_product(self):
        l_tilde, k, beta = contraction_constants(1.0, 0.25, 0.1, 1.0)
        assert k == 1 and beta == pytest.approx(0.45)

    def test_zero_operator(self):
        assert contraction_constants(1.0, 0.0, 0.0, 3.0) == (0.0, 1, 0.0)

    def test_minimality_of_k(self):
        l_tilde, k, beta = contraction_constants(1.0, 3.0, 1.0, 1.0)
        assert beta < 1.0
        if k > 1:
            assert l_tilde ** (k - 1) / math.factorial(k - 1) >= 1.0


class TestSolve:
    def test_trivial_model_one_iteration(self):
        model = single_state_model(r0=0.0)
        v, _, report = solve(model, SolverConfig(epsilon=0.5, n_t=4))
        assert report.iterations == 1 and report.converged
        np.testing.assert_allclose(v.values, 1.0)

    def test_exponential_closed_form(self):
        model = single_state_model(r0=0.5)
        v, _, report = solve(model, SolverConfig(epsilon=1e-7, n_t=1000))
        assert report.converged
        assert v.values[0, 0] == pytest.approx(math.exp(0.5), rel=1e-6)

    def test_policies_are_distributions(self, two_state_model):
        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=32))
        for x in range(2):
            np.testing.assert_allclose(policies.pi1[x].sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(policies.pi2[x].sum(axis=1), 1.0, atol=1e-10)
            assert np.all(policies.pi1[x] >= -1e-12)

    def test_difference_envelope(self, two_state_model):
        _, _, report = solve(two_state_model, SolverConfig(epsilon=1e-8, n_t=64))
        l_tilde, T = report.l_tilde, two_state_model.horizon
        d0 = report.diff_history[0]
        for n in range(math.ceil(l_tilde * T), len(report.diff_history)):
            envelope = 1.05 * l_tilde**n * T**n / math.factorial(n) * d0
            assert report.diff_history[n] <= envelope

    def test_idempotent_at_fixed_point(self, two_state_model):
        config = SolverConfig(epsilon=1e-5, n_t=48)
        v, _, first = solve(two_state_model, config)
        assert first.converged
        _, _, second = solve(two_state_model, config, v0=v)
        assert second.converged and second.iterations == 1

    def test_max_iterations_partial_result(self, two_state_model):
        _, _, report = solve(two_state_model, SolverConfig(epsilon=1e-9, n_t=32, max_iterations=2))
        assert not report.converged
        assert report.iterations == 2

    def test_value_bounds_containment(self, two_state_model, two_state_cert):
        cert = check_assumptions(two_state_model, two_state_cert, tol=1e-9)
        assert cert.all_ok
        bounds = compute_value_bounds(two_state_model, cert)
        v, _, _ = solve(two_state_model, SolverConfig(epsilon=1e-4, n_t=64))
        assert np.all(v.values[0] >= bounds.lower) and np.all(v.values[0] <= bounds.upper)

    def test_saddle_inequalities_at_convergence(self, two_state_model):
        v, policies, report = solve(two_state_model, SolverConfig(epsilon=1e-6, n_t=48))
        gap = verify_saddle(two_state_model, v, policies)
        scale = 1.0 + float(np.max(np.abs(v.values))) * (
            two_state_model.theta * two_state_model.norm_r + 2.0 * two_state_model.norm_q
        )
        assert gap <= 1e-9 * scale + 10.0 * report.threshold

    def test_overflowing_iterate_names_iteration(self):
        # every cell's game value is finite (~1.5e308) but the trapezoid sum overflows
        model = single_state_model(r0=1.5e4, g0=700.0, T=0.01)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="iteration 1$"):
            solve(model, SolverConfig(epsilon=0.1, n_t=4))

    def test_mismatched_v0_rejected(self, two_state_model):
        v0 = default_initial_grid(two_state_model, 16)
        with pytest.raises(ValueError):
            solve(two_state_model, SolverConfig(epsilon=0.1, n_t=32), v0=v0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_termination_on_random_models(seed):
    model = random_bounded_model(np.random.default_rng(seed), n_states=2, n_actions=2)
    _, _, report = solve(model, SolverConfig(epsilon=0.05, n_t=16, max_iterations=500))
    assert report.converged


def test_grid_refinement_diagnostic(two_state_model):
    change = grid_refinement_check(two_state_model, SolverConfig(epsilon=1e-5, n_t=32))
    assert 0.0 <= change < 1e-3
