"""Value iteration driver: thresholds, contraction constants, convergence."""

from __future__ import annotations

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsg.errors import ModelScaleError, NumericsError
from ctsg.model import check_assumptions, compute_value_bounds
from ctsg.shapley import apply_gamma, verify_saddle
from ctsg.simulate import evaluate_policies
from ctsg.solver import (
    SolverConfig,
    contraction_constants,
    solve,
    stopping_threshold,
)

from .conftest import lifted_rps8, mixed_shape_model, random_bounded_model, refused_real, single_state_model


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

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_arguments_rejected(self, position, bad):
        args = [0.01, 1.0, 1.0, 2.0, 1.0]
        args[position] = bad
        with pytest.raises(ValueError, match="finite"):
            stopping_threshold(*args)

    def test_overflowing_exponent_is_a_scale_error(self):
        with pytest.raises(ModelScaleError, match="overflows"):
            stopping_threshold(1e-3, 1.0, 800.0, 0.0, 1.0)
        with pytest.raises(ModelScaleError, match="overflows"):
            stopping_threshold(1e-3, 1.0, 0.0, 400.0, 1.0)  # limit form


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

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_arguments_rejected(self, position, bad):
        # a NaN term is never < 1 and never inf, so the search would not end
        args = [1.0, 0.5, 0.5, 1.0]
        args[position] = bad
        with pytest.raises(ValueError, match="finite"):
            contraction_constants(*args)

    def test_overflowing_product_is_a_scale_error(self):
        with pytest.raises(ModelScaleError, match="overflows"):
            contraction_constants(1.0, 800.0, 0.0, 1.0)

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
        # one more application moves the iterate by less than the stopping threshold
        v_next, _ = apply_gamma(two_state_model, v)
        assert float(np.max(np.abs(v_next.values - v.values))) < first.threshold

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
        # every cell's game value is finite (~1.5e308) but the trapezoid sum
        # overflows; T = 0.001 and epsilon = 1e300 keep the stopping threshold
        # above the float resolution of the values, which solve checks first
        model = single_state_model(r0=1.5e4, g0=700.0, T=0.001)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="iteration 1$"):
            solve(model, SolverConfig(epsilon=1e300, n_t=4))

    def test_unreachable_threshold_fails_before_iterating(self, monkeypatch):
        # theta K = 100 on rps8: values near e^100, threshold 1.02e-5, far below
        # their float spacing; so too the overflow model at T = 0.01, eps = 0.1
        import ctsg.solver as solver_module

        def no_sweep(*args):
            raise AssertionError("solve iterated")

        monkeypatch.setattr(solver_module, "apply_gamma", no_sweep)
        for model, eps in ((lifted_rps8(100.0), 1e-3), (single_state_model(1.5e4, 700.0, T=0.01), 0.1)):
            with pytest.raises(NumericsError, match="below the float resolution"):
                solve(model, SolverConfig(epsilon=eps, n_t=32))

    @pytest.mark.parametrize("n_t, first, repeat", [(8, 82, 86), (16, 55, 57)])
    def test_exact_float_cycle_fails_fast(self, n_t, first, repeat):
        # the iterates repeat with period 4 (n_t 8) or 2 (n_t 16), a few hundred
        # float spacings above the threshold; without the check both spin to max_iterations
        message = f"iteration {repeat} repeats the iterate of iteration {first} "
        with pytest.raises(NumericsError, match=message):
            solve(mixed_shape_model(), SolverConfig(epsilon=1e-3, n_t=n_t, max_iterations=100))

    def test_finer_grid_of_the_cycling_model_converges(self):
        _, _, report = solve(mixed_shape_model(), SolverConfig(epsilon=1e-3, n_t=32))
        assert report.converged and report.iterations == 44

    def test_logs_each_iteration(self, two_state_model, caplog):
        with caplog.at_level(logging.INFO, logger="ctsg.solver"):
            _, _, report = solve(two_state_model, SolverConfig(epsilon=1e-4, n_t=16))
        records = [r for r in caplog.records if r.msg.startswith("iteration ")]
        assert len(records) == report.iterations > 1
        for n, (record, diff) in enumerate(zip(records, report.diff_history, strict=True), 1):
            # %-style arguments: nothing is formatted unless INFO is on
            assert record.args[:3] == (n, diff, report.threshold) and record.args[3] >= 0.0
            assert f"diff {diff:.6g}, threshold {report.threshold:.6g}" in record.getMessage()

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1e-3])
    def test_epsilon_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match=refused_real("epsilon", eps)):
            SolverConfig(epsilon=eps, n_t=4)

    @pytest.mark.parametrize("name", ["n_t", "max_iterations"])
    def test_counts_must_be_integers_of_at_least_one(self, name):
        counts = {"n_t": 4, "max_iterations": 10}
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
            SolverConfig(epsilon=1e-3, **{**counts, name: 0})
        for bad in (2.5, True):  # True once solved with n_steps=True and wrote "n_steps": true
            with pytest.raises(ValueError, match=re.escape(f"{name}={bad!r} is not an integer")):
                SolverConfig(epsilon=1e-3, **{**counts, name: bad})
        config = SolverConfig(epsilon=1e-3, **{**counts, name: np.int64(4)})
        assert type(getattr(config, name)) is int and getattr(config, name) == 4


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_termination_on_random_models(seed):
    model = random_bounded_model(np.random.default_rng(seed), n_states=2, n_actions=2)
    _, _, report = solve(model, SolverConfig(epsilon=0.05, n_t=16, max_iterations=500))
    assert report.converged


def test_policy_value_gap_falls_with_the_grid(two_state_model):
    # max |v - J(pi)|, the solver's grid against its policies' exact value, is
    # the time-discretization gap: about 1.3e-4 at n_t = 32, second order in dt
    gaps = []
    for n_t in (32, 64, 128, 256):
        v, pol, report = solve(two_state_model, SolverConfig(epsilon=1e-5, n_t=n_t))
        assert report.converged
        exact = evaluate_policies(two_state_model, pol)
        gaps.append(float(np.max(np.abs(v.values - exact.values))))
    assert gaps[0] < 1e-3
    assert all(fine * 3.0 <= coarse for coarse, fine in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("theta_k", [0.0, 0.5, 2.0, 5.0, 10.0, 20.0, 25.0, 30.0, 50.0, 100.0, 300.0])
def test_positive_homogeneity_or_refused_up_front(theta_k, monkeypatch):
    # terminal g + K gives e^{theta K} v(g): each lift holds to the two solves'
    # stopping errors, or is refused before the first sweep; lifts up to
    # theta K = 20 are solvable (to 9.3e-8 against a tolerance near 2.7e-6)
    import ctsg.solver as solver_module

    config = SolverConfig(epsilon=1e-3, n_t=32)
    base, _, base_report = solve(lifted_rps8(0.0), config)
    sweeps = []
    sweep = solver_module.apply_gamma
    monkeypatch.setattr(solver_module, "apply_gamma", lambda *a: sweeps.append(1) or sweep(*a))
    try:
        lifted, _, report = solve(lifted_rps8(theta_k), config)
    except NumericsError as exc:
        assert not sweeps and "below the float resolution" in str(exc) and theta_k > 20.0
        return
    expected = math.exp(theta_k) * base.values
    rel = np.max(np.abs(lifted.values - expected) / expected)
    tol = 2.0 * (
        base_report.final_diff / base.values.min() + report.final_diff / lifted.values.min()
    )
    assert report.converged and rel <= tol
