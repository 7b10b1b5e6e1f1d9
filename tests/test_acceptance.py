"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see every criterion line.

Criterion 8's "successive sup-differences strictly decreasing" clause is
asserted exactly as stated and is expected to fail: on this example the
sup-norm level difference is dominated by the just-released boundary states,
whose terminal reward grows with the state coordinate, so the 8->16
difference necessarily exceeds the 4->8 one (see the analysis referenced in
the assertion message). The other criterion-8 clauses pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ctsg.example_games import build_gaussian, build_rps
from ctsg.matrix_game import solve_matrix_game
from ctsg.model import GameModel, check_assumptions, compute_value_bounds
from ctsg.simulate import deviation_gain, estimate_value
from ctsg.solver import SolverConfig, contraction_constants, solve, stopping_threshold
from ctsg.truncation import floor_and_shift, run_ladder

from .conftest import single_state_model


def _criterion(number: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- shared expensive artifacts -------------------------------------------


@pytest.fixture(scope="module")
def rps_ladder():
    model, cert = build_rps(0.35, x_max=8.0, n_x=64, theta=1.0, T=1.0)
    config = SolverConfig(epsilon=0.05, n_t=48)
    return run_ladder(model, cert, [4, 8, 16, 32], config, kind="cap")


@pytest.fixture(scope="module")
def synthetic_negative_model() -> GameModel:
    rng = np.random.default_rng(3)
    n = 3
    gen = []
    for x in range(n):
        q = np.zeros((2, 2, n))
        for a in range(2):
            for b in range(2):
                rates = rng.uniform(0.2, 0.9, size=n)
                rates[x] = 0.0
                q[a, b] = rates
                q[a, b, x] = -rates.sum()
        gen.append(q)
    payoff = [np.array([[-6.0, -2.0], [-1.0, -4.0]]) + 0.5 * x for x in range(n)]
    return GameModel(
        actions_p1=[[0, 1]] * n,
        actions_p2=[[0, 1]] * n,
        payoff=payoff,
        generator=gen,
        terminal=np.array([-3.0, 0.5, -1.0]),
        theta=1.0,
        horizon=1.0,
    )


# -- criteria ----------------------------------------------------------------


def test_criterion_1_closed_form_fixed_point():
    model = single_state_model(r0=0.5)
    start = time.perf_counter()
    v, _, report = solve(model, SolverConfig(epsilon=1e-7, n_t=1000))
    elapsed = time.perf_counter() - start
    rel_err = abs(v.values[0, 0] - math.exp(0.5)) / math.exp(0.5)
    _criterion(
        "1",
        report.converged and rel_err < 1e-6 and elapsed < 1.0,
        f"single-cell value {v.values[0, 0]:.9f} vs e^0.5, rel err {rel_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_matrix_game_exactness():
    rps = solve_matrix_game(np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]))
    ok = abs(rps.value) <= 1e-9
    ok &= bool(np.all(np.abs(rps.strategy_p1 - 1.0 / 3.0) <= 1e-9))
    ok &= bool(np.all(np.abs(rps.strategy_p2 - 1.0 / 3.0) <= 1e-9))

    two = solve_matrix_game(np.array([[3.0, 1.0], [0.0, 2.0]]))
    ok &= abs(two.value - 1.5) <= 1e-9
    ok &= bool(np.all(np.abs(two.strategy_p1 - [0.5, 0.5]) <= 1e-9))
    ok &= bool(np.all(np.abs(two.strategy_p2 - [0.25, 0.75]) <= 1e-9))

    # independent oracle: lower-value grid search over the strategy simplex
    step = 1e-3
    chunks = []
    k = round(1.0 / step)
    for i in range(k + 1):
        p0 = i * step
        p1 = np.arange(0, k - i + 1) * step
        chunks.append(np.stack([np.full_like(p1, p0), p1, 1.0 - p0 - p1], axis=1))
    simplex = np.vstack(chunks)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        C = rng.uniform(-1.0, 1.0, size=(3, 3))
        lp = solve_matrix_game(C).value
        brute = float(np.max(np.min(simplex @ C, axis=1)))
        worst = max(worst, abs(lp - brute))
    ok &= worst <= 2e-3
    _criterion("2", ok, f"rps/2x2 exact; 100 random 3x3 vs grid search, worst gap {worst:.2e}")


def test_criterion_3_solver_vs_simulator_oracle(two_state_model):
    start = time.perf_counter()
    worst_z = 0.0
    for n_t in (128, 256):
        v, policies, report = solve(two_state_model, SolverConfig(epsilon=0.01, n_t=n_t))
        assert report.converged
        for x0 in (0, 1):
            est = estimate_value(two_state_model, policies, x0, 0.0, paths=100_000, rng_seed=42)
            z = abs(est.mean - v.values[0, x0]) / est.std_error
            worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - start
    _criterion(
        "3",
        worst_z <= 3.0 and elapsed < 30.0,
        f"solver vs 1e5-path estimate at n_t=128/256, worst |z| {worst_z:.2f}, {elapsed:.1f}s",
    )


def test_criterion_4_contraction_envelope(two_state_model):
    _, _, report = solve(two_state_model, SolverConfig(epsilon=1e-8, n_t=128))
    l_tilde, T = report.l_tilde, two_state_model.horizon
    d0 = report.diff_history[0]
    worst_ratio = 0.0
    for n in range(math.ceil(l_tilde * T), len(report.diff_history)):
        envelope = 1.05 * l_tilde**n * T**n / math.factorial(n) * d0
        worst_ratio = max(worst_ratio, report.diff_history[n] / envelope)
    _criterion(
        "4",
        worst_ratio <= 1.0,
        f"differences under 1.05 L^n T^n/n! envelope, worst ratio {worst_ratio:.3f}",
    )


def test_criterion_5_stopping_rule_eps_nash(two_state_model):
    eps = 0.05
    _, policies, report = solve(two_state_model, SolverConfig(epsilon=eps, n_t=128))
    assert report.converged
    details = []
    ok = True
    for player in (1, 2):
        rep = deviation_gain(two_state_model, policies, player, x0=0)
        ok &= rep.std_error == 0.0 and rep.gain <= eps
        details.append(f"p{player} exact gain {rep.gain:+.3g} <= {eps}")
    _criterion("5", ok, "; ".join(details))


def test_criterion_6_monotone_in_time(two_state_model):
    v, _, report = solve(two_state_model, SolverConfig(epsilon=1e-6, n_t=128))
    worst = float(np.max(np.diff(v.values, axis=0)))
    _criterion(
        "6",
        report.converged and worst <= 1e-9,
        f"nonnegative-payoff fixture nonincreasing in t, max increment {worst:.2e}",
    )


def test_criterion_7_value_bounds(two_state_model, two_state_cert):
    fixtures = [(two_state_model, two_state_cert, 1e-9, 64)]
    rps_model, rps_cert = build_rps(0.35, x_max=4.0, n_x=16, theta=1.0, T=1.0)
    fixtures.append((rps_model, rps_cert, 1e-2, 32))
    gauss_model, gauss_cert = build_gaussian(
        sigma=1.0, rate_bound=0.25, payoff_bound=1.0,
        x_min=-4.0, x_max=4.0, n_x=16, theta=1.0, T=1.0,
    )
    fixtures.append((gauss_model, gauss_cert, 1e-1, 32))
    ok = True
    details = []
    for model, cert, tol, n_t in fixtures:
        checked = check_assumptions(model, cert, tol=tol)
        assert checked.all_ok
        bounds = compute_value_bounds(model, checked)
        v, _, _ = solve(model, SolverConfig(epsilon=1e-3, n_t=n_t))
        inside = bool(np.all(v.values[0] >= bounds.lower) and np.all(v.values[0] <= bounds.upper))
        ok &= inside
        details.append(f"{model.n_states}-state contained={inside}")
    _criterion("7", ok, "; ".join(details))


def test_criterion_8a_cap_ladder_monotone(rps_ladder):
    _criterion(
        "8a",
        rps_ladder.monotone_ok,
        f"cap-ladder values nondecreasing, worst violation {rps_ladder.worst_monotone_violation:.2e} "
        f"(slack {rps_ladder.monotone_slack:.2e})",
    )


def test_criterion_8b_cap_ladder_diffs_strictly_decreasing(rps_ladder):
    diffs = [e.sup_diff_prev for e in rps_ladder.levels[1:]]
    strictly_decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    _criterion(
        "8b",
        strictly_decreasing,
        f"sup-differences {['%.4f' % d for d in diffs]} strictly decreasing "
        "(known-unattainable on this example: the 8->16 release window contains the "
        "grid's largest terminal reward, so its jump exceeds the 4->8 one; "
        "see the blocked-criterion analysis in the decisions ledger)",
    )


def test_criterion_8c_floor_ladder_nonincreasing(synthetic_negative_model):
    from ctsg.model import LyapunovCertificate

    cert = LyapunovCertificate(np.ones(3), np.ones(3), 1.0, 1.0, 7.0, 1.0, 1.0, 1.0)
    report = run_ladder(
        synthetic_negative_model, cert, [1, 2, 4, 8], SolverConfig(epsilon=0.02, n_t=64), kind="floor"
    )
    _criterion(
        "8c",
        report.monotone_ok,
        f"floor-ladder values nonincreasing, worst violation {report.worst_monotone_violation:.2e}",
    )


def test_criterion_8d_shift_identity(synthetic_negative_model):
    model = synthetic_negative_model
    level = 2
    config = SolverConfig(epsilon=0.02, n_t=128)
    floored = GameModel(
        actions_p1=[list(a) for a in model.actions_p1],
        actions_p2=[list(b) for b in model.actions_p2],
        payoff=[np.maximum(-float(level), p) for p in model.payoff],
        generator=[g.copy() for g in model.generator],
        terminal=np.maximum(-float(level), model.terminal),
        theta=model.theta,
        horizon=model.horizon,
    )
    shifted, unshift = floor_and_shift(model, level)
    v_direct, _, rep_d = solve(floored, config)
    v_lifted, _, rep_s = solve(shifted, config)
    err = float(np.max(np.abs(unshift(v_lifted).values - v_direct.values)))
    allowed = 10.0 * max(rep_d.threshold, rep_s.threshold)
    _criterion("8d", err <= allowed, f"shift identity cellwise err {err:.2e} <= {allowed:.2e}")


def test_criterion_9_assumption_checkers():
    rps_model, rps_cert = build_rps(0.35, x_max=8.0, n_x=512, theta=1.0, T=1.0)
    rps_checked = check_assumptions(rps_model, rps_cert, tol=1e-2)
    ok = rps_checked.all_ok

    gauss_model, gauss_cert = build_gaussian(
        sigma=1.0, rate_bound=0.25, payoff_bound=1.0,
        x_min=-4.0, x_max=4.0, n_x=512, theta=1.0, T=1.0,
    )
    gauss_checked = check_assumptions(gauss_model, gauss_cert, tol=1e-2)
    ok &= gauss_checked.all_ok

    # breaking a constant flips exactly the corresponding check
    flip_rate = check_assumptions(rps_model, replace(rps_cert, l0=rps_cert.l0 / 2), tol=1e-2)
    flip_squeeze = check_assumptions(rps_model, replace(rps_cert, m1=rps_cert.m1 / 2), tol=1e-2)
    flip_drift = check_assumptions(gauss_model, replace(gauss_cert, rho0=gauss_cert.rho0 / 2), tol=1e-2)
    flips = (
        flip_rate.rate_bound_ok is False
        and flip_rate.drift0_ok
        and flip_squeeze.squeeze_ok is False
        and flip_squeeze.rate_bound_ok
        and flip_drift.drift0_ok is False
        and flip_drift.rate_bound_ok
    )
    _criterion(
        "9",
        bool(ok and flips),
        f"both builders pass at published constants (n_x=512, tol 1e-2); "
        f"halved l0/m1/rho0 flip their checks: {flips}",
    )


def test_criterion_10_threshold_and_contraction_formulas():
    thr = stopping_threshold(0.01, 1.0, 1.0, 2.0, 1.0)
    expected_thr = 0.01 / (10.0 * math.exp(5.0))
    thr_ok = abs(thr - expected_thr) <= 1e-15 * expected_thr

    l_tilde, k, beta = contraction_constants(1.0, 5.0, 0.0, 1.0)
    expected_beta = 5.0**12 / math.factorial(12)
    cc_ok = l_tilde == 5.0 and k == 12 and abs(beta - expected_beta) <= 1e-12 * expected_beta
    _criterion(
        "10",
        thr_ok and cc_ok,
        f"threshold {thr:.6e} (rel err {abs(thr - expected_thr) / expected_thr:.1e}); "
        f"k={k}, beta={beta:.10f}",
    )
