"""Capping and flooring ladders, shift identity, level constructions."""

from __future__ import annotations

import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ctsg.model import GameModel, LyapunovCertificate, validate_generator
from ctsg.solver import SolverConfig, solve
from ctsg.truncation import (
    floor_and_shift,
    run_ladder,
    sublevel_set,
    truncate_nonnegative,
)

from .conftest import random_bounded_model


def nonneg_model(
    seed: int = 0, n_states: int = 4, rate_scale: float = 1.0, payoff_scale: float = 1.0
) -> GameModel:
    model = random_bounded_model(
        np.random.default_rng(seed), n_states=n_states,
        rate_scale=rate_scale, payoff_scale=payoff_scale,
    )
    return replace(
        model, payoff=[np.abs(p) for p in model.payoff], terminal=np.abs(model.terminal)
    )


def growing_cert(n_states: int) -> LyapunovCertificate:
    v0 = 1.0 + np.arange(n_states, dtype=float)
    return LyapunovCertificate(v0=v0, v1=v0**2, rho0=1.0, l0=1.0, m0=1.0, rho1=25.0, b1=1.0, m1=1.0)


class TestTruncateNonnegative:
    def test_inactive_caps_identity(self):
        model = nonneg_model()
        cert = growing_cert(4)
        out = truncate_nonnegative(model, cert, n=50)
        for x in range(4):
            np.testing.assert_array_equal(out.payoff[x], model.payoff[x])
            np.testing.assert_array_equal(out.generator[x], model.generator[x])
        np.testing.assert_array_equal(out.terminal, model.terminal)

    def test_truncated_model_solves_on_its_own_tensors(self):
        # the source is solved first, so its shape-group stacks exist when
        # truncation copies it with dataclasses.replace
        model = nonneg_model()
        config = SolverConfig(epsilon=1e-3, n_t=8)
        solve(model, config)
        out = truncate_nonnegative(model, growing_cert(4), n=2)
        fresh = GameModel(
            model.actions_p1, model.actions_p2, out.payoff, out.generator,
            out.terminal, model.theta, model.horizon,
        )
        v_out, _, _ = solve(out, config)
        v_fresh, _, _ = solve(fresh, config)
        assert v_out.values.tobytes() == v_fresh.values.tobytes()

    def test_outside_states_absorbing(self):
        model = nonneg_model()
        cert = growing_cert(4)  # v0 = 1..4
        out = truncate_nonnegative(model, cert, n=2)
        assert sublevel_set(cert, 2).tolist() == [True, True, False, False]
        for x in (2, 3):
            np.testing.assert_array_equal(out.generator[x], 0.0)
            np.testing.assert_array_equal(out.payoff[x], 0.0)
            assert out.terminal[x] == 0.0
        for x in (0, 1):
            np.testing.assert_array_equal(out.generator[x], model.generator[x])

    def test_payoff_capped_at_level(self):
        model = nonneg_model()
        model.payoff[0][0, 0] = 7.5
        model.terminal[1] = 9.0
        out = truncate_nonnegative(model, growing_cert(4), n=3)
        assert out.payoff[0][0, 0] == 3.0
        assert out.terminal[1] == 3.0

    def test_output_passes_validation(self):
        out = truncate_nonnegative(nonneg_model(), growing_cert(4), n=2)
        assert validate_generator(out).is_valid

    def test_negative_payoff_rejected(self):
        model = nonneg_model()
        model.payoff[0][0, 0] = -0.1
        with pytest.raises(ValueError, match="floor_and_shift"):
            truncate_nonnegative(model, growing_cert(4), n=2)

    def test_level_mask_and_absorbing_row(self):
        model = nonneg_model()
        cert = growing_cert(4)
        assert sublevel_set(cert, 3).tolist() == [True, True, True, False]
        out = truncate_nonnegative(model, cert, 3)
        assert validate_generator(out).is_valid
        np.testing.assert_array_equal(out.generator[3], 0.0)


class TestFloorAndShift:
    def test_shift_produces_nonnegative(self):
        model = random_bounded_model(np.random.default_rng(5))
        model.payoff[0][0, 0] = -3.7
        shifted, _ = floor_and_shift(model, n=2)
        assert min(float(p.min()) for p in shifted.payoff) >= 0.0
        assert float(shifted.terminal.min()) >= 0.0
        # flooring at -2 binds on the -3.7 entry: max{-2, -3.7} + 2 = 0
        assert shifted.payoff[0][0, 0] == 0.0

    def test_unshift_factor(self):
        from ctsg.shapley import TimeGrid, ValueGrid

        model = random_bounded_model(np.random.default_rng(6))
        _, unshift = floor_and_shift(model, n=2)
        grid = ValueGrid(TimeGrid(1.0, 2), np.ones((3, 2)))
        out = unshift(grid)
        # theta = 1, T = 1: factor at t = 0 is e^{-4}
        assert out.values[0, 0] == pytest.approx(math.exp(-4.0), rel=1e-12)
        assert out.values[-1, 0] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_identity_when_floor_inactive(self):
        # fine grid: the identity holds up to quadrature error, which must sit
        # below the 10x-threshold slack for the comparison to be meaningful
        model = nonneg_model(seed=8, n_states=3, rate_scale=0.4, payoff_scale=0.3)
        config = SolverConfig(epsilon=0.05, n_t=256)
        shifted, unshift = floor_and_shift(model, n=1)
        direct, _, rep_d = solve(model, config)
        lifted, _, rep_s = solve(shifted, config)
        err = float(np.max(np.abs(unshift(lifted).values - direct.values)))
        assert err <= 10.0 * max(rep_d.threshold, rep_s.threshold)


class TestRunLadder:
    def test_inactive_levels_identical(self):
        model = nonneg_model(seed=9)
        cert = growing_cert(4)
        report = run_ladder(model, cert, [50, 100], SolverConfig(epsilon=0.05, n_t=16))
        assert report.levels[1].sup_diff_prev == pytest.approx(0.0, abs=1e-15)
        assert report.monotone_ok

    def test_cap_ladder_nondecreasing(self):
        model = nonneg_model(seed=10)
        cert = growing_cert(4)
        report = run_ladder(model, cert, [1, 2, 3, 50], SolverConfig(epsilon=0.02, n_t=24))
        assert report.shift == 0
        assert report.monotone_ok

    def test_cap_ladder_lifts_signed_payoff(self):
        model = random_bounded_model(np.random.default_rng(11))
        cert = growing_cert(2)
        report = run_ladder(model, cert, [1, 2, 10], SolverConfig(epsilon=0.02, n_t=24))
        assert report.shift >= 1
        assert report.monotone_ok

    def test_floor_ladder_nonincreasing(self):
        model = random_bounded_model(np.random.default_rng(12), n_states=3)
        model = replace(model, payoff=[p - 4.0 for p in model.payoff])  # deeply negative payoffs
        cert = growing_cert(3)
        report = run_ladder(model, cert, [1, 2, 4, 8], SolverConfig(epsilon=0.02, n_t=24), kind="floor")
        assert report.monotone_ok
        diffs = [e.sup_diff_prev for e in report.levels[1:]]
        assert all(d is not None for d in diffs)

    def test_level_zero_rejected(self):
        model = nonneg_model()
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            truncate_nonnegative(model, growing_cert(4), 0)
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            floor_and_shift(model, 0)

    @pytest.mark.parametrize("n", [1.5, True, np.float64(2.0)])
    def test_level_must_be_an_integer(self, n):
        model = nonneg_model()
        with pytest.raises(ValueError, match=re.escape(f"n={n!r} is not an integer")):
            truncate_nonnegative(model, growing_cert(4), n)
        with pytest.raises(ValueError, match=re.escape(f"n={n!r} is not an integer")):
            floor_and_shift(model, n)
        with pytest.raises(ValueError, match=re.escape(f"n={n!r} is not an integer")):
            sublevel_set(growing_cert(4), n)  # float(n) once took each

    @pytest.mark.parametrize(
        "levels, message",
        [
            ([True, 2], "levels[0]=True is not an integer"),
            ([1.5, 2], "levels[0]=1.5 is not an integer"),
            ([1, 2.0], "levels[1]=2.0 is not an integer"),
            ([2, 0], "levels[1] must be at least 1, got 0"),
        ],
        ids=["bool", "float", "float_second", "zero_second"],
    )
    @pytest.mark.parametrize("kind", ["cap", "floor"])
    def test_ladder_levels_must_be_integers_of_at_least_one(self, levels, message, kind):
        config = SolverConfig(epsilon=0.1, n_t=8)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_ladder(nonneg_model(), growing_cert(4), levels, config, kind=kind)

    def test_numpy_levels_are_reported_as_ints(self):
        config = SolverConfig(epsilon=0.1, n_t=8)
        report = run_ladder(nonneg_model(), growing_cert(4), list(np.array([1, 2])), config)
        assert [type(e.level) for e in report.levels] == [int, int]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be 'cap' or 'floor'"):
            run_ladder(nonneg_model(), growing_cert(4), [1, 2], SolverConfig(epsilon=0.1, n_t=8), kind="x")

    def test_level_that_does_not_converge_is_logged_and_recorded(self, caplog):
        config = SolverConfig(epsilon=1e-3, n_t=8, max_iterations=1)
        with caplog.at_level(logging.WARNING):
            report = run_ladder(nonneg_model(), growing_cert(4), [1, 2], config)
        assert [e.converged for e in report.levels] == [False, False]
        assert [r.getMessage() for r in caplog.records if r.name == "ctsg.truncation"] == [
            f"ladder level {n} did not converge in 1 iterations" for n in (1, 2)
        ]

    def test_levels_must_increase(self):
        model = nonneg_model()
        with pytest.raises(ValueError):
            run_ladder(model, growing_cert(4), [4, 4], SolverConfig(epsilon=0.1, n_t=8))
        with pytest.raises(ValueError):
            run_ladder(model, growing_cert(4), [8, 4], SolverConfig(epsilon=0.1, n_t=8))
        with pytest.raises(ValueError, match="must not be empty"):
            run_ladder(model, growing_cert(4), [], SolverConfig(epsilon=0.1, n_t=8))
