"""Benchmark builders: kernels, certificates, drift identities."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from ctsg.errors import DiscretizationError
from ctsg.example_games import build_gaussian, build_rps, discretize_density
from ctsg.matrix_game import solve_matrix_game
from ctsg.model import check_assumptions, validate_generator


class TestDiscretizeDensity:
    def test_uniform_four_cells(self):
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        row = discretize_density(lambda y: np.ones_like(y), grid, rate=2.0, x_index=1)
        np.testing.assert_allclose(row, [0.5, -1.5, 0.5, 0.5])
        assert row.sum() == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_at_self(self):
        grid = np.linspace(0.0, 3.0, 4)
        density = lambda y: np.where(np.abs(y - 1.0) < 0.4, 1.0, 0.0)
        row = discretize_density(density, grid, rate=5.0, x_index=1)
        np.testing.assert_allclose(row, 0.0)

    def test_zero_density_rejected(self):
        grid = np.linspace(0.0, 1.0, 4)
        with pytest.raises(DiscretizationError):
            discretize_density(lambda y: np.zeros_like(y), grid, rate=1.0, x_index=0)

    def test_exponential_destination_mean(self):
        x = 2.0
        grid = np.linspace(0.0, 20.0, 2001)
        ix = int(np.argmin(np.abs(grid - x)))
        row = discretize_density(lambda y: np.exp(-y / x) / x, grid, rate=1.0, x_index=ix)
        dest = np.clip(row, 0.0, None)
        dest[ix] = 0.0
        mean = float(np.sum(grid * dest) / np.sum(dest))
        cell = grid[1] - grid[0]
        assert abs(mean - x) <= 2.0 * cell


class TestBuildRps:
    def test_alpha_precondition(self):
        with pytest.raises(ValueError):
            build_rps(0.6, x_max=4.0, n_x=8, theta=1.0, T=1.0)
        with pytest.raises(ValueError):
            build_rps(0.0, x_max=4.0, n_x=8, theta=1.0, T=1.0)

    def test_origin_node_is_inert(self):
        model, _ = build_rps(0.4, x_max=4.0, n_x=16, theta=1.0, T=1.0)
        np.testing.assert_array_equal(model.payoff[0], 0.0)
        np.testing.assert_array_equal(model.generator[0], 0.0)
        assert model.terminal[0] == 0.0

    def test_payoff_antisymmetric_with_uniform_equilibrium(self):
        model, _ = build_rps(0.5, x_max=4.0, n_x=16, theta=1.0, T=1.0)
        for x in (3, 9, 15):
            r = model.payoff[x]
            np.testing.assert_allclose(r, -r.T, atol=1e-15)
            sol = solve_matrix_game(r)
            assert sol.value == pytest.approx(0.0, abs=1e-9)
            np.testing.assert_allclose(sol.strategy_p1, 1.0 / 3.0, atol=1e-9)
            np.testing.assert_allclose(sol.strategy_p2, 1.0 / 3.0, atol=1e-9)

    def test_certificate_constants(self):
        _, cert = build_rps(0.3, lambda_bound=2.0, x_max=4.0, n_x=8, theta=1.0, T=1.0)
        assert (cert.rho0, cert.l0, cert.m0) == (1.0, 2.0, 1.0)
        assert (cert.rho1, cert.b1, cert.m1) == (46.0, 1.0, 1.0)

    def test_passes_validation_and_checks(self):
        model, cert = build_rps(0.35, x_max=8.0, n_x=128, theta=1.0, T=1.0)
        assert validate_generator(model).is_valid
        checked = check_assumptions(model, cert, tol=1e-2)
        assert checked.all_ok

    def test_rate_spec_validated(self):
        with pytest.raises(ValueError, match="sojourn rate"):
            build_rps(
                0.3,
                lambda_fn=lambda x, a, b: 2.0,
                lambda_bound=1.0,
                x_max=4.0,
                n_x=8,
                theta=1.0,
                T=1.0,
            )

    def test_weighted_games_stay_uniform(self):
        # constant sojourn rate makes the generator part of the weighted
        # payoff action-independent; the value field under a state-constant
        # grid collapses to the antisymmetric part: value 0, uniform play
        from ctsg.shapley import TimeGrid, ValueGrid, game_value_field

        model, _ = build_rps(0.4, x_max=4.0, n_x=8, theta=1.0, T=1.0)
        v = ValueGrid(TimeGrid(1.0, 4), np.full((5, 8), 1.7))
        a_field, policies = game_value_field(model, v)
        np.testing.assert_allclose(a_field, 0.0, atol=1e-12)
        # x = 0 is inert (all-zero payoff matrix, every strategy optimal);
        # all other nodes have a strict mixed equilibrium at uniform
        for x in range(1, 8):
            np.testing.assert_allclose(policies.pi1[x], 1.0 / 3.0, atol=1e-9)
            np.testing.assert_allclose(policies.pi2[x], 1.0 / 3.0, atol=1e-9)


class TestBuildGaussian:
    def test_certificate_constants(self):
        sigma = 0.5
        _, cert = build_gaussian(
            sigma=sigma, rate_bound=0.3, payoff_bound=1.0,
            x_min=-3.0, x_max=3.0, n_x=16, theta=1.0, T=1.0,
        )
        assert cert.rho0 == pytest.approx(0.3 * sigma**2)
        assert cert.l0 == 0.3
        s2 = sigma**2
        assert cert.rho1 == pytest.approx(3780.0 * 0.3 * (s2**4 + s2**3 + s2**2 + s2))
        assert (cert.b1, cert.m1) == (1.0, 2.0)

    def test_passes_validation_and_checks(self):
        model, cert = build_gaussian(
            sigma=1.0, rate_bound=0.25, payoff_bound=1.0,
            x_min=-4.0, x_max=4.0, n_x=128, theta=1.0, T=1.0,
        )
        assert validate_generator(model).is_valid
        assert check_assumptions(model, cert, tol=1e-2).all_ok

    def test_interior_drift_identity(self):
        # sum_y (1 + y^2) q(y|x, a, b) approaches lambda sigma^2 on refinement
        sigma, M = 1.0, 0.25
        errs = []
        for span, n_x in ((4.0, 128), (6.0, 512)):
            model, cert = build_gaussian(
                sigma=sigma, rate_bound=M, payoff_bound=1.0,
                x_min=-span, x_max=span, n_x=n_x, theta=1.0, T=1.0,
            )
            ix = int(np.argmin(np.abs(model.coords)))
            lam = M * (1.0 + model.coords[ix] ** 2)
            drift = float(model.generator[ix][0, 0] @ cert.v0)
            errs.append(abs(drift - lam * sigma**2) / (lam * sigma**2))
        assert errs[1] < 1e-2
        assert errs[1] < errs[0]

    @pytest.mark.parametrize(
        "bad",
        [
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"rate_bound": 0.0},
            {"payoff_bound": -0.5},
            {"sigma": math.nan},
            {"n_x": 1},
        ],
        ids=["sigma_zero", "sigma_negative", "rate_bound_zero", "payoff_bound_negative", "sigma_nan", "n_x_one"],
    )
    def test_bad_scalars_rejected(self, bad):
        params = dict(
            sigma=1.0, rate_bound=0.1, payoff_bound=1.0,
            x_min=-2.0, x_max=2.0, n_x=8, theta=1.0, T=1.0,
        )
        match = "grid nodes" if "n_x" in bad else "must be positive"
        with pytest.raises(ValueError, match=match):
            build_gaussian(**{**params, **bad})

    def test_takes_only_the_cli_scalars(self):
        # the builder is fixed by its scalars: no rate, payoff or terminal hooks
        from ctsg.cli import _EXAMPLES

        builder, defaults = _EXAMPLES["gaussian"]
        assert set(inspect.signature(builder).parameters) == set(defaults)

    def test_thin_mass_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="ctsg.example_games"):
            build_gaussian(
                sigma=2.0, rate_bound=0.1, payoff_bound=1.0,
                x_min=-2.0, x_max=2.0, n_x=16, theta=1.0, T=1.0,
            )
        assert "mass" in caplog.text
