"""Benchmark builders: kernels, certificates, drift identities."""

from __future__ import annotations

import hashlib
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from ctsg.cli import dispatch
from ctsg.errors import DiscretizationError
from ctsg.example_games import _jump_rows, build_gaussian, build_rps
from ctsg.matrix_game import solve_matrix_game
from ctsg.model import check_assumptions, validate_generator

from .conftest import refused_real


class TestDiscretizeDensity:
    """_jump_rows: one density matrix to a unit-rate jump kernel, in place."""

    def test_uniform_four_cells(self):
        density = np.ones((4, 4))
        kernel = _jump_rows(density, 1.0)
        assert kernel is density
        np.testing.assert_allclose(kernel[1], [0.25, -0.75, 0.25, 0.25])
        np.testing.assert_allclose(kernel, 0.25 - np.eye(4))
        np.testing.assert_allclose(kernel.sum(axis=1), 0.0, atol=1e-15)

    def test_point_mass_at_self(self):
        grid = np.linspace(0.0, 3.0, 4)
        density = np.where(np.abs(grid[None, :] - grid[:, None]) < 0.4, 1.0, 0.0)
        np.testing.assert_array_equal(_jump_rows(density, 1.0), 0.0)

    def test_zero_density_rejected(self):
        density = np.ones((4, 4))
        density[2] = -1.0  # clipped to zero
        with pytest.raises(DiscretizationError, match="from node 2"):
            _jump_rows(density, 1.0 / 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_row_rejected(self, bad):
        density = np.ones((3, 3))
        density[1, 0] = bad
        with pytest.raises(DiscretizationError, match="from node 1"):
            _jump_rows(density, 0.5)

    def test_exponential_destination_mean(self):
        grid = np.linspace(0.0, 20.0, 2001)
        cell = grid[1] - grid[0]
        mean = grid.copy()
        mean[0] = 1.0  # placeholder row
        kernel = _jump_rows(np.exp(-grid / mean[:, None]) / mean[:, None], cell)
        for ix in (100, 200):  # x = 1, 2: the grid spans ten means or more
            dest = np.clip(kernel[ix], 0.0, None)
            dest[ix] = 0.0
            assert abs(float(np.sum(grid * dest) / np.sum(dest)) - grid[ix]) <= 2.0 * cell


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"x_max": 0.0}, "x_max must be above 0, got 0.0"),
            ({"x_max": -8.0}, "x_max must be above 0, got -8.0"),
            ({"x_max": math.inf}, "x_max=inf is not a finite real number"),
            ({"lambda_bound": math.inf}, "lambda_bound=inf is not a finite real number"),
            ({"T": math.nan}, "horizon=nan is not a finite real number"),
            ({"lambda_bound": 0.0}, "lambda_bound must be above 0, got 0.0"),
            ({"n_x": 1}, "n_x must be at least 2, got 1"),
            ({"n_x": 8.5}, "n_x=8.5 is not an integer"),
            ({"n_x": True}, "n_x=True is not an integer"),
        ],
        ids=[
            "x_max_zero", "x_max_negative", "x_max_inf", "lambda_bound_inf", "T_nan",
            "lambda_bound_zero", "one_node", "n_x_float", "n_x_bool",
        ],
    )
    def test_meaningless_scalars_rejected(self, bad, message):
        params = dict(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        with pytest.raises(ValueError, match=message):
            build_rps(**{**params, **bad})

    def test_takes_only_the_cli_scalars(self):
        # the builder is fixed by its scalars: no rate, payoff or terminal hooks
        from ctsg.cli import _EXAMPLES

        builder, defaults = _EXAMPLES["rps"]
        assert set(inspect.signature(builder).parameters) == set(defaults)

    def test_build_holds_one_generator_copy(self):
        # the model's shape-group stack is the only full-size generator; one
        # (n_x, n_x) kernel matrix is all the builder holds beside it
        n_x = 256
        tracemalloc.start()
        try:
            model, _ = build_rps(0.35, x_max=8.0, n_x=n_x, theta=1.0, T=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = model._shape_groups[0].generator.nbytes
        assert peak < stack + 2 * n_x * n_x * 8

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
        ((name, value),) = bad.items()
        match = "n_x must be at least 2, got 1" if name == "n_x" else refused_real(name, value)
        with pytest.raises(ValueError, match=match):
            build_gaussian(**{**params, **bad})

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"x_min": 2.0}, "x_min must lie below x_max"),
            ({"x_max": -3.0}, "x_min must lie below x_max"),
            ({"sigma": math.inf}, "sigma=inf is not a finite real number"),
            ({"x_min": -math.inf}, "x_min=-inf is not a finite real number"),
            ({"theta": math.inf}, "theta=inf is not a finite real number"),
            ({"rate_bound": 1e300, "sigma": 1e-5, "x_min": -1e5, "x_max": 1e5}, "overflows"),
            ({"n_x": 8.5}, "n_x=8.5 is not an integer"),
            ({"n_x": True}, "n_x=True is not an integer"),
        ],
        ids=[
            "x_min_at_x_max", "x_max_below_x_min", "sigma_inf", "x_min_inf", "theta_inf", "rate_overflow",
            "n_x_float", "n_x_bool",
        ],
    )
    def test_meaningless_scalars_rejected(self, bad, message):
        params = dict(
            sigma=1.0, rate_bound=0.1, payoff_bound=1.0,
            x_min=-2.0, x_max=2.0, n_x=8, theta=1.0, T=1.0,
        )
        with pytest.raises(ValueError, match=message):
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


# SHA-256 of the `ctsg build-example` model and certificate JSON at the CLI
# defaults but n_x, as the per-state builders wrote them (numpy 2.4, x86-64).
# Rebuilding the kernels must keep every model and certificate byte.
_PINNED_BUILDS = {
    ("rps", 8): (
        "39af4203fac86315f5df6845a1dfb1c88d0d3365d550dd3ab5969331451bfd97",
        "3dadb95f6ab47490797d9b29a6772e4be676a6d88b43293fbbbdfc94b13e284e",
    ),
    ("rps", 64): (
        "79b294b6125af4218c2d6fe6e93278b9a80b303a00f0a6dac325f911dc031d87",
        "c30c2d9547bff2be76256f95a764ec93c7a70a7e602248261fa14616c793872e",
    ),
    ("gaussian", 8): (
        "5649191c54cd75fc5977523fd25e7f1304f86d79ecaf37fc94632f0174e7d5e6",
        "4e1c368a874ad621eec67d5441c3941380762ba8939de8cb6664681da06a4142",
    ),
    ("gaussian", 64): (
        "846fbe7a822e73f0fd1457ba2f2f1caf6e90f21fdd1103a88ae8d23e9a6cf996",
        "796c19ae68a8713561db1d0655b62669b192cefa014af9833c48a26ef12b1a22",
    ),
}


@pytest.mark.parametrize("name, n_x", sorted(_PINNED_BUILDS))
def test_build_example_output_pinned(tmp_path, name, n_x):
    params, model_json, cert_json = (tmp_path / f for f in ("p.json", "m.json", "c.json"))
    params.write_text(f'{{"n_x": {n_x}}}')
    code = dispatch([
        "build-example", "--name", name, "--params", str(params),
        "--out", str(model_json), "--out-cert", str(cert_json),
    ])
    assert code == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (model_json, cert_json))
    assert digests == _PINNED_BUILDS[(name, n_x)]


@pytest.mark.parametrize("name", ["rps", "gaussian"])
def test_built_model_computes_as_the_loaded_one(tmp_path, name):
    # the generator reaches the model as a broadcast; its stack must still have
    # the loaded model's layout, or the generator products round differently
    from ctsg import io as artifacts
    from ctsg.cli import _EXAMPLES
    from ctsg.shapley import _payoff_stacks

    builder, defaults = _EXAMPLES[name]
    built, _ = builder(**defaults)
    artifacts.save_model(built, tmp_path / "m.json")
    loaded = artifacts.load_model(tmp_path / "m.json")
    assert built._shape_groups[0].generator.flags.c_contiguous
    V = np.random.default_rng(3).uniform(0.5, 2.0, size=(5, built.n_states))
    for (_, c_built), (_, c_loaded) in zip(_payoff_stacks(built, V), _payoff_stacks(loaded, V)):
        assert c_built.tobytes() == c_loaded.tobytes()
