"""The one rule of every real argument, model._real, at each place a real is stored or used.

Each site refuses a bool, a string, None, an array, a NaN, +-inf and a value just past its
bound, and takes a numpy scalar as the Python float of the same value, which every writer
can then encode and every reader read back.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ctsg import io as artifacts
from ctsg.errors import CertificateError
from ctsg.example_games import build_gaussian, build_rps
from ctsg.model import CERTIFICATE_CONSTANTS, LyapunovCertificate, _real, check_assumptions
from ctsg.shapley import PolicyPair, TimeGrid
from ctsg.simulate import deviation_gain, estimate_value
from ctsg.solver import SolverConfig, contraction_constants, solve, stopping_threshold
from ctsg.truncation import run_ladder

from .conftest import FIXTURES

MODEL = artifacts.load_model(FIXTURES / "two_state_model.json")  # theta 1, horizon 1
CERT = artifacts.load_certificate(FIXTURES / "two_state_cert.json")
POLICIES = PolicyPair(TimeGrid(1.0, 4), [np.full((5, 2), 0.5)] * 2, [np.full((5, 2), 0.5)] * 2)
RPS = dict(alpha=0.35, lambda_bound=1.0, x_max=8.0, n_x=8, theta=1.0, T=1.0)
GAUSSIAN = dict(sigma=1.0, rate_bound=0.25, payoff_bound=1.0, x_min=-4.0, x_max=4.0, n_x=8, theta=1.0, T=1.0)
THRESHOLD = dict(epsilon=1e-3, theta=1.0, norm_r=1.0, norm_q=1.0, T=1.0)
CONTRACTION = dict(theta=1.0, norm_r=1.0, norm_q=1.0, T=1.0)

ABOVE_0 = [0.0, -0.0, -5e-324]
AT_LEAST_0 = [-5e-324]  # the float just below 0


def _built(builder, params, key):
    """Run the builder with params[key] = value; held: the model's and certificate's reals."""

    def run(value):
        model, cert = builder(**{**params, key: value})
        constants = artifacts.certificate_to_dict(cert)
        held = (model.theta, model.horizon, *(constants[name] for name in CERTIFICATE_CONSTANTS))
        tensors = [m.tolist() for m in (*model.payoff, *model.generator)]
        return held, (constants, model.coords.tolist(), tensors)

    return run


def _cert(name):
    return lambda v: ((getattr(replace(CERT, **{name: v}), name),), None)


# id: (run(value) -> (held reals, other output), a valid value, values past its bound,
# the name its messages give); a certificate constant's refusal is a CertificateError
SITES = {
    "GameModel.theta": (lambda v: ((replace(MODEL, theta=v).theta,), None), 1, ABOVE_0, "theta"),
    "GameModel.horizon": (lambda v: ((replace(MODEL, horizon=v).horizon,), None), 1, ABOVE_0, "horizon"),
    "TimeGrid.horizon": (lambda v: ((TimeGrid(v, 4).horizon,), TimeGrid(v, 4).dt), 1, ABOVE_0, "horizon"),
    "SolverConfig.epsilon": (lambda v: ((SolverConfig(v, 4).epsilon,), None), 0.25, ABOVE_0, "epsilon"),
    **{
        f"LyapunovCertificate.{name}": (_cert(name), 1, ABOVE_0, f"certificate constant {name}")
        for name in CERTIFICATE_CONSTANTS
    },
    "check_assumptions.tol": (
        lambda v: ((), check_assumptions(MODEL, CERT, v).residuals), 0, AT_LEAST_0, "tol"
    ),
    **{
        f"stopping_threshold.{name}": (
            lambda v, name=name: ((), stopping_threshold(**{**THRESHOLD, name: v})),
            1, AT_LEAST_0 if name.startswith("norm") else ABOVE_0, name,
        )
        for name in THRESHOLD
    },
    **{
        f"contraction_constants.{name}": (
            lambda v, name=name: ((), contraction_constants(**{**CONTRACTION, name: v})),
            1, ABOVE_0 if name == "T" else AT_LEAST_0, name,
        )
        for name in CONTRACTION
    },
    "estimate_value.t0": (
        lambda v: ((), estimate_value(MODEL, POLICIES, 0, v, paths=10, rng_seed=0).mean),
        0, [-5e-324, 1.0], "t0",
    ),
    "deviation_gain.t0": (
        lambda v: ((), deviation_gain(MODEL, POLICIES, 1, x0=0, t0=v).gain), 0, [-5e-324, 1.0], "t0"
    ),
    "build_rps.alpha": (_built(build_rps, RPS, "alpha"), 0.25, [0.0, math.nextafter(0.5, 1.0)], "alpha"),
    **{
        f"build_rps.{key}": (_built(build_rps, RPS, key), RPS[key], ABOVE_0, "horizon" if key == "T" else key)
        for key in ("lambda_bound", "x_max", "theta", "T")
    },
    **{
        f"build_gaussian.{key}": (_built(build_gaussian, GAUSSIAN, key), GAUSSIAN[key], past, name)
        for key, past, name in (
            ("sigma", ABOVE_0, "sigma"), ("rate_bound", ABOVE_0, "rate_bound"),
            ("payoff_bound", ABOVE_0, "payoff_bound"), ("x_min", [4.0], "x_min"), ("x_max", [-4.0], "x_max"),
            ("theta", ABOVE_0, "theta"), ("T", ABOVE_0, "horizon"),
        )
    },
}


def _error(name: str) -> type[Exception]:
    return CertificateError if name.startswith("certificate constant") else ValueError


NOT_FINITE_REALS = [
    True, False, np.bool_(True), "1", None, [1.0], np.array([1.0]), np.array(1.0),
    math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf), 10**400,
]


@pytest.mark.parametrize("site", list(SITES))
def test_values_that_are_not_finite_reals_are_refused(site):
    run, _, _, name = SITES[site]
    for value in NOT_FINITE_REALS:
        message = f"{name}={value!r} is not a finite real number"
        with pytest.raises(_error(name), match=f"^{re.escape(message)}$"):
            run(value)


@pytest.mark.parametrize("site", list(SITES))
def test_values_just_past_the_bound_are_refused(site):
    run, _, past, name = SITES[site]
    for value in past:
        with pytest.raises(_error(name)):
            run(value)


@pytest.mark.parametrize("site", list(SITES))
def test_numpy_scalars_are_held_as_python_floats_of_the_same_value(site):
    run, good, _, _ = SITES[site]
    want = run(float(good))
    kinds = [np.float32, np.float64] + ([np.int64, int] if float(good).is_integer() else [])
    for kind in kinds:
        held, out = run(kind(good))
        assert all(type(x) is float for x in held) and (held, out) == want, kind


class TestReal:
    @pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.uint8(2), np.float32(2.0), np.float64(2.0)])
    def test_reals_are_held_as_python_floats(self, value):
        real = _real(value, "k")
        assert real == 2.0 and type(real) is float

    def test_messages(self):
        with pytest.raises(ValueError, match=r"^k must be above 0, got 0\.0$"):
            _real(0.0, "k", 0, above=True)
        with pytest.raises(ValueError, match=r"^k must be at least 1, got 0\.5$"):
            _real(0.5, "k", 1)
        with pytest.raises(ValueError, match=r"^k=np\.float64\(nan\) is not a finite real number$"):
            _real(np.float64(math.nan), "k")
        assert _real(0.0, "k", 0) == 0.0 and _real(-1e308, "k") == -1e308  # no bound unless one is given


def test_numpy_scalars_round_trip_through_every_artifact(tmp_path):
    # np.float32 as the horizon or a certificate constant once made the writers raise
    # "Object of type float32 is not JSON serializable"
    model, cert = build_rps(
        np.float32(0.25), lambda_bound=np.float32(1.0), x_max=np.float64(8.0), n_x=np.int64(8),
        theta=np.float32(1.0), T=np.float32(1.0),
    )
    cert = replace(cert, **{name: np.float32(getattr(cert, name)) for name in CERTIFICATE_CONSTANTS})
    cert = check_assumptions(model, cert, np.float32(0.25))
    config = SolverConfig(np.float32(0.25), np.int64(8))
    value, policies, report = solve(model, config)
    ladder = run_ladder(model, cert, [np.int64(2), 4], config)
    estimate = estimate_value(model, policies, 3, np.float32(0.0), paths=20, rng_seed=np.uint64(1))
    paths = {name: tmp_path / name for name in ("m.json", "c.json", "v.csv", "p.json", "l.csv")}
    artifacts.save_model(model, paths["m.json"])
    artifacts.save_certificate(cert, paths["c.json"])
    artifacts.save_value_grid(value, model.state_ids, paths["v.csv"])
    artifacts.save_policies(policies, model.state_ids, paths["p.json"])
    paths["l.csv"].write_text(artifacts.ladder_to_csv(ladder, model.state_ids))
    for payload in (
        artifacts.as_json_dict(report), artifacts.ladder_summary_to_dict(ladder),
        artifacts.estimate_to_dict(estimate), artifacts.certificate_checks_to_dict(cert),
    ):
        json.dumps(payload, allow_nan=False)

    loaded = artifacts.load_model(paths["m.json"])
    assert (loaded.theta, loaded.horizon, loaded.state_ids) == (1.0, 1.0, model.state_ids)
    assert artifacts.certificate_to_dict(artifacts.load_certificate(paths["c.json"])) == (
        artifacts.certificate_to_dict(cert)
    )
    read_value, ids = artifacts.load_value_grid(paths["v.csv"])
    assert read_value.grid == value.grid and ids == list(model.state_ids)
    np.testing.assert_array_equal(read_value.values, value.values)
    read_policies, ids = artifacts.load_policies(paths["p.json"])
    assert read_policies.grid == policies.grid and ids == list(model.state_ids)
    for got, want in zip(read_policies._stacks, policies._stacks, strict=True):
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)

