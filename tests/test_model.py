"""Generator validation, assumption checks and value bounds."""

from __future__ import annotations

import copy
import math
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from ctsg.errors import CertificateError, StructureError
from ctsg.example_games import build_rps
from ctsg.model import (
    CERTIFICATE_CHECKS,
    GameModel,
    LyapunovCertificate,
    _count,
    check_assumptions,
    compute_value_bounds,
    validate_generator,
)
from ctsg.shapley import TimeGrid, ValueGrid, verify_saddle
from ctsg.simulate import estimate_value
from ctsg.solver import SolverConfig, solve

from .conftest import mixed_shape_model, random_bounded_model, refused_real


def two_state(rows0, rows1, **kw) -> GameModel:
    """One action per player; rows are the generator rows of the two states."""
    g0 = np.array(rows0, dtype=float).reshape(1, 1, 2)
    g1 = np.array(rows1, dtype=float).reshape(1, 1, 2)
    defaults = dict(
        actions_p1=[[0], [0]],
        actions_p2=[[0], [0]],
        payoff=[np.zeros((1, 1)), np.zeros((1, 1))],
        generator=[g0, g1],
        terminal=np.zeros(2),
        theta=1.0,
        horizon=1.0,
    )
    defaults.update(kw)
    return GameModel(**defaults)


def unit_cert(n: int = 2, **kw) -> LyapunovCertificate:
    defaults = dict(v0=np.ones(n), v1=np.ones(n), rho0=1.0, l0=1.0, m0=1.0, rho1=1.0, b1=1.0, m1=1.0)
    defaults.update(kw)
    return LyapunovCertificate(**defaults)


class TestValidateGenerator:
    def test_conservative_rows_are_valid(self):
        model = two_state([-1.0, 1.0], [2.0, -2.0])
        report = validate_generator(model)
        assert report.is_valid
        assert report.q_star.tolist() == [1.0, 2.0]

    def test_row_sum_violation(self):
        model = two_state([-1.0, 0.5], [1.0, -1.0])
        report = validate_generator(model)
        kinds = {v.kind for v in report.violations}
        assert kinds == {"not_conservative"}
        assert report.violations[0].residual == pytest.approx(-0.5)
        assert (report.violations[0].x, report.violations[0].a, report.violations[0].b) == (0, 0, 0)

    def test_negative_offdiagonal_with_witness(self):
        model = two_state([0.1, -0.1], [1.0, -1.0])
        report = validate_generator(model)
        offdiag = [v for v in report.violations if v.kind == "offdiag_negative"]
        assert len(offdiag) == 1
        assert (offdiag[0].x, offdiag[0].y) == (0, 1)
        assert offdiag[0].residual == pytest.approx(-0.1)

    def test_positive_diagonal_flags_stability(self):
        model = two_state([0.5, -0.5], [1.0, -1.0])
        report = validate_generator(model)
        kinds = {v.kind for v in report.violations}
        assert "not_stable" in kinds

    def test_dimension_mismatch_is_structural(self):
        cases = [
            (dict(payoff=[np.zeros((2, 1)), np.zeros((1, 1))]), r"payoff\[0\]"),
            (dict(generator=[np.zeros((1, 1, 2)), np.zeros((1, 2, 2))]), r"generator\[1\]"),
            (dict(terminal=np.zeros(3)), "terminal"),
            (dict(actions_p2=[[0]]), "inconsistent lengths"),
        ]
        for bad, match in cases:
            with pytest.raises(StructureError, match=match):
                two_state([-1.0, 1.0], [1.0, -1.0], **bad)

    def test_empty_action_set_is_structural(self):
        with pytest.raises(StructureError, match="state 0 has an empty action set"):
            two_state(
                [-1.0, 1.0],
                [1.0, -1.0],
                actions_p1=[[], [0]],
                payoff=[np.zeros((0, 1)), np.zeros((1, 1))],
                generator=[np.zeros((0, 1, 2)), np.array([[[1.0, -1.0]]])],
            )

    def test_a_model_needs_a_state(self):
        with pytest.raises(StructureError, match="a model needs at least one state"):
            GameModel([], [], [], [], np.zeros(0), theta=1.0, horizon=1.0)

    def test_nonfinite_entry_flagged(self):
        model = two_state([-1.0, 1.0], [1.0, -1.0])
        model.generator[1][0, 0, 0] = np.inf
        report = validate_generator(model)
        assert any(v.kind == "not_finite" for v in report.violations)

    def test_nan_rate_leaves_tolerance_finite(self):
        # a NaN in state 0 must not hide state 1's non-conservative row
        model = two_state([-1.0, 1.0], [1.0, -0.5])
        model.generator[0][0, 0, 1] = np.nan
        report = validate_generator(model)
        assert math.isfinite(report.tolerance) and report.max_abs_rate == 1.0
        witnesses = [(v.kind, v.x) for v in report.violations]
        assert witnesses == [("not_finite", 0), ("not_conservative", 1)]

    def test_nonfinite_payoff_and_terminal_flagged(self):
        model = two_state([-1.0, 1.0], [1.0, -1.0], terminal=np.array([-np.inf, 0.0]))
        model.payoff[1][0, 0] = np.nan
        report = validate_generator(model)
        assert not report.is_valid
        witnesses = {(v.kind, v.x, v.a, v.b, v.y) for v in report.violations}
        assert witnesses == {("not_finite", 1, 0, 0, None), ("not_finite", 0, None, None, None)}


class TestModelInvariants:
    def test_theta_must_be_positive(self):
        with pytest.raises(ValueError, match="theta"):
            two_state([-1.0, 1.0], [1.0, -1.0], theta=-0.5)

    @pytest.mark.parametrize("name", ["theta", "horizon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_scalars_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=refused_real(name, value)):
            two_state([-1.0, 1.0], [1.0, -1.0], **{name: value})

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"state_ids": [7]}, "1 state ids for 2 states"),
            ({"state_ids": [3, 3]}, "state id 3 appears more than once"),
            ({"coords": np.zeros(3)}, r"coords must have shape \(2,\)"),
            # [0.2, 0.7, 3.0] was once written as ids 0, 0, 3, which load_model refused
            ({"state_ids": [0.2, 0.7]}, r"state_ids\[0\]=0\.2 is not an integer"),
            ({"state_ids": [True, 2]}, r"state_ids\[0\]=True is not an integer"),
            ({"state_ids": ["a", "b"]}, r"state_ids\[0\]='a' is not an integer"),
        ],
        ids=["short", "duplicate", "coords", "fractional_id", "bool_id", "string_id"],
    )
    def test_state_ids_and_coords_match_the_states(self, kw, message):
        with pytest.raises(StructureError, match=message):
            two_state([-1.0, 1.0], [1.0, -1.0], **kw)

    def test_numpy_state_ids_are_held_as_python_ints(self):
        model = two_state([-1.0, 1.0], [1.0, -1.0], state_ids=np.array([7, 3]))
        assert model.state_ids == (7, 3) and all(type(s) is int for s in model.state_ids)

    def test_norms(self):
        model = two_state([-1.0, 1.0], [2.0, -2.0])
        model.payoff[0][0, 0] = -3.0
        assert model.norm_q == 2.0
        assert model.norm_r == 3.0

    @pytest.mark.parametrize("name", ["mixed_shapes", "random"])
    def test_norms_equal_the_per_state_loop(self, name):
        if name == "mixed_shapes":
            model = mixed_shape_model()
        else:
            model = random_bounded_model(np.random.default_rng(5), 7, 3, rate_scale=3.0)
        n = model.n_states
        q_star = [float(np.max(-model.generator[x][:, :, x])) for x in range(n)]
        assert model.q_star.tolist() == q_star
        assert model.norm_q == max(q_star)
        assert model.norm_r == max(float(np.max(np.abs(m))) for m in model.payoff)

    def test_nan_in_second_state_propagates(self):
        # Python's max(2.0, nan) is 2.0; the norms must not drop the NaN
        model = two_state([-1.0, 1.0], [2.0, -2.0])
        model.generator[1][0, 0, 1] = np.nan
        model.payoff[1][0, 0] = np.nan
        assert math.isnan(model.norm_q) and math.isnan(model.norm_r)
        assert math.isnan(validate_generator(model).q_star[1])


class TestShapeGroups:
    def test_groups_stack_each_shape_in_state_order(self):
        model = mixed_shape_model()
        groups = model._shape_groups
        assert [g.states.tolist() for g in groups] == [[0], [1], [2, 5], [3], [4]]
        for g in groups:
            for k, x in enumerate(g.states):
                np.testing.assert_array_equal(g.payoff[k], model.payoff[x])
                np.testing.assert_array_equal(
                    g.generator[k], model.generator[x].reshape(-1, model.n_states)
                )
        assert model._shape_groups is groups  # built once

    def test_replaced_model_never_sees_source_stacks(self):
        model = mixed_shape_model()
        source = model._shape_groups
        doubled = replace(model, payoff=[2.0 * p for p in model.payoff])
        assert doubled._shape_groups is not source
        for g in doubled._shape_groups:
            for k, x in enumerate(g.states):
                np.testing.assert_array_equal(g.payoff[k], 2.0 * model.payoff[x])

    def test_per_state_tensors_are_views_into_the_stacks(self):
        model = mixed_shape_model()
        assert isinstance(model.payoff, tuple) and isinstance(model.generator, tuple)
        for g in model._shape_groups:
            for k, x in enumerate(g.states):
                assert np.shares_memory(model.payoff[x], g.payoff)
                assert np.shares_memory(model.generator[x], g.generator)
                model.generator[x][0, 0, 0] += 1.0
                assert g.generator[k, 0, 0] == model.generator[x][0, 0, 0]
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            for g in clone._shape_groups:
                for x in g.states:
                    assert np.shares_memory(clone.payoff[x], g.payoff)
                    assert np.shares_memory(clone.generator[x], g.generator)
            np.testing.assert_array_equal(clone.generator[3], model.generator[3])
            assert not np.shares_memory(clone.generator[3], model.generator[3])

    def test_replacing_a_tensor_sequence_restacks(self):
        model = mixed_shape_model()
        source = model._shape_groups
        doubled = replace(model, generator=[2.0 * q for q in model.generator])
        assert model._shape_groups is source
        for g, old in zip(doubled._shape_groups, source):
            np.testing.assert_array_equal(g.generator, 2.0 * old.generator)
            np.testing.assert_array_equal(g.payoff, old.payoff)
            assert not np.shares_memory(g.payoff, old.payoff)
            for x in g.states:
                assert np.shares_memory(doubled.generator[x], g.generator)
                assert np.shares_memory(doubled.payoff[x], g.payoff)
        with pytest.raises(StructureError, match=r"payoff\[0\]"):
            replace(model, payoff=[np.zeros((4, 4))] * model.n_states)
        assert model._shape_groups is source
        assert np.shares_memory(model.payoff[0], source[0].payoff)

    @pytest.mark.parametrize("tensor", ["payoff", "generator"])
    def test_in_place_edit_after_a_solve_is_seen(self, tensor):
        def edit(model: GameModel) -> None:
            for x in range(model.n_states):
                if tensor == "payoff":
                    model.payoff[x][0] += 0.3
                else:
                    model.generator[x][0] *= 1.5  # action-dependent rates; rows still sum to zero

        config = SolverConfig(epsilon=1e-3, n_t=16)
        fresh, _ = build_rps(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        edit(fresh)
        v_fresh, pol_fresh, _ = solve(fresh, config)
        model, _ = build_rps(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        v_old, pol_old, _ = solve(model, config)
        edit(model)
        gap = verify_saddle(model, v_old, pol_old)
        assert gap == verify_saddle(fresh, v_old, pol_old) and gap > 1e-3
        est, est_fresh = (
            estimate_value(m, pol_fresh, x0=5, t0=0.0, paths=2000, rng_seed=7)
            for m in (model, fresh)
        )
        np.testing.assert_array_equal(est.values, est_fresh.values)
        v, pol, _ = solve(model, config)
        np.testing.assert_array_equal(v.values, v_fresh.values)
        for mine, theirs in zip(pol.pi1 + pol.pi2, pol_fresh.pi1 + pol_fresh.pi2):
            np.testing.assert_array_equal(mine, theirs)


# One instance of each frozen class, built fresh per test.
FROZEN = {
    GameModel: mixed_shape_model,
    TimeGrid: lambda: TimeGrid(1.0, 4),
    ValueGrid: lambda: ValueGrid(TimeGrid(1.0, 4), np.ones((5, 2))),
    SolverConfig: lambda: SolverConfig(epsilon=0.1, n_t=4),
    LyapunovCertificate: lambda: build_rps(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)[1],
}
FROZEN_FIELDS = [(cls, f.name) for cls in FROZEN for f in fields(cls) if f.init]


class TestFrozenFields:
    @pytest.mark.parametrize(
        ("cls", "name"), FROZEN_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FROZEN_FIELDS]
    )
    def test_rebinding_a_field_is_refused(self, cls, name):
        obj = FROZEN[cls]()
        groups = getattr(obj, "_shape_groups", None)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        assert getattr(obj, "_shape_groups", None) is groups

    def test_replacing_the_action_sets_rechecks_the_tensors(self):
        model, _ = build_rps(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        with pytest.raises(StructureError, match=r"payoff\[0\] must have shape \(1, 3\)"):
            replace(model, actions_p1=[[0]] * model.n_states)

    def test_action_sets_and_state_ids_refuse_in_place_edits(self):
        # lists passed in are stored as tuples, so an edit cannot skip the constructor's checks
        model, _ = build_rps(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        with pytest.raises(AttributeError):
            model.actions_p1[0].append(7)
        with pytest.raises(AttributeError):
            model.state_ids.append(99)
        assert model.actions_p1[0] == (0, 1, 2) and model.state_ids == tuple(range(8))


class TestCheckAssumptions:
    def test_everything_vanishes_passes(self):
        model = two_state([0.0, 0.0], [0.0, 0.0])
        cert = check_assumptions(model, unit_cert(), tol=0.0)
        assert cert.all_ok
        # passing checks have no positive violation component
        assert all(max(0.0, r) == 0.0 for r in cert.residuals.values())
        assert cert.residuals["squeeze"] == pytest.approx(0.0)

    def test_drift_failure_detected(self):
        # rate 5 out of state 0 against v0 = (1, 10) blows past rho0 v0
        model = two_state([-5.0, 5.0], [0.0, 0.0])
        cert = unit_cert(v0=np.array([1.0, 10.0]), v1=np.array([1.0, 100.0]), rho1=100.0, m1=100.0)
        out = check_assumptions(model, cert, tol=1e-9)
        assert out.drift0_ok is False
        assert out.residuals["drift0"] == pytest.approx(5.0 * 10 - 5.0 * 1 - 1.0)

    def test_every_check_fills_its_flag_and_residual(self):
        # rate 5 out of state 0 against v0 = (1, 10) fails drift0 and drift1 only
        model = two_state([-5.0, 5.0], [0.0, 0.0])
        cert = unit_cert(
            v0=np.array([1.0, 10.0]), v1=np.array([1.0, 100.0]), l0=5.0, rho1=100.0, m1=100.0
        )
        out = check_assumptions(model, cert, tol=1e-9)
        declared = {f.name for f in fields(LyapunovCertificate)}
        assert {f"{name}_ok" for name in CERTIFICATE_CHECKS} <= declared
        assert list(out.residuals) == list(CERTIFICATE_CHECKS)
        for name in CERTIFICATE_CHECKS:
            assert type(out.residuals[name]) is float
            assert getattr(out, f"{name}_ok") is (out.residuals[name] <= 1e-9)
            assert getattr(cert, f"{name}_ok") is None
        failed = {name for name in CERTIFICATE_CHECKS if not getattr(out, f"{name}_ok")}
        assert failed == {"drift0", "drift1"}
        assert cert.residuals == {} and out.residuals is not cert.residuals

    def test_monotone_in_tol(self):
        model = two_state([-5.0, 5.0], [0.0, 0.0])
        cert = unit_cert(v0=np.array([1.0, 2.0]), v1=np.array([1.0, 4.0]), rho1=50.0, m1=10.0)
        loose = check_assumptions(model, cert, tol=10.0)
        tight = check_assumptions(model, cert, tol=1e-12)
        for name in ("drift0_ok", "rate_bound_ok", "payoff_bound_ok", "drift1_ok", "squeeze_ok"):
            if getattr(tight, name):
                assert getattr(loose, name)

    @pytest.mark.parametrize("state", range(6))
    def test_residuals_equal_a_per_state_reference_on_mixed_shapes(self, state):
        # Both weights are smallest at `state`, by so much that each group-read residual is
        # that state's; the 2x2 group's states 2 and 5 are not adjacent. So a group written
        # to the wrong states or reduced over the wrong axes moves a residual.
        model = mixed_shape_model()
        n = model.n_states
        rng = np.random.default_rng(state)
        model = replace(model, terminal=rng.uniform(-2.0, 2.0, n))
        for others in (rng.uniform(2.0, 5.0, n), np.full(n, 1e40)):  # drifts; payoff bound
            v0, v1 = others.copy(), rng.uniform(2.0, 5.0, n)
            v0[state] = v1[state] = 1.0
            cert = unit_cert(n, v0=v0, v1=v1, rho0=1e3, m0=0.25, rho1=1e3, b1=0.1)
            out = check_assumptions(model, cert, tol=0.0)
            bound = [cert.m0 + (math.sqrt(2.0) / 2.0) * math.sqrt(math.log(v)) for v in v0]
            q, r, g = model.generator, model.payoff, model.terminal
            expected = {
                "drift0": max(float(np.max(q[x] @ v0)) - cert.rho0 * v0[x] for x in range(n)),
                "rate_bound": max(
                    float(np.max(-q[x][:, :, x])) - cert.l0 * v0[x] for x in range(n)
                ),
                "payoff_bound": max(
                    max(float(np.max(np.abs(r[x]))), abs(g[x])) - bound[x] for x in range(n)
                ),
                "drift1": max(
                    float(np.max(q[x] @ v1**2)) - (cert.rho1 * v1[x] ** 2 + cert.b1)
                    for x in range(n)
                ),
                "squeeze": max(v0[x] ** 2 - cert.m1 * v1[x] for x in range(n)),
            }
            assert out.residuals == expected

    @pytest.mark.parametrize("field", ["payoff", "terminal"])
    def test_nan_payoff_or_terminal_fails_payoff_bound(self, field):
        model = two_state([0.0, 0.0], [0.0, 0.0])
        if field == "payoff":
            model.payoff[0][0, 0] = np.nan
        else:
            model = replace(model, terminal=np.array([0.0, np.nan]))
        out = check_assumptions(model, unit_cert(), tol=0.0)
        assert out.payoff_bound_ok is False
        assert math.isnan(out.residuals["payoff_bound"])

    def test_nan_generator_fails_drift_checks(self):
        model = two_state([0.0, 0.0], [np.nan, 0.0])
        out = check_assumptions(model, unit_cert(), tol=0.0)
        assert out.drift0_ok is False and out.drift1_ok is False
        assert math.isnan(out.residuals["drift0"]) and math.isnan(out.residuals["drift1"])

    def test_invalid_certificate_rejected(self):
        model = two_state([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(CertificateError):
            check_assumptions(model, unit_cert(v0=np.array([0.5, 1.0])), tol=0.0)
        with pytest.raises(CertificateError):
            check_assumptions(model, unit_cert(rho0=0.0), tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # inf would pass every check and NaN fail them all; -1 fails a residual of exactly 0
        model = two_state([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match=refused_real("tol", tol, "at least 0")):
            check_assumptions(model, unit_cert(), tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["v0", "v1", "rho0", "l0", "m0", "rho1", "b1", "m1"])
    def test_non_finite_certificate_rejected(self, name, bad):
        model = two_state([0.0, 0.0], [0.0, 0.0])
        weights = name in ("v0", "v1")
        value = np.array([1.0, bad]) if weights else bad
        message = "must be finite with" if weights else refused_real(f"certificate constant {name}", bad)
        with pytest.raises(CertificateError, match=message):
            check_assumptions(model, unit_cert(**{name: value}), tol=0.0)


class TestValueBounds:
    def test_closed_form_constant(self):
        # T = 1, theta = 1, m0 -> 0, rho0 -> 0, v0 = 1: L -> e^4
        model = two_state([0.0, 0.0], [0.0, 0.0])
        cert = unit_cert(rho0=1e-12, m0=1e-12)
        cert = check_assumptions(model, cert, tol=1e-6)
        bounds = compute_value_bounds(model, cert)
        np.testing.assert_allclose(bounds.upper / cert.v0, math.exp(4.0), rtol=1e-9)
        assert np.all(bounds.lower <= bounds.upper)
        assert np.all(bounds.lower > 0)

    def test_trivial_value_inside_bounds(self):
        # r = 0, g = 0: the true value is 1
        model = two_state([0.0, 0.0], [0.0, 0.0])
        cert = check_assumptions(model, unit_cert(), tol=0.0)
        bounds = compute_value_bounds(model, cert)
        assert np.all(bounds.lower <= 1.0) and np.all(1.0 <= bounds.upper)

    def test_overflow_reported_not_raised(self):
        model = two_state([0.0, 0.0], [0.0, 0.0], theta=30.0)
        cert = check_assumptions(model, unit_cert(m0=2.0), tol=0.0)
        bounds = compute_value_bounds(model, cert)
        assert not bounds.representable
        assert np.all(np.isinf(bounds.upper))

    def test_requires_passed_checks(self):
        model = two_state([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(CertificateError):
            compute_value_bounds(model, unit_cert())
        failing = check_assumptions(model, unit_cert(v0=np.array([1.0, 1e9]), m1=1e18), tol=0.0)
        failing = replace(failing, payoff_bound_ok=False)
        with pytest.raises(CertificateError):
            compute_value_bounds(model, failing)


class TestCount:
    """The one check of every count, index and level argument."""

    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_integers_are_held_as_python_ints(self, value):
        count = _count(value, "k", 1)
        assert count == 3 and type(count) is int

    @pytest.mark.parametrize("value", [True, np.bool_(False), 3.0, np.float64(3.0), "3", None])
    def test_other_values_are_refused(self, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'k={value!r} is not an integer')}$"):
            _count(value, "k", 1)

    def test_low_bound(self):
        with pytest.raises(ValueError, match="^k must be at least 2, got 1$"):
            _count(np.int64(1), "k", 2)
        assert _count(-5, "k") == -5  # no bound unless one is given
