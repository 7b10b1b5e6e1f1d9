"""Artifact schemas, round trips, determinism, and the CLI surface."""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ctsg
from ctsg import io as artifacts
from ctsg.cli import dispatch
from ctsg.example_games import build_gaussian, build_rps
from ctsg.shapley import PolicyPair, TimeGrid, ValueGrid, apply_gamma
from ctsg.solver import SolverConfig, default_initial_grid, solve
from ctsg.truncation import LadderLevelResult, LadderReport
from .conftest import FIXTURES, lifted_rps8, mixed_shape_model, single_state_model


class TestRoundTrips:
    def test_model(self, tmp_path, two_state_model):
        path = tmp_path / "m.json"
        artifacts.save_model(two_state_model, path)
        loaded = artifacts.load_model(path)
        assert artifacts.model_to_dict(loaded) == artifacts.model_to_dict(two_state_model)

    def test_certificate(self, tmp_path, two_state_cert):
        path = tmp_path / "c.json"
        artifacts.save_certificate(two_state_cert, path)
        loaded = artifacts.load_certificate(path)
        assert artifacts.certificate_to_dict(loaded) == artifacts.certificate_to_dict(two_state_cert)

    def test_value_grid_csv(self, tmp_path):
        grid = ValueGrid(TimeGrid(1.0, 3), np.array([[1.0, 2.0], [0.3, 0.7], [1e-17, 3.0], [1.5, 2.5]]))
        path = tmp_path / "v.csv"
        artifacts.save_value_grid(grid, [0, 1], path)
        loaded, ids = artifacts.load_value_grid(path)
        assert ids == [0, 1]
        assert loaded.grid.n_steps == 3 and loaded.grid.horizon == 1.0
        np.testing.assert_array_equal(loaded.values, grid.values)

    def test_value_grid_csv_matches_csv_module(self):
        values = np.array([[-0.0, 1e-300], [1e300, -2.5], [0.1, -1e-300]])
        grid = ValueGrid(TimeGrid(0.3, 2), values)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "x_id", "value"])
        for t, row in zip(grid.grid.nodes, values):
            for sid, v in zip([7, 3], row):
                writer.writerow([repr(float(t)), sid, repr(float(v))])
        assert artifacts.value_grid_to_csv(grid, [7, 3]) == buf.getvalue()

    def test_ladder_csv_matches_csv_module(self):
        entries = [
            LadderLevelResult(2, True, 5, 1e-6, np.array([-0.0, np.nan, 5e-324]), None),
            LadderLevelResult(4, False, 9, 1e-6, np.array([np.inf, -np.inf, 0.1]), 0.5),
        ]
        report = LadderReport(
            kind="cap", levels=entries, shift=0, monotone_ok=True, monotone_slack=1e-5,
            worst_monotone_violation=0.0, diffs_decreasing=True,
        )
        state_ids = [9, 2, 5]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["level", "x_id", "value_t0"])
        for entry in entries:
            for x, sid in enumerate(state_ids):
                writer.writerow([entry.level, sid, repr(float(entry.values_t0[x]))])
        assert artifacts.ladder_to_csv(report, state_ids) == buf.getvalue()

    def test_policies(self, tmp_path):
        grid = TimeGrid(1.0, 2)
        policies = PolicyPair(
            grid,
            [np.array([[0.25, 0.75]] * 3), np.array([[1.0]] * 3)],
            [np.array([[0.5, 0.5]] * 3), np.array([[0.1, 0.9]] * 3)],
        )
        path = tmp_path / "p.json"
        artifacts.save_policies(policies, [0, 1], path)
        loaded, ids = artifacts.load_policies(path)
        assert ids == [0, 1]
        for x in range(2):
            np.testing.assert_array_equal(loaded.pi1[x], policies.pi1[x])
            np.testing.assert_array_equal(loaded.pi2[x], policies.pi2[x])

    def test_policy_records_schema(self, tmp_path):
        grid = TimeGrid(1.0, 1)
        policies = PolicyPair(grid, [np.array([[1.0]] * 2)], [np.array([[1.0]] * 2)])
        path = tmp_path / "p.json"
        artifacts.save_policies(policies, [7], path)
        payload = json.loads(path.read_text())
        assert set(payload["records"][0]) == {"t_index", "x_id", "pi1", "pi2"}
        assert payload["records"][0]["x_id"] == 7


def _dict_encoded(policies: PolicyPair, state_ids: list[int]) -> str:
    """The policy file as a dict per record run through the json encoder."""
    records = [
        {
            "t_index": i,
            "x_id": int(sid),
            "pi1": policies.pi1[x][i].tolist(),
            "pi2": policies.pi2[x][i].tolist(),
        }
        for i in range(policies.grid.n_steps + 1)
        for x, sid in enumerate(state_ids)
    ]
    payload = {"horizon": policies.grid.horizon, "n_steps": policies.grid.n_steps, "records": records}
    return json.dumps(payload, sort_keys=True) + "\n"


def _solved(model, n_t):
    _, policies, _ = solve(model, SolverConfig(epsilon=1e-3, n_t=n_t))
    return policies, model.state_ids


def _one_sweep(model, n_t):
    _, policies = apply_gamma(model, default_initial_grid(model, n_t))
    return policies, model.state_ids


def _dirichlet_rows():
    rng = np.random.default_rng(5)
    pi1 = [rng.dirichlet(np.ones(3), 65) for _ in range(4)]
    pi2 = [rng.dirichlet(np.ones(2), 65) for _ in range(4)]
    entries = np.concatenate([p.ravel() for p in pi1 + pi2])
    assert np.unique(entries).size == entries.size
    return PolicyPair(TimeGrid(2.5, 64), pi1, pi2), [0, 1, 2, 3]


POLICY_CASES = {
    "rps8": lambda: _solved(build_rps(0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)[0], 32),
    "gaussian16": lambda: _solved(
        build_gaussian(
            sigma=1.0, rate_bound=0.25, payoff_bound=1.0, x_min=-4.0, x_max=4.0,
            n_x=16, theta=1.0, T=1.0,
        )[0],
        16,
    ),
    "mixed_shapes": lambda: _one_sweep(mixed_shape_model(), 8),
    "non_finite_and_signed_zero": lambda: (
        PolicyPair(
            TimeGrid(1.0, 1),
            [np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0, 1e-300]]), np.array([[5e-324], [1.0]])],
            [np.array([[-0.0, 1e308], [0.1, 0.2]]), np.array([[np.nan, -0.0, 0.0], [1e16, 1e-5, 2.0]])],
        ),
        [0, 1],
    ),
    "ids_out_of_order": lambda: (
        PolicyPair(
            TimeGrid(0.3, 2),
            [np.array([[0.25, 0.75]] * 3), np.array([[1.0]] * 3), np.array([[0.5, 0.5]] * 3)],
            [np.array([[1.0]] * 3), np.array([[0.1, 0.2, 0.7]] * 3), np.array([[0.0, 1.0]] * 3)],
        ),
        [9, 2, 5],
    ),
    "one_state_one_step": lambda: (
        PolicyPair(TimeGrid(1.0, 1), [np.array([[1.0], [1.0]])], [np.array([[1.0], [1.0]])]),
        [3],
    ),
    "no_states": lambda: (PolicyPair(TimeGrid(1, 2), [], []), []),
    "dirichlet_all_distinct": _dirichlet_rows,
}


class TestPolicyWriter:
    @pytest.mark.parametrize("case", list(POLICY_CASES))
    def test_bytes_equal_dict_encoder(self, tmp_path, case):
        policies, state_ids = POLICY_CASES[case]()
        path = tmp_path / "p.json"
        artifacts.save_policies(policies, state_ids, path)
        assert path.read_bytes() == _dict_encoded(policies, state_ids).encode()
        loaded, ids = artifacts.load_policies(path)
        assert ids == [int(s) for s in state_ids]
        for got, want in zip(loaded.pi1 + loaded.pi2, policies.pi1 + policies.pi2, strict=True):
            np.testing.assert_array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _policy_payload(model) -> dict:
    _, policies, _ = solve(model, SolverConfig(epsilon=0.1, n_t=8))
    return json.loads(_dict_encoded(policies, model.state_ids))


class TestPolicyLoader:
    def test_records_in_any_order(self, two_state_model):
        payload = _policy_payload(two_state_model)
        expected, _ = artifacts.policies_from_dict(payload)
        payload["records"].sort(key=lambda r: (r["x_id"], -r["t_index"]))
        loaded, ids = artifacts.policies_from_dict(payload)
        assert ids == two_state_model.state_ids
        for got, want in zip(loaded.pi1 + loaded.pi2, expected.pi1 + expected.pi2, strict=True):
            np.testing.assert_array_equal(got, want)


class TestCli:
    def run(self, *argv: str) -> int:
        return dispatch(list(argv))

    def test_check_valid_pair(self, tmp_path, capsys):
        code = self.run(
            "check",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--cert", str(FIXTURES / "two_state_cert.json"),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["generator"]["is_valid"]
        assert payload["certificate"]["drift0_ok"]

    def test_check_invalid_generator_exits_one(self, tmp_path, capsys):
        model = artifacts.load_model(FIXTURES / "two_state_model.json")
        model.generator[0][0, 0, 1] += 0.5  # break conservativity
        bad = tmp_path / "bad.json"
        artifacts.save_model(model, bad)
        code = self.run("check", "--model", str(bad), "--cert", str(FIXTURES / "two_state_cert.json"))
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["generator"]["is_valid"]
        assert payload["generator"]["violations"]

    def test_solve_simulate_round_trip(self, tmp_path, capsys):
        value_csv = tmp_path / "value.csv"
        policy_json = tmp_path / "policy.json"
        report_json = tmp_path / "report.json"
        code = self.run(
            "solve",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--cert", str(FIXTURES / "two_state_cert.json"),
            "--tol", "1e-9",
            "--eps", "0.02",
            "--nt", "64",
            "--out-value", str(value_csv),
            "--out-policy", str(policy_json),
            "--report", str(report_json),
        )
        assert code == 0
        report = json.loads(report_json.read_text())
        assert report["solver"]["converged"]
        assert report["value_bounds"]["value_row_contained"]

        code = self.run(
            "simulate",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--policy", str(policy_json),
            "--x0", "0",
            "--paths", "20000",
            "--seed", "42",
            "--out", str(tmp_path / "estimate.json"),
        )
        assert code == 0
        est = json.loads((tmp_path / "estimate.json").read_text())
        grid, _ = artifacts.load_value_grid(value_csv)
        assert abs(est["mean"] - grid.values[0, 0]) <= 3.0 * est["std_error"]

    def test_solve_failing_certificate_exits_one(self, tmp_path, capsys):
        cert = artifacts.load_certificate(FIXTURES / "two_state_cert.json")
        cert.m0 = 1e-6  # payoff bound now violated by the fixture's payoffs
        bad_cert = tmp_path / "bad_cert.json"
        artifacts.save_certificate(cert, bad_cert)
        code = self.run(
            "solve",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--cert", str(bad_cert),
            "--tol", "1e-9", "--eps", "0.1", "--nt", "8",
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate_checks"]["payoff_bound_ok"] is False

    def test_solve_invalid_model_exits_one(self, tmp_path, capsys):
        model = artifacts.load_model(FIXTURES / "two_state_model.json")
        model.generator[0][0, 0, 1] = -0.2
        bad = tmp_path / "bad.json"
        artifacts.save_model(model, bad)
        code = self.run("solve", "--model", str(bad), "--eps", "0.1", "--nt", "8")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(v["kind"] == "offdiag_negative" for v in payload["violations"])

    def test_solve_unrepresentable_threshold_exits_one(self, tmp_path, capsys):
        # payoff rate 800 over T = 1: the stopping threshold needs e^800
        hot = tmp_path / "hot.json"
        artifacts.save_model(single_state_model(r0=800.0), hot)
        code = self.run("solve", "--model", str(hot), "--nt", "4")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "overflows" in lines[0]

    def test_solve_unreachable_threshold_exits_one(self, tmp_path, capsys):
        # theta K = 100: the threshold lies below the float spacing of the values
        lifted = tmp_path / "lifted.json"
        artifacts.save_model(lifted_rps8(100.0), lifted)
        code = self.run("solve", "--model", str(lifted), "--nt", "32", "--eps", "1e-3")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: stopping threshold ")

    @pytest.mark.parametrize(
        "field, value, extra",
        [
            ("horizon", math.nan, ()),
            ("theta", math.nan, ()),
            ("horizon", math.inf, ()),
            (None, None, ("--eps", "nan")),
            (None, None, ("--eps", "inf")),
        ],
        ids=["nan_horizon", "nan_theta", "inf_horizon", "nan_eps", "inf_eps"],
    )
    def test_solve_non_finite_scalar_exits_one_fast(self, tmp_path, capsys, field, value, extra):
        # a NaN once made the contraction search spin, and --eps nan ran every iteration
        model, _ = build_rps(0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        payload = artifacts.model_to_dict(model)
        if field is not None:
            payload[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))  # writes NaN and Infinity as JSON accepts them
        start = time.perf_counter()
        code = self.run("solve", "--model", str(path), "--nt", "4", *extra)
        assert time.perf_counter() - start < 5.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "finite" in lines[0]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["states"].pop(), "3 state ids for 4 states"),
            (lambda d: d["states"][1].update(id=0), "state id 0 appears more than once"),
        ],
        ids=["one_dropped", "duplicate"],
    )
    def test_solve_state_ids_must_match_the_tensors(self, tmp_path, capsys, edit, message):
        model, _ = build_rps(0.35, x_max=8.0, n_x=4, theta=1.0, T=1.0)
        payload = artifacts.model_to_dict(model)
        edit(payload)
        path, value_csv = tmp_path / "m.json", tmp_path / "v.csv"
        path.write_text(json.dumps(payload))
        code = self.run("solve", "--model", str(path), "--nt", "4", "--out-value", str(value_csv))
        assert code == 1 and not value_csv.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_missing_file_exits_two(self):
        assert self.run("solve", "--model", "/nonexistent.json") == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            self.run("solve", "--bogus")
        assert exc.value.code == 2

    def test_build_example_and_ladder(self, tmp_path, capsys):
        model_json = tmp_path / "rps.json"
        cert_json = tmp_path / "rps_cert.json"
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n_x": 12, "x_max": 4.0, "alpha": 0.3}))
        code = self.run(
            "build-example", "--name", "rps",
            "--params", str(params),
            "--out", str(model_json), "--out-cert", str(cert_json),
        )
        assert code == 0
        capsys.readouterr()
        code = self.run(
            "ladder",
            "--model", str(model_json),
            "--cert", str(cert_json),
            "--levels", "2,3,50",
            "--eps", "0.1",
            "--nt", "12",
            "--out", str(tmp_path / "ladder.csv"),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["monotone_ok"] and summary["shift"] >= 1
        header = (tmp_path / "ladder.csv").read_text().splitlines()[0]
        assert header == "level,x_id,value_t0"

    def test_floor_ladder_on_nonnegative_payoff_is_flat(self, tmp_path, capsys):
        # every floor is inactive on gaussian64, so the three levels are one model
        model_json, cert_json = tmp_path / "g.json", tmp_path / "g_cert.json"
        code = self.run(
            "build-example", "--name", "gaussian", "--out", str(model_json), "--out-cert", str(cert_json)
        )
        assert code == 0
        capsys.readouterr()
        code = self.run(
            "ladder", "--model", str(model_json), "--cert", str(cert_json),
            "--kind", "floor", "--levels", "1,2,3", "--nt", "32",
        )
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["worst_monotone_violation"] == 0.0
        assert [e["sup_diff_prev"] for e in summary["levels"]] == [None, 0.0, 0.0]

    @pytest.mark.parametrize("kind", ["cap", "floor"])
    def test_ladder_level_below_one_exits_one(self, tmp_path, capsys, kind):
        # a floor at level -3 would lift every payoff to +3; both kinds refuse it up front
        model_json, cert_json = tmp_path / "g.json", tmp_path / "g_cert.json"
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"n_x": 8}))
        code = self.run(
            "build-example", "--name", "gaussian", "--params", str(params),
            "--out", str(model_json), "--out-cert", str(cert_json),
        )
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "ladder.csv"
        code = self.run(
            "ladder", "--model", str(model_json), "--cert", str(cert_json),
            "--kind", kind, "--levels=-3,0,2", "--nt", "8", "--out", str(out),
        )
        assert code == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: truncation level must be a positive integer"]

    def test_ladder_invalid_model_exits_one(self, tmp_path, capsys):
        model = artifacts.load_model(FIXTURES / "two_state_model.json")
        model.generator[0][0, 0, 1] += 0.5  # break conservativity
        bad = tmp_path / "bad.json"
        artifacts.save_model(model, bad)
        out = tmp_path / "ladder.csv"
        code = self.run(
            "ladder", "--model", str(bad), "--cert", str(FIXTURES / "two_state_cert.json"),
            "--levels", "1,2", "--out", str(out),
        )
        assert code == 1 and not out.exists()
        payload = json.loads(capsys.readouterr().out)
        assert not payload["is_valid"]
        assert [v["kind"] for v in payload["violations"]] == ["not_conservative"]

    @pytest.mark.parametrize("levels", ["", "2,,4", "2,4,"])
    def test_ladder_empty_level_field_exits_one(self, capsys, levels):
        code = self.run(
            "ladder",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--cert", str(FIXTURES / "two_state_cert.json"),
            "--levels", levels,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --levels {levels!r} has an empty field\n"

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"nx": 8}, "unknown rps parameters ['nx']"),
            ([8], "--params must hold a JSON object, not list"),
            ({"n_x": "8"}, "parameter n_x must be int, got '8'"),
            ({"alpha": True}, "parameter alpha must be float, got True"),
            ({"n_x": 8.5}, "parameter n_x must be int, got 8.5"),
        ],
        ids=["unknown_key", "list", "string", "bool", "fractional_count"],
    )
    def test_build_example_bad_params_exit_one(self, tmp_path, capsys, params, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "m.json"
        code = self.run("build-example", "--name", "rps", "--params", str(path), "--out", str(out))
        assert code == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}")

    def test_matrix_game_subcommand(self, tmp_path, capsys):
        csv_path = tmp_path / "C.csv"
        csv_path.write_text("3,1\n0,2\n")
        assert self.run("matrix-game", "--csv", str(csv_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1.5)
        assert payload["strategy_p2"] == pytest.approx([0.25, 0.75])

    def simulate_fails(self, capsys, policy_json, x0: str) -> str:
        code = self.run(
            "simulate",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--policy", str(policy_json),
            "--x0", x0, "--paths", "100",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    @pytest.mark.parametrize("x0", ["-1", "2"])
    def test_simulate_x0_outside_states_exits_one(self, tmp_path, capsys, two_state_model, x0):
        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.1, n_t=8))
        policy_json = tmp_path / "policy.json"
        artifacts.save_policies(policies, two_state_model.state_ids, policy_json)
        assert f"x0={x0}" in self.simulate_fails(capsys, policy_json, x0)

    def test_simulate_policy_state_order_mismatch_exits_one(
        self, tmp_path, capsys, two_state_model
    ):
        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.1, n_t=8))
        policy_json = tmp_path / "policy.json"
        artifacts.save_policies(policies, [1, 0], policy_json)
        assert "covers states [1, 0]" in self.simulate_fails(capsys, policy_json, "0")

    @pytest.mark.parametrize("entries", [[1.2, -0.2], [0.9, 0.2]])
    def test_simulate_policy_row_not_probability_exits_one(
        self, tmp_path, capsys, two_state_model, entries
    ):
        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.1, n_t=8))
        policies.pi1[1][3] = entries
        policy_json = tmp_path / "policy.json"
        artifacts.save_policies(policies, two_state_model.state_ids, policy_json)
        line = self.simulate_fails(capsys, policy_json, "0")
        assert "pi1 at state 1, row 3 is not a probability vector" in line

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (
                lambda p: p["records"].pop(11),
                "no record for state 1 at t_index 5",
            ),
            (
                lambda p: p.update(n_steps=p["n_steps"] - 1),
                "record for state 0 at t_index 8, outside 0..n_steps = 7",
            ),
            (
                lambda p: p["records"].append(dict(p["records"][7])),
                "two records for state 1 at t_index 3",
            ),
        ],
        ids=["missing", "n_steps_one_short", "duplicate"],
    )
    def test_simulate_malformed_policy_file_exits_one(
        self, tmp_path, capsys, two_state_model, edit, message
    ):
        payload = _policy_payload(two_state_model)
        edit(payload)
        policy_json = tmp_path / "policy.json"
        policy_json.write_text(json.dumps(payload))
        assert message in self.simulate_fails(capsys, policy_json, "0")

    def test_solve_verbose_logs_each_artifact(self, tmp_path, caplog):
        paths = [tmp_path / "value.csv", tmp_path / "policy.json", tmp_path / "report.json"]
        with caplog.at_level(logging.INFO, logger="ctsg.cli"):
            code = self.run(
                "--verbose", "solve",
                "--model", str(FIXTURES / "two_state_model.json"),
                "--eps", "0.1", "--nt", "8",
                "--out-value", str(paths[0]),
                "--out-policy", str(paths[1]),
                "--report", str(paths[2]),
            )
        assert code == 0
        records = [r for r in caplog.records if r.name == "ctsg.cli"]
        assert [r.args[0] for r in records] == [str(p) for p in paths]
        for record, path in zip(records, paths):
            # %-style arguments: nothing is formatted unless INFO is on
            assert record.levelno == logging.INFO and record.msg == "wrote %s: %d bytes in %.4f s"
            assert record.args[1] == path.stat().st_size > 0 and record.args[2] >= 0.0

    def test_simulate_overflowing_estimate_exits_one(self, tmp_path, capsys):
        # payoff rate 800 over T = 1: every path's functional is e^800
        hot = tmp_path / "hot.json"
        model = single_state_model(r0=800.0)
        artifacts.save_model(model, hot)
        policy_json = tmp_path / "policy.json"
        grid = TimeGrid(1.0, 4)
        policies = PolicyPair(grid, [np.ones((5, 1))], [np.ones((5, 1))])
        artifacts.save_policies(policies, model.state_ids, policy_json)
        code = self.run(
            "simulate", "--model", str(hot), "--policy", str(policy_json), "--x0", "0",
            "--paths", "10",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "overflows" in lines[0]

    def test_simulate_invalid_model_exits_one(self, tmp_path, capsys, two_state_model):
        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.1, n_t=8))
        policy_json = tmp_path / "policy.json"
        artifacts.save_policies(policies, two_state_model.state_ids, policy_json)
        model = artifacts.load_model(FIXTURES / "two_state_model.json")
        model.payoff[0][1, 0] = np.nan
        bad = tmp_path / "bad.json"
        artifacts.save_model(model, bad)
        code = self.run("simulate", "--model", str(bad), "--policy", str(policy_json), "--x0", "0")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [(v["kind"], v["x"], v["a"], v["b"]) for v in payload["violations"]] == [
            ("not_finite", 0, 1, 0)
        ]

    def _simulate_two_state(self, tmp_path, two_state_model, *extra: str) -> int:
        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.1, n_t=8))
        policy_json = tmp_path / "policy.json"
        artifacts.save_policies(policies, two_state_model.state_ids, policy_json)
        return self.run(
            "simulate",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--policy", str(policy_json),
            "--x0", "0", "--paths", "2000", "--seed", "5", *extra,
        )

    def test_simulate_threads_below_one_exits_one(self, tmp_path, capsys, two_state_model):
        code = self._simulate_two_state(tmp_path, two_state_model, "--threads", "0")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: threads must be at least 1, got 0"]

    def test_simulate_ignores_threads_environment(self, tmp_path, capsys, monkeypatch, two_state_model):
        monkeypatch.setenv("CTSG_THREADS", "abc")
        assert self._simulate_two_state(tmp_path, two_state_model) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("CTSG_THREADS")
        assert self._simulate_two_state(tmp_path, two_state_model) == 0
        assert with_env == capsys.readouterr().out

    @pytest.mark.parametrize("command", ["ladder", "check"])
    def test_non_finite_certificate_weight_exits_one(self, tmp_path, capsys, command):
        cert = json.loads((FIXTURES / "two_state_cert.json").read_text())
        cert["v0"][1] = float("nan")
        bad = tmp_path / "cert.json"
        bad.write_text(json.dumps(cert))
        extra = ["--levels", "2,4", "--nt", "8"] if command == "ladder" else []
        code = self.run(
            command, "--model", str(FIXTURES / "two_state_model.json"), "--cert", str(bad), *extra
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: v0 must be finite with v0(x) >= 1 everywhere"]

    @pytest.mark.parametrize(
        "v0, message",
        [
            ([1.0], "error: certificate weights must have shape (8,), got v0 (1,), v1 (8,)"),
            ([float("nan")] + [1.0] * 7, "error: v0 must be finite with v0(x) >= 1 everywhere"),
        ],
        ids=["one-entry", "nan"],
    )
    def test_floor_ladder_checks_the_certificate(self, tmp_path, capsys, v0, message):
        # the floor ladder reads no weight, but a certificate that does not fit the model is refused
        model, cert = build_rps(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        model_json, cert_json = tmp_path / "m.json", tmp_path / "c.json"
        artifacts.save_model(model, model_json)
        artifacts.save_certificate(cert, cert_json)
        payload = json.loads(cert_json.read_text())
        payload["v0"] = v0
        cert_json.write_text(json.dumps(payload))
        code = self.run(
            "ladder", "--kind", "floor", "--model", str(model_json), "--cert", str(cert_json),
            "--levels", "2,4", "--nt", "8",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_solve_with_overflowing_rate_factor_bounds(self, tmp_path, capsys):
        # e^{rho0 T} overflows at rho0 = 1000, which passes every certificate check
        model, cert = build_rps(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        cert.rho0 = 1000.0
        model_json, cert_json, report = tmp_path / "m.json", tmp_path / "c.json", tmp_path / "r.json"
        artifacts.save_model(model, model_json)
        artifacts.save_certificate(cert, cert_json)
        code = self.run(
            "solve", "--model", str(model_json), "--cert", str(cert_json),
            "--nt", "16", "--report", str(report),
        )
        assert code == 0
        bounds = json.loads(report.read_text())["value_bounds"]
        assert bounds["lower"] == [0.0] * 8 and not bounds["representable"]
        assert bounds["value_row_contained"] is True


def test_python_dash_m_runs_the_cli():
    src = Path(ctsg.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "ctsg", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ctsg")


class TestDeterminism:
    def test_solve_outputs_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            value_csv = tmp_path / f"value_{tag}.csv"
            policy_json = tmp_path / f"policy_{tag}.json"
            code = dispatch([
                "solve",
                "--model", str(FIXTURES / "two_state_model.json"),
                "--eps", "0.05", "--nt", "32",
                "--out-value", str(value_csv),
                "--out-policy", str(policy_json),
            ])
            assert code == 0
            outs.append((value_csv.read_bytes(), policy_json.read_bytes()))
        assert outs[0] == outs[1]

    def test_simulate_output_byte_identical(self, tmp_path, two_state_model):
        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=16))
        policy_json = tmp_path / "policy.json"
        artifacts.save_policies(policies, two_state_model.state_ids, policy_json)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"est_{tag}.json"
            code = dispatch([
                "simulate",
                "--model", str(FIXTURES / "two_state_model.json"),
                "--policy", str(policy_json),
                "--x0", "1", "--paths", "5000", "--seed", "11",
                "--out", str(out),
            ])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_check_tolerance_nonnegative_residual_view(self, capsys):
        code = dispatch([
            "check",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--cert", str(FIXTURES / "two_state_cert.json"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["certificate"]["residuals"]) == {
            "drift0", "rate_bound", "payoff_bound", "drift1", "squeeze",
        }
