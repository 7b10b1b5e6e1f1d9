"""Artifact schemas, round trips, determinism, and the CLI surface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ctsg import io as artifacts
from ctsg.cli import dispatch
from ctsg.shapley import PolicyPair, TimeGrid, ValueGrid
from ctsg.solver import SolverConfig, solve

from .conftest import FIXTURES


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

    def test_threads_env_fallback(self, tmp_path, capsys, monkeypatch, two_state_model):
        from ctsg.solver import SolverConfig, solve

        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.1, n_t=8))
        policy_json = tmp_path / "policy.json"
        artifacts.save_policies(policies, two_state_model.state_ids, policy_json)
        monkeypatch.setenv("CTSG_THREADS", "3")
        code = self.run(
            "simulate",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--policy", str(policy_json),
            "--x0", "0", "--paths", "2000", "--seed", "5",
        )
        assert code == 0
        with_env = json.loads(capsys.readouterr().out)
        monkeypatch.delenv("CTSG_THREADS")
        code = self.run(
            "simulate",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--policy", str(policy_json),
            "--x0", "0", "--paths", "2000", "--seed", "5",
        )
        assert code == 0
        without_env = json.loads(capsys.readouterr().out)
        assert with_env == without_env  # thread count never changes results


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
