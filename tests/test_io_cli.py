"""Artifact schemas, round trips, determinism, and the CLI surface."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ctsg
from ctsg import io as artifacts
from ctsg.cli import build_parser, dispatch
from ctsg.example_games import build_gaussian, build_rps
from ctsg.model import CERTIFICATE_CONSTANTS, GameModel
from ctsg.shapley import PolicyPair, TimeGrid, ValueGrid, apply_gamma
from ctsg.solver import SolverConfig, default_initial_grid, solve
from ctsg.truncation import LadderLevelResult, LadderReport
from .conftest import FIXTURES, lifted_rps8, mixed_shape_model, random_bounded_model, single_state_model


def _model_dict(model: GameModel) -> dict:
    """The model file's JSON object, built as nested lists: the oracle of the model writer."""
    states = []
    for i, sid in enumerate(model.state_ids):
        entry = {"id": int(sid)}
        if model.coords is not None:
            entry["coord"] = float(model.coords[i])
        states.append(entry)
    return {
        "states": states,
        "actions_p1": [list(map(int, a)) for a in model.actions_p1],
        "actions_p2": [list(map(int, b)) for b in model.actions_p2],
        "payoff": [m.tolist() for m in model.payoff],
        "generator": [g.tolist() for g in model.generator],
        "terminal": model.terminal.tolist(),
        "theta": float(model.theta),
        "horizon": float(model.horizon),
    }


class TestRoundTrips:
    def test_model(self, tmp_path, two_state_model):
        path = tmp_path / "m.json"
        artifacts.save_model(two_state_model, path)
        loaded = artifacts.load_model(path)
        assert _model_dict(loaded) == _model_dict(two_state_model)

    def test_certificate(self, tmp_path, two_state_cert):
        path = tmp_path / "c.json"
        artifacts.save_certificate(two_state_cert, path)
        loaded = artifacts.load_certificate(path)
        assert artifacts.certificate_to_dict(loaded) == artifacts.certificate_to_dict(two_state_cert)

    def test_certificate_constants_by_name(self, two_state_cert):
        distinct = {name: 1.5 + i for i, name in enumerate(CERTIFICATE_CONSTANTS)}
        d = artifacts.certificate_to_dict(replace(two_state_cert, **distinct))
        assert set(d) == {"v0", "v1", *CERTIFICATE_CONSTANTS}
        loaded = artifacts.certificate_from_dict(json.loads(json.dumps(d)))
        assert {name: getattr(loaded, name) for name in CERTIFICATE_CONSTANTS} == distinct

    def test_value_grid_csv(self, tmp_path):
        grid = ValueGrid(TimeGrid(1.0, 3), np.array([[1.0, 2.0], [0.3, 0.7], [1e-17, 3.0], [1.5, 2.5]]))
        path = tmp_path / "v.csv"
        artifacts.save_value_grid(grid, [0, 1], path)
        loaded, ids = artifacts.load_value_grid(path)
        assert ids == [0, 1]
        assert loaded.grid.n_steps == 3 and loaded.grid.horizon == 1.0
        np.testing.assert_array_equal(loaded.values, grid.values)

    def test_value_grid_csv_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("t,state,value\n0.0,0,1.0\n1.0,0,1.0\n")
        with pytest.raises(ValueError, match=r"unexpected value-grid header \['t', 'state', 'value'\]"):
            artifacts.load_value_grid(path)

    @pytest.fixture
    def rps4_value_lines(self, tmp_path):
        model, _ = build_rps(0.35, x_max=8.0, n_x=4, theta=1.0, T=1.0)
        value, _, _ = solve(model, SolverConfig(epsilon=1e-3, n_t=4))
        path = tmp_path / "v.csv"
        artifacts.save_value_grid(value, model.state_ids, path)
        return path.read_text().splitlines()

    def check_value_csv_refused(self, tmp_path, lines, message):
        path = tmp_path / "bad.csv"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            artifacts.load_value_grid(path)

    def test_value_grid_csv_cut_short_is_refused(self, tmp_path, rps4_value_lines):
        # the last row once read [1.0, 1.768, 0.0, 0.0], its end taken from np.empty
        lines = rps4_value_lines
        assert len(lines) == 21 and lines[-2].startswith("1.0,2,")
        message = "line 20: the end of the file, where the grid needs t=1.0, x_id 2"
        self.check_value_csv_refused(tmp_path, lines[:-2], message)

    def test_value_grid_csv_with_a_node_out_of_order_is_refused(self, tmp_path, rps4_value_lines):
        lines = list(rps4_value_lines)
        lines[6], lines[7] = lines[7], lines[6]  # ids 1 and 2 of the node t = 0.25
        message = "line 7: t=0.25, x_id 2, where the grid needs t=0.25, x_id 1"
        self.check_value_csv_refused(tmp_path, lines, message)

    def test_value_grid_csv_with_a_short_node_is_refused(self, tmp_path, rps4_value_lines):
        lines = rps4_value_lines[:8] + rps4_value_lines[9:]  # the node t = 0.25 loses its last id
        message = "line 9: t=0.5, x_id 0, where the grid needs t=0.25, x_id 3"
        self.check_value_csv_refused(tmp_path, lines, message)

    @pytest.mark.parametrize(
        "node, t", [(0, "0.1"), (1, "0.3"), (3, "0.7500000000000001")], ids=["first", "interior", "one_ulp"]
    )
    def test_value_grid_csv_with_a_node_time_off_the_grid_is_refused(
        self, tmp_path, rps4_value_lines, node, t
    ):
        # the node's four rows move together, so only the uniform grid can tell
        lines = list(rps4_value_lines)
        want = ["0.0", "0.25", "0.5", "0.75"][node]
        for k in range(1 + 4 * node, 5 + 4 * node):
            assert lines[k].startswith(f"{want},")
            lines[k] = t + lines[k][len(want):]
        message = f"line {4 * node + 2}: t={t}, x_id 0, where the grid needs t={want}, x_id 0"
        self.check_value_csv_refused(tmp_path, lines, message)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([], "no rows"),
            (["t,x_id,value"], "no rows after the header on line 1"),
            (["t,x_id,value", "0.0,0,1.0", "0.0,1"], "line 3: not enough values to unpack (expected 3, got 2)"),
            (["t,x_id,value", "0.0,0.5,1.0"], "line 2: invalid literal for int() with base 10: '0.5'"),
            (["t,x_id,value", "1.0,0,1.0", "1.0,1,1.0"], "n_steps must be at least 1, got 0"),
            (
                ["t,x_id,value", "0.0,0,1.0", "0.0,0,2.0", "1.0,0,3.0", "1.0,0,4.0"],
                "state id 0 appears more than once",
            ),
        ],
        ids=["empty", "header_only", "two_fields", "float_id", "one_node", "repeated_id"],
    )
    def test_value_grid_csv_without_a_grid_is_refused(self, tmp_path, lines, message):
        self.check_value_csv_refused(tmp_path, lines, message)

    def test_policies_of_a_numpy_n_t_round_trip(self, tmp_path, two_state_model):
        # np.int64(4) once ran and then failed to write: int64 is not JSON serializable
        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.05, n_t=np.int64(4)))
        path = tmp_path / "p.json"
        artifacts.save_policies(policies, two_state_model.state_ids, path)
        loaded, ids = artifacts.load_policies(path)
        assert json.loads(path.read_text())["n_steps"] == 4
        assert ids == list(two_state_model.state_ids)
        assert loaded.grid == policies.grid and type(policies.grid.n_steps) is int
        for got, want in zip([*loaded.pi1, *loaded.pi2], [*policies.pi1, *policies.pi2], strict=True):
            np.testing.assert_array_equal(got, want)

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

    @staticmethod
    def write_eight_states(writer: str, state_ids: list, path: Path) -> None:
        grid = TimeGrid(1.0, 4)
        if writer == "value_grid":
            artifacts.save_value_grid(ValueGrid(grid, np.ones((5, 8))), state_ids, path)
        elif writer == "ladder":
            level = LadderLevelResult(2, True, 5, 1e-6, np.ones(8), None)
            report = LadderReport(
                kind="cap", levels=[level], shift=0, monotone_ok=True, monotone_slack=1e-5,
                worst_monotone_violation=0.0, diffs_decreasing=True,
            )
            artifacts.ladder_to_csv(report, state_ids)
        else:
            rows = [np.full((5, 3), 1.0 / 3.0)] * 8
            artifacts.save_policies(PolicyPair(grid, rows, rows), state_ids, path)

    @pytest.mark.parametrize("writer", ["value_grid", "ladder", "policies"])
    @pytest.mark.parametrize("state_ids", [[0, 1], [0, 1, 2, 3, 4, 5, 6, 7, 8]])
    def test_writers_refuse_state_ids_that_do_not_cover_the_states(self, tmp_path, writer, state_ids):
        # 8 states against 2 or 9 ids: no state may be dropped or misnamed silently
        path = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^{len(state_ids)} state ids for 8 states$"):
            self.write_eight_states(writer, state_ids, path)
        assert not path.exists()

    @pytest.mark.parametrize("writer", ["value_grid", "ladder", "policies"])
    @pytest.mark.parametrize(
        "state_ids, message",
        [
            ([0, 0, 1, 2, 3, 4, 5, 6], "state id 0 appears more than once"),
            ([0.5, 1, 2, 3, 4, 5, 6, 7], "state_ids[0]=0.5 is not an integer"),
            ([0, True, 2, 3, 4, 5, 6, 7], "state_ids[1]=True is not an integer"),
        ],
        ids=["repeated", "fractional", "bool"],
    )
    def test_writers_keep_the_models_id_rule(self, tmp_path, writer, state_ids, message):
        # save_policies(p, [0, 0, 1, 2]) once wrote a file that load_policies refused
        path = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.write_eight_states(writer, state_ids, path)
        assert not path.exists()

    def test_policy_rows_over_no_action_are_refused(self, tmp_path):
        # such a pair once wrote "pi1": [] rows, which read back
        grid = TimeGrid(1.0, 1)
        with pytest.raises(ValueError, match="^pi2 of state 1 has rows over no action$"):
            PolicyPair(grid, [np.ones((2, 1)), np.ones((2, 1))], [np.ones((2, 1)), np.ones((2, 0))])
        path = tmp_path / "p.json"
        artifacts.save_policies(PolicyPair(grid, [np.ones((2, 1))], [np.ones((2, 1))]), [0], path)
        path.write_text(path.read_text().replace('"pi1": [1.0]', '"pi1": []'))
        message = f"{path}: pi1 of state 0 has rows over no action"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            artifacts.load_policies(path)

    @pytest.mark.parametrize("n_rows", [10, 4])
    def test_save_policies_refuses_a_state_without_n_steps_plus_one_rows(self, tmp_path, n_rows):
        grid = TimeGrid(1.0, 4)
        pi1 = [np.full((5, 2), 0.5), np.full((n_rows, 3), 1.0 / 3.0)]
        path = tmp_path / "p.json"
        # the pair refuses such a state when it is built, naming its index, so none reaches the writer
        message = f"pi1 of state 1 has shape ({n_rows}, 3), not n_steps + 1 = 5 rows"
        with pytest.raises(ValueError, match=re.escape(message)):
            artifacts.save_policies(PolicyPair(grid, pi1, [np.ones((5, 1))] * 2), [7, 9], path)
        assert not path.exists()


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
    "rows_differ_by_a_signed_zero": lambda: (
        PolicyPair(
            TimeGrid(1.0, 2),
            [np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]), np.array([[-0.0, 1.0]] * 3)],
            [np.array([[1.0, -0.0]] * 3), np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0]])],
        ),
        [0, 1],
    ),
    # two interleaved shape groups, whose rows are 2 and 3 wide, hold the same floats
    "equal_floats_in_groups_of_two_widths": lambda: (
        PolicyPair(
            TimeGrid(1.0, 1),
            [np.array([[0.5, 0.5]] * 2), np.array([[0.5, 0.5, 0.0]] * 2), np.array([[0.5, 0.5]] * 2)],
            [np.array([[0.5, 0.5, 0.0]] * 2), np.array([[0.5, 0.5]] * 2), np.array([[0.0, 0.5, 0.5]] * 2)],
        ),
        [4, 5, 6],
    ),
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


    def test_mixed_shapes_read_back_as_the_same_stacks(self, tmp_path):
        policies, state_ids = _one_sweep(mixed_shape_model(), 8)
        path = tmp_path / "p.json"
        artifacts.save_policies(policies, state_ids, path)
        loaded, _ = artifacts.load_policies(path)
        assert len(loaded._stacks) == 5  # 1x3, 3x1, 2x2, 2x3 and 1x1
        for got, want in zip(loaded._stacks, policies._stacks, strict=True):
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert all(p.flags.c_contiguous for p in (*got[1:], *want[1:]))


def _special_floats_model() -> GameModel:
    """Two states with NaN, infinities, signed zeros and the smallest subnormal in every tensor."""
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
    return GameModel(
        actions_p1=[[0, 1], [0]],
        actions_p2=[[0, 1, 2], [0]],
        payoff=[np.reshape(special, (2, 3)), np.array([[-5e-324]])],
        generator=[np.reshape(special * 2, (2, 3, 2)), np.array([[[-0.0, np.nan]]])],
        terminal=np.array([-0.0, 5e-324]),
        theta=0.5,
        horizon=2.0,
        coords=np.array([-0.0, np.inf]),
    )


def _signed_zero_rows_model() -> GameModel:
    """Generator and payoff rows that differ only by the sign of one zero."""
    return GameModel(
        actions_p1=[[0, 1], [0, 1]],
        actions_p2=[[0], [0]],
        payoff=[np.array([[0.0], [-0.0]]), np.array([[-0.0], [0.0]])],
        generator=[
            np.array([[[0.0, 0.0]], [[-0.0, 0.0]]]),
            np.array([[[1.0, -1.0]], [[1.0, -1.0]]]),
        ],
        terminal=np.array([0.0, -0.0]),
        theta=1.0,
        horizon=1.0,
    )


def _no_repeated_rows_model() -> GameModel:
    model = random_bounded_model(np.random.default_rng(3), n_states=6, n_actions=3)
    for stack in (model._shape_groups[0].generator, model._shape_groups[0].payoff):
        rows = stack.reshape(-1, stack.shape[-1])
        assert np.unique(rows, axis=0).shape == rows.shape
    return model


MODEL_CASES = {
    "rps8": lambda: build_rps(0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)[0],
    "gaussian8": lambda: build_gaussian(
        sigma=1.0, rate_bound=0.25, payoff_bound=1.0, x_min=-4.0, x_max=4.0, n_x=8, theta=1.0, T=1.0
    )[0],
    "mixed_shapes": mixed_shape_model,
    "non_finite_signed_zero_and_subnormal": _special_floats_model,
    "rows_differ_by_a_signed_zero": _signed_zero_rows_model,
    "no_coords_ids_out_of_order": lambda: replace(mixed_shape_model(), state_ids=[9, 2, 5, 40, 0, 7]),
    "one_state": lambda: single_state_model(r0=0.25, g0=-1.5),
    "no_repeated_rows": _no_repeated_rows_model,
}


class TestModelWriter:
    @pytest.mark.parametrize("case", list(MODEL_CASES))
    def test_bytes_equal_dict_encoder(self, tmp_path, case):
        model = MODEL_CASES[case]()
        path = tmp_path / "m.json"
        artifacts.save_model(model, path)
        assert path.read_bytes() == (json.dumps(_model_dict(model), sort_keys=True) + "\n").encode()
        loaded = artifacts.load_model(path)
        assert loaded.state_ids == tuple(int(s) for s in model.state_ids)
        assert (loaded.actions_p1, loaded.actions_p2) == (model.actions_p1, model.actions_p2)
        assert (loaded.theta, loaded.horizon) == (model.theta, model.horizon)
        got, want = (
            [*m.payoff, *m.generator, m.terminal, *([] if m.coords is None else [m.coords])]
            for m in (loaded, model)
        )
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)
            assert a.shape == b.shape and np.array_equal(np.signbit(a), np.signbit(b))


def _policy_payload(model) -> dict:
    _, policies, _ = solve(model, SolverConfig(epsilon=0.1, n_t=8))
    return json.loads(_dict_encoded(policies, model.state_ids))


class TestPolicyLoader:
    def test_records_in_any_order(self, two_state_model):
        payload = _policy_payload(two_state_model)
        expected, _ = artifacts.policies_from_dict(payload)
        payload["records"].sort(key=lambda r: (r["x_id"], -r["t_index"]))
        loaded, ids = artifacts.policies_from_dict(payload)
        assert ids == list(two_state_model.state_ids)
        for got, want in zip(loaded.pi1 + loaded.pi2, expected.pi1 + expected.pi2, strict=True):
            np.testing.assert_array_equal(got, want)


# case: (artifact, edit of a valid artifact's JSON object, error after the file name, exit code)
MALFORMED_ARTIFACTS = {
    **{
        f"{artifact}-{kind}": (
            artifact,
            lambda d, top=top: top,
            f"the top level must be a JSON object, not {type(top).__name__}",
            2,
        )
        for artifact in ("model", "cert", "policy")
        for kind, top in (("array", [1, 2]), ("string", "x"))
    },
    "model-states-not-objects": (
        "model",
        lambda d: {**d, "states": [1] * len(d["states"])},
        "a field has the wrong JSON type: argument of type 'int' is not iterable",
        2,
    ),
    "model-payoff-null": (
        "model",
        lambda d: {**d, "payoff": None},
        "a field has the wrong JSON type: 'NoneType' object is not iterable",
        2,
    ),
    "cert-v0-object": (
        "cert",
        lambda d: {**d, "v0": {"a": 1}},
        "a field has the wrong JSON type: "
        "float() argument must be a string or a real number, not 'dict'",
        2,
    ),
    "policy-record-array": (
        "policy",
        lambda d: {**d, "records": [[1], *d["records"][1:]]},
        "a field has the wrong JSON type: list indices must be integers or slices, not str",
        2,
    ),
    "policy-records-null": (
        "policy",
        lambda d: {**d, "records": None},
        "a field has the wrong JSON type: 'NoneType' object is not iterable",
        2,
    ),
    "model-states-missing": (
        "model",
        lambda d: {k: v for k, v in d.items() if k != "states"},
        "missing field 'states'",
        2,
    ),
    "model-coord-on-some-states": (
        "model",
        lambda d: {**d, "states": [d["states"][0], *({**s, "coord": 1.0} for s in d["states"][1:])]},
        "states[0] has no coord, but states[1] has one",
        2,
    ),
    "cert-rho0-missing": (
        "cert",
        lambda d: {k: v for k, v in d.items() if k != "rho0"},
        "missing field 'rho0'",
        2,
    ),
    "model-terminal-ragged": (
        "model",
        lambda d: {**d, "terminal": [[1.0, 2.0], [3.0]]},
        "terminal is not an array of numbers: setting an array element with a sequence. "
        "The requested array has an inhomogeneous shape after 1 dimensions. "
        "The detected shape was (2,) + inhomogeneous part.",
        1,
    ),
    "model-payoff-ragged": (
        "model",
        lambda d: {**d, "payoff": [[[1.0, 2.0], [3.0]], *d["payoff"][1:]]},
        "payoff[0] is not an array of numbers: setting an array element with a sequence. "
        "The requested array has an inhomogeneous shape after 1 dimensions. "
        "The detected shape was (2,) + inhomogeneous part.",
        1,
    ),
    "cert-v0-strings": (
        "cert",
        lambda d: {**d, "v0": ["a"] * len(d["v0"])},
        "v0 is not an array of numbers: could not convert string to float: 'a'",
        1,
    ),
    "cert-v0-numeric-strings": (
        "cert",
        lambda d: {**d, "v0": [repr(v) for v in d["v0"]]},
        "v0 is not an array of numbers: it holds a string",
        1,
    ),
    "model-terminal-bool": (
        "model",
        lambda d: {**d, "terminal": [True, 2.5]},
        "terminal is not an array of numbers: it holds a boolean",
        1,
    ),
    "model-terminal-null": (
        "model",
        lambda d: {**d, "terminal": [None, 1.0]},
        "terminal is not an array of numbers: it holds null",
        1,
    ),
    "model-payoff-mixed-bool": (
        "model",
        lambda d: {**d, "payoff": [[[1.1, False], [0.5, 0.9]], *d["payoff"][1:]]},
        "payoff[0] is not an array of numbers: it holds a boolean",
        1,
    ),
    "model-state-id-fractional": (
        "model",
        lambda d: {**d, "states": [{"id": 7.9}, *d["states"][1:]]},
        "states[0].id=7.9 is not an integer",
        1,
    ),
    "model-state-id-bool": (
        "model",
        lambda d: {**d, "states": [{"id": True}, *d["states"][1:]]},
        "states[0].id=True is not an integer",
        1,
    ),
    "model-terminal-scalar": (
        "model",
        lambda d: {**d, "terminal": 5},
        "terminal must have shape (2,), got ()",
        1,
    ),
    "model-state-id-string-second": (
        "model",
        lambda d: {**d, "states": [d["states"][0], {"id": "1"}]},
        "states[1].id='1' is not an integer",
        1,
    ),
    "policy-x_id-fractional-sixth": (
        "policy",
        lambda d: {**d, "records": [*d["records"][:5], {**d["records"][5], "x_id": 1.5}, *d["records"][6:]]},
        "records[5].x_id=1.5 is not an integer",
        1,
    ),
    "policy-x_id-string": (
        "policy",
        lambda d: {**d, "records": [{**d["records"][0], "x_id": "0"}, *d["records"][1:]]},
        "records[0].x_id='0' is not an integer",
        1,
    ),
    "policy-t_index-fractional": (
        "policy",
        lambda d: {**d, "records": [{**d["records"][0], "t_index": 5.5}, *d["records"][1:]]},
        "records[0].t_index=5.5 is not an integer",
        1,
    ),
    "policy-pi1-over-no-action": (
        "policy",
        lambda d: {**d, "records": [{**r, "pi1": []} if r["x_id"] == 0 else r for r in d["records"]]},
        "pi1 of state 0 has rows over no action",
        1,
    ),
    "policy-horizon-bool": (
        "policy",
        lambda d: {**d, "horizon": True},
        "horizon=True is not a finite real number",
        1,
    ),
    "model-theta-string": (
        "model",
        lambda d: {**d, "theta": "1.0"},
        "theta='1.0' is not a finite real number",
        1,
    ),
    "policy-pi1-missing-eighth": (
        "policy",
        lambda d: {
            **d,
            "records": [
                *d["records"][:7],
                {k: v for k, v in d["records"][7].items() if k != "pi1"},
                *d["records"][8:],
            ],
        },
        "missing field 'pi1' in records[7] (state 1, t_index 3)",
        2,
    ),
    "policy-pi1-short-eighth": (
        "policy",
        lambda d: {**d, "records": [*d["records"][:7], {**d["records"][7], "pi1": [1.0]}, *d["records"][8:]]},
        "pi1 of records[7] (state 1, t_index 3) is not a list of 2 numbers: [1.0]",
        1,
    ),
    "policy-pi1-lists-eighth": (
        "policy",
        lambda d: {
            **d,
            "records": [*d["records"][:7], {**d["records"][7], "pi1": [[1.0], [0.0]]}, *d["records"][8:]],
        },
        "pi1 of records[7] (state 1, t_index 3) is not a list of 2 numbers: [[1.0], [0.0]]",
        1,
    ),
}


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
        cert = replace(cert, m0=1e-6)  # payoff bound now violated by the fixture's payoffs
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
        payload = _model_dict(model)
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
        payload = _model_dict(model)
        edit(payload)
        path, value_csv = tmp_path / "m.json", tmp_path / "v.csv"
        path.write_text(json.dumps(payload))
        code = self.run("solve", "--model", str(path), "--nt", "4", "--out-value", str(value_csv))
        assert code == 1 and not value_csv.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {path}: {message}"]

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
        assert captured.err.splitlines() == ["error: levels[0] must be at least 1, got -3"]

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

    @pytest.mark.parametrize("levels, field", [("2,4.5", "4.5"), ("2,x", "x"), ("1,2e1", "2e1")])
    def test_ladder_non_integer_level_field_exits_one(self, capsys, levels, field):
        code = self.run(
            "ladder",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--cert", str(FIXTURES / "two_state_cert.json"),
            "--levels", levels,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --levels {levels!r} has the field {field!r}, which is not an integer\n"

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"nx": 8}, "unknown rps parameters ['nx']"),
            ([8], "--params must hold a JSON object, not list"),
            ({"n_x": "8"}, "n_x='8' is not an integer"),
            ({"alpha": True}, "alpha=True is not a finite real number"),
            ({"n_x": 8.5}, "n_x=8.5 is not an integer"),
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

    def test_build_example_float_parameter_given_as_integer(self, tmp_path):
        params, out, out_cert = tmp_path / "p.json", tmp_path / "m.json", tmp_path / "c.json"
        params.write_text('{"lambda_bound": 2, "n_x": 8}')
        code = self.run(
            "build-example", "--name", "rps", "--params", str(params),
            "--out", str(out), "--out-cert", str(out_cert),
        )
        assert code == 0
        assert '"l0": 2.0,' in out_cert.read_text()  # the builder got the float 2.0

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("gaussian", {"sigma": 1e-300}, "certificate constant rho0 must be above 0, got 0.0"),
            ("rps", {"x_max": 1e-320}, "jump density from node 1 has grid mass inf"),
            ("rps", {"x_max": -8}, "x_max must be above 0, got -8"),
            ("rps", {"x_max": 0}, "x_max must be above 0, got 0"),
            ("gaussian", {"sigma": 1e200}, "certificate constant rho0=inf is not a finite"),
            ("rps", {"x_max": 1e300}, "v1 must be finite"),
            ("gaussian", {"sigma": 1e50}, "certificate constant rho1=inf is not a finite"),
        ],
        ids=[
            "sigma_tiny", "x_max_tiny", "x_max_negative", "x_max_zero", "sigma_huge", "x_max_huge",
            "sigma_power_overflow",
        ],
    )
    def test_build_example_meaningless_params_exit_one(self, tmp_path, capsys, name, params, message):
        # each of these once wrote a NaN generator or an infinite certificate, or crashed
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out, out_cert = tmp_path / "m.json", tmp_path / "c.json"
        code = self.run(
            "build-example", "--name", name, "--params", str(path),
            "--out", str(out), "--out-cert", str(out_cert),
        )
        assert code == 1 and not out.exists() and not out_cert.exists()
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2\n3\n", "row on line 2 has length 1, the first row (line 1) has length 2"),
            ("\n1,x\n", "row on line 2: could not convert string to float: 'x'"),
            ("\n \n", "no rows"),
        ],
        ids=["ragged", "not-a-number", "empty"],
    )
    def test_matrix_game_csv_that_is_not_a_matrix_exits_one(self, tmp_path, capsys, text, message):
        csv_path = tmp_path / "C.csv"
        csv_path.write_text(text)
        assert self.run("matrix-game", "--csv", str(csv_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {csv_path}: {message}"]

    def simulate_fails(self, capsys, policy_json, x0: str, *options: str) -> str:
        code = self.run(
            "simulate",
            "--model", str(FIXTURES / "two_state_model.json"),
            "--policy", str(policy_json),
            "--x0", x0, "--paths", "100", *options,
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

    @pytest.mark.parametrize(
        "seed, message",
        [("-1", "rng_seed must be at least 0, got -1"), (str(2**64), "rng_seed must be below 2**64")],
    )
    def test_simulate_seed_outside_the_philox_keys_exits_one(
        self, tmp_path, capsys, two_state_model, seed, message
    ):
        # both once ended in an OverflowError traceback
        _, policies, _ = solve(two_state_model, SolverConfig(epsilon=0.1, n_t=8))
        policy_json = tmp_path / "policy.json"
        artifacts.save_policies(policies, two_state_model.state_ids, policy_json)
        assert message in self.simulate_fails(capsys, policy_json, "0", "--seed", seed)

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

    def test_build_example_and_ladder_verbose_log_each_artifact(self, tmp_path, caplog):
        params, model_json, cert_json, ladder_csv = (
            tmp_path / name for name in ("params.json", "m.json", "c.json", "ladder.csv")
        )
        params.write_text(json.dumps({"n_x": 8}))
        runs = [
            (["build-example", "--name", "rps", "--params", str(params),
              "--out", str(model_json), "--out-cert", str(cert_json)], [model_json, cert_json]),
            (["ladder", "--model", str(model_json), "--cert", str(cert_json), "--levels", "2,4",
              "--eps", "0.1", "--nt", "8", "--out", str(ladder_csv)], [ladder_csv]),
        ]
        for argv, paths in runs:
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="ctsg.cli"):
                assert self.run("--verbose", *argv) == 0
            records = [r for r in caplog.records if r.name == "ctsg.cli"]
            assert [r.args[0] for r in records] == [str(p) for p in paths]
            for record, path in zip(records, paths):
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

    @pytest.mark.parametrize("t0", ["inf", "nan"])
    def test_simulate_non_finite_t0_exits_one(self, tmp_path, capsys, two_state_model, t0):
        code = self._simulate_two_state(tmp_path, two_state_model, "--t0", t0)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: t0={float(t0)!r} is not a finite real number"]

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

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_tol_must_be_finite_and_nonnegative(self, tmp_path, capsys, command, tol):
        # rate_bound's residual is 0.928 here and drift0's -1e-9: inf would pass
        # the one, -1 fail the other, and nan fail every check
        model, cert = build_rps(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        cert = replace(cert, l0=1e-9, rho0=1e-9)
        model_json, cert_json, report = tmp_path / "m.json", tmp_path / "c.json", tmp_path / "r.json"
        artifacts.save_model(model, model_json)
        artifacts.save_certificate(cert, cert_json)
        extra = ["--nt", "8", "--report", str(report)] if command == "solve" else []
        code = self.run(
            command, "--model", str(model_json), "--cert", str(cert_json), "--tol", tol, *extra
        )
        assert code == 1 and not report.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"tol={float(tol)!r} is not a finite real number"
        if tol == "-1":
            message = "tol must be at least 0, got -1.0"
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("case", [c for c, v in MALFORMED_ARTIFACTS.items() if v[3] == 2])
    def test_artifact_that_is_not_an_object_exits_two(self, tmp_path, capsys, two_state_model, case):
        self.check_malformed_artifact(tmp_path, capsys, two_state_model, case)

    @pytest.mark.parametrize("case", [c for c, v in MALFORMED_ARTIFACTS.items() if v[3] == 1])
    def test_artifact_with_a_non_numeric_array_exits_one(self, tmp_path, capsys, two_state_model, case):
        self.check_malformed_artifact(tmp_path, capsys, two_state_model, case)

    def check_malformed_artifact(self, tmp_path, capsys, two_state_model, case):
        artifact, edit, message, code = MALFORMED_ARTIFACTS[case]
        if artifact == "policy":
            good = _policy_payload(two_state_model)
        else:
            good = json.loads((FIXTURES / f"two_state_{artifact}.json").read_text())
        bad = tmp_path / f"{artifact}.json"
        bad.write_text(json.dumps(edit(good)))
        model = bad if artifact == "model" else FIXTURES / "two_state_model.json"
        cert = bad if artifact == "cert" else FIXTURES / "two_state_cert.json"
        if artifact == "policy":
            argv = ["simulate", "--model", str(model), "--policy", str(bad), "--x0", "0"]
        else:
            argv = ["check", "--model", str(model), "--cert", str(cert)]
        assert self.run(*argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {bad}: {message}"]

    @pytest.mark.parametrize(
        "value, spelled", [(None, "null"), ([1], "[1]"), (True, "true"), ("abc", '"abc"')]
    )
    def test_certificate_constant_that_is_not_a_number_exits_one(self, tmp_path, capsys, value, spelled):
        cert = json.loads((FIXTURES / "two_state_cert.json").read_text())
        cert["rho0"] = value
        bad = tmp_path / "cert.json"
        bad.write_text(json.dumps(cert))
        code = self.run("check", "--model", str(FIXTURES / "two_state_model.json"), "--cert", str(bad))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"certificate constant rho0={value!r} is not a finite real number"
        assert captured.err.splitlines() == [f"error: {bad}: {message}"]

    def test_solve_model_with_no_states_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({
            "states": [], "actions_p1": [], "actions_p2": [], "payoff": [], "generator": [],
            "terminal": [], "theta": 1.0, "horizon": 1.0,
        }))
        assert self.run("solve", "--model", str(empty), "--nt", "4") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {empty}: a model needs at least one state"]

    def test_solve_with_overflowing_rate_factor_bounds(self, tmp_path, capsys):
        # e^{rho0 T} overflows at rho0 = 1000, which passes every certificate check
        model, cert = build_rps(alpha=0.35, x_max=8.0, n_x=8, theta=1.0, T=1.0)
        cert = replace(cert, rho0=1000.0)
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


def _readme_cli_commands() -> list[list[str]]:
    """The `ctsg` command lines of README's CLI block, with continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ctsg ")]


def test_readme_command_lines_parse():
    commands = _readme_cli_commands()
    subcommands = ["build-example", "check", "solve", "simulate", "ladder", "matrix-game"]
    assert [argv[0] for argv in commands] == subcommands
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0] and callable(args.func)


def test_readme_library_example_runs(monkeypatch, capsys):
    """README's Python block runs as written, and both players' deviation gains stay within epsilon."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    reports = []
    deviation_gain = ctsg.deviation_gain
    monkeypatch.setattr(
        ctsg, "deviation_gain", lambda *a, **k: reports.append(deviation_gain(*a, **k)) or reports[-1]
    )
    exec(block, {})
    assert [r.player for r in reports] == [1, 2]
    for report in reports:
        assert report.gain <= 0.01 and report.std_error == 0.0  # the example solves at epsilon 0.01


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


# SHA-256 of CLI outputs on the example games at the CLI defaults but n_x = 8
# (numpy 2.4, x86-64): `solve --cert --nt 32` on rps (value CSV, policy JSON,
# report with solver.wall_time masked), a cap ladder on gaussian and a floor
# ladder on rps (CSV, summary line), and `simulate --threads 2` on the solved
# rps policy (estimate line). A change that moves a bit re-pins and says why.
_PINNED_OUTPUTS = {
    "solve": (
        "a7ebafdb4da2cf54b84f67219b66fdd11ab980ef80f893bed37ac1ae15c3b99a",
        "fe37699110caf56ea9431bc12e0be8d107ba8d7ab4c32a7a2d85798445ad14aa",
        "ed5f6fb0474eb0d01db22c344cd5a7059334fe78d1cbed0f2525d82f61c5dc13",
    ),
    "cap-ladder": (
        "2d61d8ea64a908f37f4d3db73ddd9781c2a1b230e361ad840b15ffdbea82e35c",
        "9c989d24b9ab02615c238fcdb0411d5cac69c5a4a65ae58be09b3b3e25926cef",
    ),
    "floor-ladder": (
        "2569301fab60afc8c1a55d3ee73e607f03efc9bbe517ff847da8ca0e27566de0",
        "b7523d66da3a72cb2c08bbeca59624e2e70dc40249be68a0e48481340d76c795",
    ),
    "simulate": ("d87e70cbe92118954cbd6530225221abd7da70140b42284ae1b6f1dfaaba6e2d",),
}


@pytest.mark.parametrize("case", sorted(_PINNED_OUTPUTS))
def test_cli_outputs_pinned(tmp_path, capsys, case):
    name = "gaussian" if case == "cap-ladder" else "rps"
    params, model, cert = (str(tmp_path / f) for f in ("p.json", "m.json", "c.json"))
    Path(params).write_text('{"n_x": 8}')
    assert dispatch(["build-example", "--name", name, "--params", params, "--out", model, "--out-cert", cert]) == 0
    if case.endswith("ladder"):
        kind, levels = ("cap", "2,4,8,17") if case == "cap-ladder" else ("floor", "1,2,4")
        out = tmp_path / "ladder.csv"
        capsys.readouterr()
        code = dispatch([
            "ladder", "--model", model, "--cert", cert, "--levels", levels, "--nt", "32",
            "--kind", kind, "--out", str(out),
        ])
        blobs = [out.read_bytes(), capsys.readouterr().out.encode()]
    else:
        value, policy, report = (tmp_path / f for f in ("v.csv", "pi.json", "r.json"))
        code = dispatch([
            "solve", "--model", model, "--cert", cert, "--nt", "32",
            "--out-value", str(value), "--out-policy", str(policy), "--report", str(report),
        ])
        masked = re.sub(rb'"wall_time": [^,}]+', b'"wall_time": 0', report.read_bytes())
        blobs = [value.read_bytes(), policy.read_bytes(), masked]
        if case == "simulate":
            capsys.readouterr()
            code = dispatch([
                "simulate", "--model", model, "--policy", str(policy), "--x0", "5",
                "--paths", "10000", "--threads", "2",
            ])
            blobs = [capsys.readouterr().out.encode()]
    assert code == 0
    assert tuple(hashlib.sha256(b).hexdigest() for b in blobs) == _PINNED_OUTPUTS[case]
