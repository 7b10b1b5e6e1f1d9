"""Tests of the benchmark's own oracles and tracer on hand-solvable cases.

Run from the repository root: ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ctsg  # noqa: E402
import ctsg.io  # noqa: E402
import ctsg.shapley  # noqa: E402
import oracles  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

RPS = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


def test_rps_matrix_has_value_zero_and_uniform_strategies():
    value, p, q = oracles.matrix_game(RPS)
    assert abs(value) < 1e-9
    np.testing.assert_allclose(p, 1 / 3, atol=1e-9)
    np.testing.assert_allclose(q, 1 / 3, atol=1e-9)
    assert abs(oracles.saddle_gap(RPS, p, q)) < 1e-9


def test_two_by_two_game_value_and_strategies():
    C = np.array([[3.0, 1.0], [0.0, 2.0]])
    value, p, q = oracles.matrix_game(C)
    assert value == pytest.approx(1.5, abs=1e-9)
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(q, [0.25, 0.75], atol=1e-9)
    assert oracles.saddle_gap(C, p, q) == pytest.approx(0.0, abs=1e-9)
    # Row 1 alone is exploitable: column 2 holds it to 1, below the 1.5 that q concedes.
    assert oracles.saddle_gap(C, np.array([1.0, 0.0]), q) == pytest.approx(0.5)


def _two_state(a: float, b: float, theta: float, payoff: np.ndarray) -> oracles.ModelTensors:
    q = np.array([[-a, a], [b, -b]])
    generator = np.broadcast_to(q[:, None, None, :], (2, 3, 3, 2)).copy()
    return oracles.ModelTensors(
        payoff=np.stack([payoff, 2.0 * payoff]),
        generator=generator,
        terminal=np.array([0.3, -0.2]),
        theta=theta,
        horizon=1.5,
        coords=None,
    )


def test_rps_value_row_matches_closed_form_two_state_chain():
    a, b, theta, T = 0.7, 0.4, 2.0, 1.5
    m = _two_state(a, b, theta, RPS)
    decay = math.exp(-(a + b) * T)
    P = np.array([[b + a * decay, a - a * decay], [b - b * decay, a + b * decay]]) / (a + b)
    np.testing.assert_allclose(oracles.rps_value_row(m), P @ np.exp(theta * m.terminal), rtol=1e-12)


def test_rps_value_row_rejects_games_it_cannot_solve():
    with pytest.raises(oracles.OracleError):
        oracles.rps_value_row(_two_state(0.7, 0.4, 1.0, np.array([[3.0, 1.0, 0], [0, 2.0, 0], [0, 0, 1.0]])))
    m = _two_state(0.7, 0.4, 1.0, RPS)
    m.generator[0, 1, 2] *= 2.0
    with pytest.raises(oracles.OracleError):
        oracles.rps_value_row(m)


def test_readers_parse_what_ctsg_writes(tmp_path):
    model, cert = ctsg.build_rps(alpha=0.35, x_max=8.0, n_x=4, theta=1.0, T=1.0)
    value, policies, _ = ctsg.solve(model, ctsg.SolverConfig(epsilon=1e-3, n_t=4))
    ctsg.io.save_model(model, tmp_path / "m.json")
    ctsg.io.save_value_grid(value, model.state_ids, tmp_path / "v.csv")
    ctsg.io.save_policies(policies, model.state_ids, tmp_path / "p.json")

    tensors = oracles.read_model(tmp_path / "m.json")
    assert tensors.norm_q == pytest.approx(model.norm_q) and tensors.norm_r == pytest.approx(model.norm_r)
    nodes, values = oracles.read_value_csv(tmp_path / "v.csv", 4)
    assert np.array_equal(values, value.values) and np.array_equal(nodes, value.grid.nodes)
    pi1, pi2 = oracles.read_policies(tmp_path / "p.json", 4)
    for x in range(4):
        assert np.array_equal(pi1[:, x], policies.pi1[x]) and np.array_equal(pi2[:, x], policies.pi2[x])
    c = oracles.weighted_payoff(tensors, values[1], 2)
    np.testing.assert_array_equal(c, ctsg.weighted_payoff(model, value, 1, 2))


def test_tracer_spans_nest_and_self_times_add_up():
    model, _ = ctsg.build_rps(alpha=0.35, x_max=8.0, n_x=3, theta=1.0, T=1.0)
    original = ctsg.shapley.solve_matrix_game
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.round"):
            _, _, report = ctsg.solve(model, ctsg.SolverConfig(epsilon=1e-3, n_t=4))
    finally:
        tracer.uninstall()
    assert ctsg.shapley.solve_matrix_game is original

    m = layer_metrics(tracer, 0, len(tracer.spans))
    assert m["solver.iterations"] == report.iterations
    assert m["shapley.field_calls"] == report.iterations
    assert m["matrix_game.games"] == report.iterations * 5 * 3
    layer_self = [
        "matrix_game.busy_s", "shapley.self_s", "solver.self_s", "truncation.self_s", "simulate.self_s",
        "io.write_s", "io.read_s", "model.validate_s", "model.check_s", "example_games.build_s",
        "cli.self_s", "bench.self_s",
    ]
    assert sum(m[k] for k in layer_self) == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["shapley.field_self_s"] + m["shapley.integrate_s"] <= m["shapley.self_s"] + 1e-12


def test_layer_metrics_cover_the_per_layer_list():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    with tracer.span("bench.round"):
        pass
    produced = set(layer_metrics(tracer, 0, 1)) | {"trace.overhead_s"}
    assert produced == {m["name"] for m in spec["per_layer"]}
