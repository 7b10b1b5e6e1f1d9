"""What the benchmark under bench/ calls in ctsg, checked without running it.

The tier-1 suite does not run bench/, so a change that deletes or renames
something the benchmark uses would otherwise pass every test here and fail
only when the benchmark runs. These tests parse the benchmark's command
lines, look up the names it calls and pass its constants through the rules
that check them (building at n_x 8); they solve nothing.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import importlib.util
import inspect
from pathlib import Path

import pytest

import ctsg
import ctsg.cli
import ctsg.simulate

BENCH = Path(__file__).resolve().parent.parent / "bench"
# The values bench/workloads.py hands to ctsg's rules: its accuracy, builder parameters and grids.
WORKLOAD_CONSTANTS = ("EPS", "RPS64", "GAUSSIAN64", "COMPANION", "SOLVE_NT", "COARSE_NT")


def _workload_constants() -> dict:
    """The module-level literals of bench/workloads.py, read without importing it."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in WORKLOAD_CONSTANTS
    }


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_deviation_gain_takes_the_bench_keywords():
    params = inspect.signature(ctsg.deviation_gain).parameters
    assert {"paths", "rng_seed", "x0"} <= set(params)
    fields = {f.name for f in dataclasses.fields(ctsg.simulate.DeviationReport)}
    assert {"gain", "std_error", "n_candidates"} <= fields


@pytest.mark.parametrize(
    "name",
    [
        "GameModel", "PolicyPair", "SolverConfig", "build_rps", "solve", "deviation_gain",
        "weighted_payoff", "cli.solve", "cli.dispatch", "io.load_model", "io.load_policies",
        "io.save_model", "io.save_policies", "io.save_value_grid",
    ],
)
def test_names_the_bench_calls_exist(name):
    obj = ctsg
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_traced_layer_functions_exist():
    spans = _bench_module("spans")
    assert spans._COUNTERS
    for qualified in spans._COUNTERS:
        layer, func = qualified.split(".")
        assert layer in spans.LAYERS
        assert callable(getattr(importlib.import_module(f"ctsg.{layer}"), func)), qualified


def test_game_value_field_solves_through_a_traced_matrix_game_function():
    """bench/spans.py charges LP time to the matrix_game layer by wrapping its public functions.

    So the solver game_value_field hands its payoff stacks to must be one of them.
    """
    import ctsg.matrix_game
    import ctsg.shapley

    assert "matrix_game" in _bench_module("spans").LAYERS
    used = [getattr(ctsg.shapley, name, None) for name in ctsg.shapley.game_value_field.__code__.co_names]
    solvers = [fn for fn in used if inspect.isfunction(fn) and fn.__module__ == "ctsg.matrix_game"]
    assert solvers
    for fn in solvers:
        assert not fn.__name__.startswith("_") and getattr(ctsg.matrix_game, fn.__name__) is fn


@pytest.mark.parametrize(
    "argv",
    [
        ["build-example", "--name", "gaussian", "--params", "p.json", "--out", "m.json",
         "--out-cert", "c.json"],
        ["solve", "--model", "m.json", "--eps", "0.001", "--nt", "256", "--out-value", "v.csv",
         "--out-policy", "p.json", "--report", "r.json", "--cert", "c.json", "--max-iter", "100"],
        ["ladder", "--model", "m.json", "--cert", "c.json", "--levels", "2,4,8,17", "--eps",
         "0.001", "--nt", "32", "--kind", "cap", "--out", "l.csv"],
        ["simulate", "--model", "m.json", "--policy", "p.json", "--x0", "5", "--t0", "0.0",
         "--paths", "1000000", "--seed", "3", "--threads", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_parser_takes_the_bench_command_lines(argv):
    args = ctsg.cli.build_parser().parse_args(argv)
    assert args.command == argv[0] and callable(args.func)


@pytest.mark.parametrize(
    "example, params", [("rps", "RPS64"), ("gaussian", "GAUSSIAN64"), ("rps", "COMPANION")]
)
def test_build_example_takes_the_bench_parameters(tmp_path, example, params):
    """Each builder parameter dict the benchmark passes, at n_x 8, builds a model and certificate."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps({**_workload_constants()[params], "n_x": 8}))
    argv = ["build-example", "--name", example, "--params", str(path), "--out", str(tmp_path / "m.json")]
    assert ctsg.cli.dispatch([*argv, "--out-cert", str(tmp_path / "c.json")]) == 0


@pytest.mark.parametrize("n_t", ["SOLVE_NT", "COARSE_NT"])
def test_solver_config_takes_the_bench_accuracy_and_grids(n_t):
    constants = _workload_constants()
    config = ctsg.SolverConfig(constants["EPS"], constants[n_t])
    assert (config.epsilon, config.n_t) == (constants["EPS"], constants[n_t])
