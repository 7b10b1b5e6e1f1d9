"""What the benchmark under bench/ calls in ctsg, checked without running it.

The tier-1 suite does not run bench/, so a change that deletes or renames
something the benchmark uses would otherwise pass every test here and fail
only when the benchmark runs. These tests parse the benchmark's command
lines and look up the names it calls; they solve nothing.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import ctsg
import ctsg.cli
import ctsg.simulate

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
