"""Command-line front end: model I/O, solving, simulation, checks and ladders.

Exit codes: 0 success, 1 invariant or validation failure, 2 I/O or schema
error (argparse uses 2 for usage errors as well). All numeric outputs are
deterministic given the inputs and --seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import io as artifacts
from .errors import CtsgError, SchemaError
from .example_games import build_gaussian, build_rps
from .matrix_game import solve_matrix_game
from .model import GameModel, check_assumptions, compute_value_bounds, validate_generator
from .simulate import estimate_value
from .solver import SolverConfig, solve
from .truncation import run_ladder

logger = logging.getLogger(__name__)


def _valid_model(path: str) -> GameModel | None:
    """Load a model; print its validation report and return None if it is invalid."""
    model = artifacts.load_model(path)
    validation = validate_generator(model)
    if not validation.is_valid:
        print(json.dumps(artifacts.validation_report_to_dict(validation), sort_keys=True))
        return None
    return model


def _save(save: Callable[..., None], *args: Any) -> None:
    """Call ``save(*args)``, whose last argument is the path, and log its size and time."""
    start = time.perf_counter()
    save(*args)
    seconds = time.perf_counter() - start
    logger.info("wrote %s: %d bytes in %.4f s", args[-1], os.path.getsize(args[-1]), seconds)


def _cmd_solve(args: argparse.Namespace) -> int:
    model = _valid_model(args.model)
    if model is None:
        return 1
    report_extra: dict = {}
    cert = None
    if args.cert:
        cert = artifacts.load_certificate(args.cert)
        cert = check_assumptions(model, cert, args.tol)
        report_extra["certificate_checks"] = artifacts.certificate_checks_to_dict(cert)
        if not cert.all_ok:
            print(json.dumps(report_extra, sort_keys=True))
            return 1
    config = SolverConfig(epsilon=args.eps, n_t=args.nt, max_iterations=args.max_iter)
    value, policies, report = solve(model, config)
    if cert is not None:
        bounds = compute_value_bounds(model, cert)
        contained = bool(
            np.all(value.values[0] >= bounds.lower - 1e-12)
            and np.all(value.values[0] <= bounds.upper + 1e-12)
        )
        report_extra["value_bounds"] = {**artifacts.as_json_dict(bounds), "value_row_contained": contained}
    if args.out_value:
        _save(artifacts.save_value_grid, value, model.state_ids, args.out_value)
    if args.out_policy:
        _save(artifacts.save_policies, policies, model.state_ids, args.out_policy)
    payload = {"solver": artifacts.as_json_dict(report), **report_extra}
    if args.report:
        _save(artifacts._dump_json, payload, args.report)
    print(json.dumps({"converged": report.converged, "iterations": report.iterations}))
    return 0 if report.converged else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _valid_model(args.model)
    if model is None:
        return 1
    policies, order = artifacts.load_policies(args.policy)
    if tuple(order) != model.state_ids:
        raise ValueError(
            f"policy file {args.policy} covers states {order}, not the model's {list(model.state_ids)}"
        )
    est = estimate_value(
        model,
        policies,
        x0=args.x0,
        t0=args.t0,
        paths=args.paths,
        rng_seed=args.seed,
        threads=args.threads,
    )
    payload = artifacts.estimate_to_dict(est)
    if args.out:
        _save(artifacts._dump_json, payload, args.out)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    model = artifacts.load_model(args.model)
    validation = validate_generator(model)
    payload: dict = {"generator": artifacts.validation_report_to_dict(validation)}
    ok = validation.is_valid
    if ok:
        cert = artifacts.load_certificate(args.cert)
        cert = check_assumptions(model, cert, args.tol)
        payload["certificate"] = artifacts.certificate_checks_to_dict(cert)
        ok = cert.all_ok
    if args.out:
        _save(artifacts._dump_json, payload, args.out)
    print(json.dumps(payload, sort_keys=True))
    return 0 if ok else 1


def _cmd_ladder(args: argparse.Namespace) -> int:
    model = _valid_model(args.model)
    if model is None:
        return 1
    cert = artifacts.load_certificate(args.cert)
    levels = []
    for f in args.levels.split(","):
        try:
            levels.append(int(f))
        except ValueError:
            what = f"the field {f!r}, which is not an integer" if f.strip() else "an empty field"
            raise ValueError(f"--levels {args.levels!r} has {what}") from None
    config = SolverConfig(epsilon=args.eps, n_t=args.nt, max_iterations=args.max_iter)
    report = run_ladder(model, cert, levels, config, kind=args.kind)
    if args.out:
        _save(lambda path: Path(path).write_text(artifacts.ladder_to_csv(report, model.state_ids)), args.out)
    print(json.dumps(artifacts.ladder_summary_to_dict(report), sort_keys=True))
    return 0 if report.monotone_ok else 1


# Each example builder with its parameters' defaults; --params may override any of them.
_EXAMPLES = {
    "rps": (build_rps, dict(alpha=0.35, lambda_bound=1.0, x_max=8.0, n_x=64, theta=1.0, T=1.0)),
    "gaussian": (build_gaussian, dict(sigma=1.0, rate_bound=0.25, payoff_bound=1.0, x_min=-4.0,
                                      x_max=4.0, n_x=64, theta=1.0, T=1.0)),
}


def _cmd_build_example(args: argparse.Namespace) -> int:
    builder, defaults = _EXAMPLES[args.name]
    params = json.loads(Path(args.params).read_text()) if args.params else {}
    if not isinstance(params, dict):
        raise ValueError(f"--params must hold a JSON object, not {type(params).__name__}")
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {args.name} parameters {unknown}; known: {sorted(defaults)}")
    model, cert = builder(**{**defaults, **params})
    _save(artifacts.save_model, model, args.out)
    if args.out_cert:
        _save(artifacts.save_certificate, cert, args.out_cert)
    print(json.dumps({"states": model.n_states, "model": args.out}))
    return 0


def _cmd_matrix_game(args: argparse.Namespace) -> int:
    sol = solve_matrix_game(artifacts._load_matrix_csv(args.csv))
    print(json.dumps(artifacts.as_json_dict(sol), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctsg", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="value iteration on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--cert")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--nt", type=int, default=256)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-2, help="certificate check tolerance")
    p.add_argument("--out-value")
    p.add_argument("--out-policy")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo value estimate under stored policies")
    p.add_argument("--model", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="generator validation and certificate checks")
    p.add_argument("--model", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--tol", type=float, default=1e-2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ladder", help="truncation ladder across levels")
    p.add_argument("--model", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--levels", required=True, help="comma-separated increasing integers")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--nt", type=int, default=64)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--kind", choices=["cap", "floor"], default="cap")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("build-example", help="emit a benchmark model and certificate")
    p.add_argument("--name", choices=list(_EXAMPLES), required=True)
    p.add_argument("--params", help="JSON file of builder parameters")
    p.add_argument("--out", required=True)
    p.add_argument("--out-cert")
    p.set_defaults(func=_cmd_build_example)

    p = sub.add_parser("matrix-game", help="solve one matrix game from CSV (debug)")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_matrix_game)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, KeyError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CtsgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(dispatch())


if __name__ == "__main__":  # pragma: no cover
    main()
