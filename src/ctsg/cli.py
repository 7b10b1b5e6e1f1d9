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
from pathlib import Path

import numpy as np

from . import io as artifacts
from .errors import CtsgError
from .example_games import build_gaussian, build_rps
from .matrix_game import solve_matrix_game
from .model import check_assumptions, compute_value_bounds, validate_generator
from .simulate import estimate_value
from .solver import SolverConfig, solve
from .truncation import run_ladder


def _threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("CTSG_THREADS")
    return max(1, int(env)) if env else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    model = artifacts.load_model(args.model)
    validation = validate_generator(model)
    if not validation.is_valid:
        print(json.dumps(artifacts.validation_report_to_dict(validation), sort_keys=True))
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
        report_extra["value_bounds"] = {
            "lower": bounds.lower.tolist(),
            "upper": bounds.upper.tolist(),
            "representable": bounds.representable,
            "value_row_contained": contained,
        }
    if args.out_value:
        artifacts.save_value_grid(value, model.state_ids, args.out_value)
    if args.out_policy:
        artifacts.save_policies(policies, model.state_ids, args.out_policy)
    payload = {"solver": artifacts.solver_report_to_dict(report), **report_extra}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    print(json.dumps({"converged": report.converged, "iterations": report.iterations}))
    return 0 if report.converged else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = artifacts.load_model(args.model)
    policies, order = artifacts.load_policies(args.policy)
    if order != model.state_ids:
        raise ValueError(
            f"policy file {args.policy} covers states {order}, not the model's {model.state_ids}"
        )
    est = estimate_value(
        model,
        policies,
        x0=args.x0,
        t0=args.t0,
        paths=args.paths,
        rng_seed=args.seed,
        threads=_threads(args),
    )
    payload = artifacts.estimate_to_dict(est)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
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
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    print(json.dumps(payload, sort_keys=True))
    return 0 if ok else 1


def _cmd_ladder(args: argparse.Namespace) -> int:
    model = artifacts.load_model(args.model)
    validation = validate_generator(model)
    if not validation.is_valid:
        print(json.dumps(artifacts.validation_report_to_dict(validation), sort_keys=True))
        return 1
    cert = artifacts.load_certificate(args.cert)
    levels = [int(s) for s in args.levels.split(",") if s]
    config = SolverConfig(epsilon=args.eps, n_t=args.nt, max_iterations=args.max_iter)
    report = run_ladder(model, cert, levels, config, kind=args.kind)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(artifacts.ladder_to_csv(report, model.state_ids))
    print(json.dumps(artifacts.ladder_summary_to_dict(report), sort_keys=True))
    return 0 if report.monotone_ok else 1


def _cmd_build_example(args: argparse.Namespace) -> int:
    params = json.loads(Path(args.params).read_text()) if args.params else {}
    if args.name == "rps":
        model, cert = build_rps(
            alpha=params.get("alpha", 0.35),
            lambda_bound=params.get("lambda_bound", 1.0),
            x_max=params.get("x_max", 8.0),
            n_x=params.get("n_x", 64),
            theta=params.get("theta", 1.0),
            T=params.get("T", 1.0),
        )
    elif args.name == "gaussian":
        model, cert = build_gaussian(
            sigma=params.get("sigma", 1.0),
            rate_bound=params.get("rate_bound", 0.25),
            payoff_bound=params.get("payoff_bound", 1.0),
            x_min=params.get("x_min", -4.0),
            x_max=params.get("x_max", 4.0),
            n_x=params.get("n_x", 64),
            theta=params.get("theta", 1.0),
            T=params.get("T", 1.0),
        )
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown example {args.name}")
    artifacts.save_model(model, args.out)
    if args.out_cert:
        artifacts.save_certificate(cert, args.out_cert)
    print(json.dumps({"states": model.n_states, "model": args.out}))
    return 0


def _cmd_matrix_game(args: argparse.Namespace) -> int:
    rows = [
        [float(v) for v in line.split(",")]
        for line in Path(args.csv).read_text().splitlines()
        if line.strip()
    ]
    sol = solve_matrix_game(np.array(rows))
    print(
        json.dumps(
            {
                "value": sol.value,
                "strategy_p1": sol.strategy_p1.tolist(),
                "strategy_p2": sol.strategy_p2.tolist(),
                "status": sol.status,
            },
            sort_keys=True,
        )
    )
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
    p.add_argument("--threads", type=int)
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
    p.add_argument("--name", choices=["rps", "gaussian"], required=True)
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
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CtsgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(dispatch())


if __name__ == "__main__":  # pragma: no cover
    main()
