#!/usr/bin/env python3
"""Benchmark of ctsg: one workload per process, end-to-end or per-layer figures.

Run from the repository root, which must hold the ctsg sources under src/:

    python3 bench/run.py --workload solve-rps64 --seed 1 --seconds 40 --trace 0

Workloads are named in BENCHMARK.json. With ``--trace 0`` the run repeats
rounds, each a fresh set-up followed by the same operations, for about
``--seconds`` seconds in all (at least two rounds), and reports the median
of each end-to-end metric over all its samples. With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer figures of
the median traced round, with ``trace.overhead_s`` its wall time minus the
median untraced one.

Outputs of every operation are checked after the timed part. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
A run also leaves a results file under .bench_build/results/ and, when
traced, every span under .bench_build/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build"
MIN_ROUNDS = 2  # so that setup_s is a median of several set-ups


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_ctsg() -> None:
    """Import ctsg from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "ctsg" / "__init__.py").is_file():
        raise ImportError(f"no ctsg sources under {src}")
    sys.path.insert(0, str(src))
    import ctsg

    if Path(ctsg.__file__).resolve().parent != (src / "ctsg").resolve():
        raise ImportError(f"ctsg imported from {ctsg.__file__}, not from {src}")


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _env(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    }


class Tally:
    """Operations attempted and failed, and problems found by the checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}  # first failure reason per operation
        self.problems: list[str] = []
        self.pending: list = []  # checks not yet run

    def add(self, ops, checks=()) -> None:
        for op in ops:
            self.attempted += 1
            if op.failed is not None:
                self.failed += 1
                self.failures.setdefault(op.name, op.failed)
            else:
                self.pending.append(op.check)
        self.pending += list(checks)

    def run_checks(self) -> None:
        for check in self.pending:
            try:
                self.problems += check()
            except Exception as exc:  # an unreadable artifact is a wrong output
                self.problems.append(f"check raised {type(exc).__name__}: {exc}")
        self.pending.clear()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(workload, ctx, seconds: float, tally: Tally) -> dict[str, list[float]]:
    """Untraced: rounds of set-up then operations, for about ``seconds`` in all."""
    samples: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup_samples, checks = workload.setup(ctx)
        samples.setdefault("setup_s", []).append(time.perf_counter() - began)
        ops, round_samples = workload.round(ctx)
        if "peak_rss_mb" not in samples:  # before any check parses the artifacts
            samples["peak_rss_mb"] = [_peak_rss_mb()]
        for new in (setup_samples, round_samples):
            for name, values in new.items():
                samples.setdefault(name, []).extend(values)
        tally.add(ops, checks)
        tally.run_checks()
        now = time.perf_counter()
        rounds = samples.setdefault("round_s", [])  # with checks; not a metric
        rounds.append(now - began)
        if len(rounds) >= MIN_ROUNDS and now - start + statistics.mean(rounds) > seconds:
            return samples


def measure_traced(workload, ctx, seconds: float, tally: Tally, trace_file: Path) -> dict[str, float]:
    """Alternate untraced and traced rounds (set-up plus operations)."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[tuple[float, int, int]] = []  # (wall, first span, end span)
    pairs: list[float] = []  # wall of each untraced-plus-traced pair, with checks

    def one_round() -> None:
        _, checks = workload.setup(ctx)
        ops, _ = workload.round(ctx)
        tally.add(ops, checks)

    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        one_round()
        untraced.append(time.perf_counter() - began)
        tally.run_checks()
        tracer.install()
        ctx.tracer = tracer
        first = len(tracer.spans)
        try:
            with tracer.span("bench.round"):
                one_round()
        finally:
            tracer.uninstall()
            ctx.tracer = None
        root = tracer.spans[first]
        traced.append((root[2] - root[1], first, len(tracer.spans)))
        tally.run_checks()
        now = time.perf_counter()
        pairs.append(now - began)
        if now - start + statistics.mean(pairs) > seconds:
            break
    wall, first, end = sorted(traced)[(len(traced) - 1) // 2]
    metrics = layer_metrics(tracer, first, end)
    metrics["trace.overhead_s"] = wall - statistics.median(untraced)
    own = sum(tracer.self_times(first, end))
    if abs(own - wall) > 1e-9 * wall:
        tally.problems.append(f"span self times add up to {own!r} s, not the traced wall {wall!r} s")
    tracer.write(trace_file)
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        _import_ctsg()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = _env(args)
    print(json.dumps({"env": env}, sort_keys=True))

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(workdir, args.seed)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload]()
        if args.trace:
            trace_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.csv.gz"
            values = measure_traced(workload, ctx, args.seconds, tally, trace_file)
            wanted = spec["per_layer"]
        else:
            samples = measure(workload, ctx, args.seconds, tally)
            values = {name: statistics.median(v) for name, v in samples.items()}
            values["rounds"] = len(samples["round_s"])
            values["samples"] = samples
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, reason in tally.failures.items():
        print(f"failed: {name}: {reason}")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the workload produced no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({"env": env, "values": values, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
