"""The benchmark's workloads: their inputs, timed operations and output checks.

Every operation goes through the public ctsg API, mostly through the CLI
front end called in-process (``ctsg.cli.dispatch``), and writes its
artifacts under the run's work directory. Each operation returns an ``Op``
whose ``check`` runs after the timed part and compares the artifacts with
the independent computations in ``oracles``.

A workload's round always runs the same operations, so the share of failed
operations is the same in every run. Metrics that a workload's own
operations do not produce are measured on companion operations: small
fixed inputs (scissors-paper-stone on 8 states), timed on their own and
kept out of the workload's main figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ctsg
import ctsg.cli
import ctsg.io
import oracles
from spans import Tracer

EPS = 1e-3
# Builder parameters; every other parameter is the CLI default (rps: alpha
# 0.35, x_max 8, theta 1, T 1; gaussian: sigma 1, rate bound 0.25, payoff
# bound 1, [-4, 4], theta 1, T 1).
RPS64 = {"n_x": 64}
GAUSSIAN64 = {"n_x": 64}
COMPANION = {"n_x": 8}
SOLVE_NT = 256  # solve-rps64
COARSE_NT = 32  # ladder-gaussian64, verify-rps64 set-up, companion game, homogeneity-lift
GAUSSIAN_LEVELS = "2,4,8,17"  # v0 = 1 + x^2 on [-4, 4] peaks at 17
COMPANION_LEVELS = "2,4,6,9"  # v0 = 1 + x on [0, 8] peaks at 9
MC_PATHS = 1_000_000
COMPANION_MC_PATHS = 500_000
DEVIATION_PATHS = 4096
LIFT_THETA_K = 30.0
LIFT_MAX_ITER = 100
CHECKED_CELLS = 32  # sampled (t, x) cells re-solved by linprog per solve

Check = Callable[[], list[str]]


class Samples(dict):
    """Metric name -> values measured in one round (or one set-up).

    Solves also add the grid cells they swept and their command wall time;
    ``fold_cells`` turns the round's totals into one cells_per_s value.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cells = 0
        self.cells_wall_s = 0.0

    def add(self, name: str, value: float) -> None:
        self.setdefault(name, []).append(value)

    def add_cells(self, cells: int, seconds: float) -> None:
        self.cells += cells
        self.cells_wall_s += seconds

    def fold_cells(self) -> None:
        if self.cells_wall_s > 0.0:
            self.add("cells_per_s", self.cells / self.cells_wall_s)


class SetupError(RuntimeError):
    """A set-up step failed; the benchmark cannot run."""


@dataclass
class Op:
    """One timed operation and the check of its outputs.

    ``failed`` holds the reason when the program did not complete the
    operation; ``check`` returns the problems found in a completed one.
    """

    name: str
    seconds: float
    failed: str | None = None
    check: Check = lambda: []


class Context:
    """Per-run state: work directory, inputs drawn from the seed, optional tracer.

    The seed picks the simulations' start states and random streams and the
    cells the checks re-solve; the models themselves are fixed.
    """

    def __init__(self, workdir: Path, seed: int) -> None:
        self.dir = workdir
        self.rng = np.random.default_rng(seed)
        self.x0 = int(self.rng.integers(1, RPS64["n_x"]))
        self.companion_x0 = int(self.rng.integers(1, COMPANION["n_x"]))
        self.mc_seed = int(self.rng.integers(2**31))
        self.dev_seed = int(self.rng.integers(2**31))
        self.tracer: Tracer | None = None

    def step(self, name: str):
        """A bench span around one set-up step or operation, when tracing."""
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.run_id += 1
        return self.tracer.span(f"bench.{name}")

    def cli(self, *argv: object) -> tuple[int, str, float]:
        """Run one ``ctsg`` command in-process: (exit code, stdout, wall seconds)."""
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = ctsg.cli.dispatch([str(a) for a in argv])
        return code, buf.getvalue(), time.perf_counter() - start

    def path(self, name: str) -> Path:
        return self.dir / name


def _guarded(name: str, fn: Callable[[], Op]) -> Op:
    """Run one operation; an exception from the program fails the operation."""
    start = time.perf_counter()
    try:
        return fn()
    except Exception:  # recorded as a failed operation; the run goes on
        return Op(name, time.perf_counter() - start, failed=traceback.format_exc(limit=3))


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- games and solves -------------------------------------------------------------


@dataclass
class Game:
    """A model and certificate written by ``ctsg build-example``."""

    tag: str
    model: Path
    cert: Path
    tensors: oracles.ModelTensors

    @property
    def n_states(self) -> int:
        return self.tensors.n_states


def build_example(ctx: Context, name: str, params: dict, tag: str) -> Game:
    params_path = ctx.path(f"{tag}-params.json")
    params_path.write_text(json.dumps(params))
    model, cert = ctx.path(f"{tag}-model.json"), ctx.path(f"{tag}-cert.json")
    with ctx.step(f"setup:build-{tag}"):
        code, out, _ = ctx.cli(
            "build-example", "--name", name, "--params", params_path, "--out", model, "--out-cert", cert
        )
    if code != 0:
        raise SetupError(f"build-example {name} {params} exited {code}: {out}")
    return Game(tag, model, cert, oracles.read_model(model))


def lifted_copy(ctx: Context, game: Game, theta_k: float, tag: str) -> Game:
    """The same model with every terminal reward raised by K = theta_k / theta."""
    d = json.loads(game.model.read_text())
    k = theta_k / float(d["theta"])
    d["terminal"] = [g + k for g in d["terminal"]]
    model = ctx.path(f"{tag}-model.json")
    model.write_text(json.dumps(d))
    return Game(tag, model, game.cert, oracles.read_model(model))


@dataclass
class Solved:
    """Outputs of one ``ctsg solve`` and the in-memory results behind them."""

    game: Game
    n_t: int
    code: int
    seconds: float
    value_csv: Path
    policy_json: Path
    report: dict  # the report's "solver" section
    in_memory: tuple | None  # (ValueGrid, PolicyPair, SolverReport) from ctsg.solve

    @property
    def cells(self) -> int:
        """Grid cells swept: iterations * (n_t + 1) * n_x."""
        return self.report["iterations"] * (self.n_t + 1) * self.game.n_states


def run_solve(
    ctx: Context, game: Game, n_t: int, *, cert: bool = True, max_iter: int | None = None
) -> Solved:
    """``ctsg solve`` writing value CSV, policy JSON and report under the game's tag."""
    value, policy, report = (ctx.path(f"{game.tag}-{n}") for n in ("value.csv", "policy.json", "report.json"))
    for stale in (value, policy, report):
        stale.unlink(missing_ok=True)
    argv: list[object] = ["solve", "--model", game.model, "--eps", EPS, "--nt", n_t]
    argv += ["--out-value", value, "--out-policy", policy, "--report", report]
    if cert:
        argv += ["--cert", game.cert]
    if max_iter is not None:
        argv += ["--max-iter", max_iter]
    # Keep what ctsg.solve returned, to check the files against it.
    captured: list[tuple] = []
    inner = ctsg.cli.solve

    def capture(*args, **kwargs):
        captured.append(inner(*args, **kwargs))
        return captured[-1]

    ctsg.cli.solve = capture
    try:
        code, _, seconds = ctx.cli(*argv)
    finally:
        ctsg.cli.solve = inner
    solver = json.loads(report.read_text())["solver"] if report.exists() else {}
    return Solved(game, n_t, code, seconds, value, policy, solver, captured[0] if captured else None)


def setup_solve(ctx: Context, game: Game, n_t: int) -> Solved:
    with ctx.step(f"setup:solve-{game.tag}"):
        solved = run_solve(ctx, game, n_t)
    if solved.code != 0:
        raise SetupError(f"ctsg solve on {game.tag} exited {solved.code}")
    return solved


def check_solved(
    solved: Solved, rng: np.random.Generator, extra: Callable[[np.ndarray, np.ndarray, np.ndarray], list[str]] | None = None
) -> list[str]:
    """Written artifacts vs in-memory results, and sampled cells vs linprog.

    ``extra(values, pi1, pi2)`` adds workload-specific checks on the parsed files.
    """
    game, tag = solved.game, solved.game.tag
    if solved.code != 0 or not solved.report.get("converged"):
        return [f"{tag} solve exited {solved.code}, converged={solved.report.get('converged')}"]
    problems: list[str] = []
    nodes, values = oracles.read_value_csv(solved.value_csv, game.n_states)
    pi1, pi2 = oracles.read_policies(solved.policy_json, game.n_states)
    grid, policies, _ = solved.in_memory
    if not (np.array_equal(values, grid.values) and np.array_equal(nodes, grid.grid.nodes)):
        problems.append(f"{tag} value CSV does not read back equal to the solved grid")
    if not all(
        np.array_equal(pi1[:, x], policies.pi1[x]) and np.array_equal(pi2[:, x], policies.pi2[x])
        for x in range(game.n_states)
    ):
        problems.append(f"{tag} policy JSON does not read back equal to the solved policies")
    for pi in (pi1, pi2):
        if np.min(pi) < -1e-12 or np.max(np.abs(pi.sum(axis=2) - 1.0)) > 1e-9:
            problems.append(f"{tag} a policy row is not a probability vector")
    # The policies solve the games on the previous iterate and the written grid
    # is the last one. Each payoff entry moves by at most (theta |r| + 2 |q|)
    # times the last iterate difference (delta), so the policies' value and
    # saddle gap on the written grid are within 2 delta of an exact saddle.
    m = game.tensors
    delta = (m.theta * m.norm_r + 2.0 * m.norm_q) * solved.report["final_diff"]
    n_cells = values.shape[0] * game.n_states
    for cell in rng.choice(n_cells, size=min(CHECKED_CELLS, n_cells), replace=False):
        i, x = divmod(int(cell), game.n_states)
        c = oracles.weighted_payoff(m, values[i], x)
        scale = 1.0 + float(np.max(np.abs(c)))
        lp_value, _, _ = oracles.matrix_game(c)
        policy_value = float(pi1[i, x] @ c @ pi2[i, x])
        if abs(lp_value - policy_value) > 2.0 * delta + 1e-7 * scale:
            problems.append(f"{tag} cell (t={i}, x={x}): policy value {policy_value!r} vs linprog {lp_value!r}")
        gap = oracles.saddle_gap(c, pi1[i, x], pi2[i, x])
        if gap > 2.0 * delta + 1e-9 * scale:
            problems.append(f"{tag} cell (t={i}, x={x}): saddle gap {gap:.3e} > 2 delta = {2.0 * delta:.3e}")
    if extra is not None:
        problems += extra(values, pi1, pi2)
    return problems


def read_ladder(path: Path, n_levels: int, n_states: int) -> np.ndarray:
    """t = 0 values per level from a ``level,x_id,value_t0`` CSV."""
    rows = path.read_text().splitlines()
    if rows[0] != "level,x_id,value_t0":
        raise oracles.OracleError(f"unexpected ladder CSV header {rows[0]}")
    return np.array([float(r.split(",")[2]) for r in rows[1:]]).reshape(n_levels, n_states)


# -- operations -------------------------------------------------------------------


def solve_op(ctx: Context, game: Game, n_t: int, samples: Samples, extra=None) -> Op:
    """``ctsg solve`` with the certificate; records solve_s and the cells swept."""

    def op() -> Op:
        with ctx.step("op:solve"):
            solved = run_solve(ctx, game, n_t)
        samples.add("solve_s", solved.seconds)
        samples.add_cells(solved.cells, solved.seconds)
        failed = None if solved.code == 0 else f"ctsg solve exited {solved.code}"
        return Op("solve", solved.seconds, failed, lambda: check_solved(solved, ctx.rng, extra))

    return _guarded("solve", op)


def ladder_op(
    ctx: Context, game: Game, levels: str, n_t: int, name: str, samples: Samples, count_cells: bool
) -> Op:
    """``ctsg ladder --kind cap``; records ladder_s (and the cells swept)."""
    out = ctx.path(f"{game.tag}-ladder.csv")
    level_list = [int(s) for s in levels.split(",")]

    def op() -> Op:
        out.unlink(missing_ok=True)
        with ctx.step(f"op:{name}"):
            code, stdout, seconds = ctx.cli(
                "ladder", "--model", game.model, "--cert", game.cert, "--levels", levels,
                "--eps", EPS, "--nt", n_t, "--kind", "cap", "--out", out,
            )
        summary = _last_json_line(stdout)
        samples.add("ladder_s", seconds)
        if count_cells:
            cells = sum(e["iterations"] for e in summary["levels"]) * (n_t + 1) * game.n_states
            samples.add_cells(cells, seconds)

        def check() -> list[str]:
            tag = game.tag
            if not all(e["converged"] for e in summary["levels"]):
                return [f"{tag} ladder: a level did not converge"]
            v = read_ladder(out, len(level_list), game.n_states)
            problems = []
            drop = float(np.max(v[:-1] - v[1:]))
            if drop > summary["monotone_slack"]:
                problems.append(f"{tag} ladder values fall by {drop:.3e} > slack {summary['monotone_slack']:.3e}")
            # Absorbing states have zero rates, payoff and terminal reward, so
            # their value is exp(0) = 1, times the unshift factor of a lift c.
            m, c = game.tensors, summary["shift"]
            absorbing = math.exp(-m.theta * m.horizon * c - m.theta * c)
            v0 = np.array(json.loads(game.cert.read_text())["v0"])
            for k, level in enumerate(level_list):
                if np.any(np.abs(v[k, v0 > level] - absorbing) > 4e-16 * absorbing):
                    problems.append(f"{tag} ladder level {level}: an absorbing state's value is not {absorbing!r}")
            return problems

        failed = None if code == 0 else f"ctsg ladder exited {code}: {stdout.strip()[:200]}"
        return Op(name, seconds, failed, check)

    return _guarded(name, op)


@dataclass
class Verifiable:
    """A solved rps game, read back for simulation and deviation checks."""

    game: Game
    policy_json: Path
    x0: int
    mc_seed: int
    dev_seed: int
    model: ctsg.GameModel
    policies: ctsg.PolicyPair
    exact: np.ndarray  # t = 0 value row from the expm oracle


def verifiable(ctx: Context, solved: Solved, x0: int) -> Verifiable:
    game = solved.game
    with ctx.step(f"setup:load-{game.tag}"):
        model = ctsg.io.load_model(game.model)
        policies, _ = ctsg.io.load_policies(solved.policy_json)
    exact = oracles.rps_value_row(game.tensors)
    return Verifiable(game, solved.policy_json, x0, ctx.mc_seed, ctx.dev_seed, model, policies, exact)


def simulate_ops(ctx: Context, target: Verifiable, paths: int, prefix: str, samples: Samples) -> list[Op]:
    """``ctsg simulate`` with 1 and then 2 threads; records mc_paths_per_s_1t/_2t."""
    estimates: dict[int, dict] = {}

    def one(threads: int) -> Op:
        name = f"{prefix}simulate-{threads}t"
        with ctx.step(f"op:{name}"):
            code, stdout, seconds = ctx.cli(
                "simulate", "--model", target.game.model, "--policy", target.policy_json,
                "--x0", target.x0, "--t0", 0.0, "--paths", paths, "--seed", target.mc_seed,
                "--threads", threads,
            )
        samples.add(f"mc_paths_per_s_{threads}t", paths / seconds)
        est = estimates[threads] = _last_json_line(stdout)

        def check() -> list[str]:
            problems = []
            exact = float(target.exact[target.x0])
            if est["paths"] != paths or not abs(est["mean"] - exact) <= 4.0 * est["std_error"]:
                problems.append(
                    f"{name}: mean {est['mean']!r} +/- {est['std_error']:.3e} vs exact {exact!r} at x0={target.x0}"
                )
            if threads == 2 and estimates.get(1) != est:
                problems.append(f"{name}: estimate {est} differs from the 1-thread {estimates.get(1)}")
            return problems

        return Op(name, seconds, None if code == 0 else f"ctsg simulate exited {code}", check)

    return [_guarded(f"{prefix}simulate-{t}t", lambda t=t: one(t)) for t in (1, 2)]


def deviation_ops(ctx: Context, target: Verifiable, prefix: str, samples: Samples) -> list[Op]:
    """``ctsg.deviation_gain`` for each player; records deviation_check_s for both."""

    def one(player: int) -> Op:
        name = f"{prefix}deviation-p{player}"
        with ctx.step(f"op:{name}"):
            start = time.perf_counter()
            rep = ctsg.deviation_gain(
                target.model, target.policies, player, paths=DEVIATION_PATHS,
                rng_seed=target.dev_seed, x0=target.x0,
            )
            seconds = time.perf_counter() - start

        def check() -> list[str]:
            if not rep.gain <= EPS + 3.0 * rep.std_error:
                return [f"{name}: gain {rep.gain!r} > eps + 3 se = {EPS + 3.0 * rep.std_error!r}"]
            return []

        return Op(name, seconds, None, check)

    ops = [_guarded(f"{prefix}deviation-p{p}", lambda p=p: one(p)) for p in (1, 2)]
    if not any(op.failed for op in ops):
        samples.add("deviation_check_s", sum(op.seconds for op in ops))
    return ops


# -- workloads --------------------------------------------------------------------


class Workload:
    """A set-up, then rounds of identical operations.

    ``setup`` returns samples of metrics it measures and checks to run after
    it; ``round`` returns its operations and the samples they recorded.
    """

    name = ""

    def setup(self, ctx: Context) -> tuple[Samples, list[Check]]:
        raise NotImplementedError

    def round(self, ctx: Context) -> tuple[list[Op], Samples]:
        raise NotImplementedError

    def _companion(self, ctx: Context, solve: bool) -> list[Check]:
        """rps on 8 states, solved on the coarse grid when a policy is needed."""
        self.companion = build_example(ctx, "rps", COMPANION, "companion")
        if not solve:
            return []
        self.companion_solved = setup_solve(ctx, self.companion, COARSE_NT)
        self.companion_target = verifiable(ctx, self.companion_solved, ctx.companion_x0)
        return [lambda: check_solved(self.companion_solved, ctx.rng)]

    def _companion_verification(self, ctx: Context, samples: Samples) -> list[Op]:
        target = self.companion_target
        return simulate_ops(ctx, target, COMPANION_MC_PATHS, "companion-", samples) + deviation_ops(
            ctx, target, "companion-", samples
        )

    def _companion_ladder(self, ctx: Context, samples: Samples) -> Op:
        return ladder_op(ctx, self.companion, COMPANION_LEVELS, COARSE_NT, "companion-ladder", samples, False)


class SolveRps64(Workload):
    """``ctsg solve`` on rps64 at n_t = 256, plus homogeneity-lift.

    Companion ladder, simulations and deviation checks run before and after
    the solve, so their short samples spread over the round.
    """

    name = "solve-rps64"

    def setup(self, ctx: Context) -> tuple[Samples, list[Check]]:
        self.rps = build_example(ctx, "rps", RPS64, "rps64")
        checks = self._companion(ctx, solve=True)
        self.lifted = lifted_copy(ctx, self.companion, LIFT_THETA_K, "lifted")
        return Samples(), checks

    def round(self, ctx: Context) -> tuple[list[Op], Samples]:
        samples = Samples()
        ops = self._companion_block(ctx, samples)
        ops.append(solve_op(ctx, self.rps, SOLVE_NT, samples, self._rps_checks))
        samples.fold_cells()
        ops.append(_guarded("homogeneity-lift", lambda: self._lift(ctx)))
        ops += self._companion_block(ctx, samples)
        return ops, samples

    def _companion_block(self, ctx: Context, samples: Samples) -> list[Op]:
        return [self._companion_ladder(ctx, samples)] + self._companion_verification(ctx, samples)

    def _rps_checks(self, values: np.ndarray, pi1: np.ndarray, pi2: np.ndarray) -> list[str]:
        m = self.rps.tensors
        problems = []
        err = float(np.max(np.abs(values[0] - oracles.rps_value_row(m))))
        if err > EPS / 2:
            problems.append(f"rps64 t=0 row is {err:.3e} from expm(QT) exp(theta g), more than eps/2")
        inner = m.coords > 0
        if max(np.max(np.abs(pi[:, inner] - 1.0 / 3.0)) for pi in (pi1, pi2)) > 1e-9:
            problems.append("rps64 policies are not uniform at every cell with x > 0")
        return problems

    def _lift(self, ctx: Context) -> Op:
        """Solve with theta * terminal raised by 30 and compare with e^30 v(g).

        The identity is exact for the discrete operator. The two grids stop
        at different iterates, each within about twice its last iterate
        difference of the common fixed point, which sets the tolerance.
        Known to fail: the absolute stopping threshold lies below the float
        spacing of values near e^30, and the LP's absolute shift is not
        scale-equivariant, so the solve ends at the iteration cap 14 % off.
        """
        with ctx.step("op:homogeneity-lift"):
            solved = run_solve(ctx, self.lifted, COARSE_NT, cert=False, max_iter=LIFT_MAX_ITER)
        if not solved.report:
            return Op("homogeneity-lift", solved.seconds, failed=f"ctsg solve exited {solved.code}")
        n = self.lifted.n_states
        _, v = oracles.read_value_csv(self.companion_solved.value_csv, n)
        _, v_lift = oracles.read_value_csv(solved.value_csv, n)
        scale = math.exp(LIFT_THETA_K)
        rel = float(np.max(np.abs(v_lift - scale * v) / (scale * v)))
        base = self.companion_solved.report
        tol = 2.0 * (base["final_diff"] / np.min(v) + solved.report["final_diff"] / np.min(v_lift))
        if solved.code == 0 and solved.report["converged"] and rel <= tol:
            return Op("homogeneity-lift", solved.seconds)
        return Op(
            "homogeneity-lift",
            solved.seconds,
            failed=(
                f"theta*K={LIFT_THETA_K:g}: exit {solved.code}, converged={solved.report['converged']} "
                f"after {solved.report['iterations']} iterations, last difference "
                f"{solved.report['final_diff']:.3g} vs threshold {solved.report['threshold']:.3g}; "
                f"relative error {rel:.3g}, tolerance {tol:.3g}. Known fault: absolute stopping "
                "threshold below the float spacing near e^30, and absolute LP shift"
            ),
        )


class LadderGaussian64(Workload):
    """``ctsg ladder --kind cap`` and a direct ``ctsg solve`` on gaussian64.

    Companion simulations and deviation checks run before and after them.
    """

    name = "ladder-gaussian64"

    def setup(self, ctx: Context) -> tuple[Samples, list[Check]]:
        self.gaussian = build_example(ctx, "gaussian", GAUSSIAN64, "gaussian64")
        return Samples(), self._companion(ctx, solve=True)

    def round(self, ctx: Context) -> tuple[list[Op], Samples]:
        samples = Samples()
        game = self.gaussian
        n_levels = len(GAUSSIAN_LEVELS.split(","))

        def top_level_is_direct_solve(values: np.ndarray, pi1, pi2) -> list[str]:
            top = read_ladder(ctx.path(f"{game.tag}-ladder.csv"), n_levels, game.n_states)[-1]
            diff = float(np.max(np.abs(top - values[0])))
            if diff > 1e-12 * float(np.max(np.abs(values[0]))):
                return [f"gaussian64 ladder top level differs from the direct solve by {diff:.3e}"]
            return []

        ops = self._companion_verification(ctx, samples)
        ops.append(ladder_op(ctx, game, GAUSSIAN_LEVELS, COARSE_NT, "ladder", samples, True))
        ops.append(solve_op(ctx, game, COARSE_NT, samples, top_level_is_direct_solve))
        samples.fold_cells()
        ops += self._companion_verification(ctx, samples)
        return ops, samples


class VerifyRps64(Workload):
    """Simulate a stored rps64 policy with 1 and 2 threads, then deviation checks.

    The set-up solve on the coarse grid gives solve_s and cells_per_s.
    """

    name = "verify-rps64"

    def setup(self, ctx: Context) -> tuple[Samples, list[Check]]:
        rps = build_example(ctx, "rps", RPS64, "rps64")
        solved = setup_solve(ctx, rps, COARSE_NT)
        self.target = verifiable(ctx, solved, ctx.x0)
        checks = self._companion(ctx, solve=False)
        samples = Samples()
        samples.add("solve_s", solved.seconds)
        samples.add_cells(solved.cells, solved.seconds)
        samples.fold_cells()
        return samples, checks + [lambda: check_solved(solved, ctx.rng)]

    def round(self, ctx: Context) -> tuple[list[Op], Samples]:
        samples = Samples()
        ops = simulate_ops(ctx, self.target, MC_PATHS, "", samples)
        ops += deviation_ops(ctx, self.target, "", samples)
        ops.append(self._companion_ladder(ctx, samples))
        return ops, samples


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (SolveRps64, LadderGaussian64, VerifyRps64)}
