"""Approximation ladders reducing unbounded models to bounded solves.

Two constructions, composable:

* capping (for nonnegative payoff/terminal): states outside the sublevel set
  S_n = {x : v0(x) <= n} become absorbing (zero generator row, zero payoff,
  zero terminal), and payoff/terminal inside are capped at n. The resulting
  value grids are nondecreasing in n.

* flooring (general payoff): payoff and terminal are floored at -n; the
  floored values are nonincreasing in n. floor_and_shift also shifts both up
  by n, so the capped construction applies to signed payoffs; the solved grid
  is mapped back with the factor exp(-theta (T - t) n - theta n).

run_ladder drives either ladder across a list of levels and reports values,
successive differences, and the expected monotone ordering.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import GameModel, LyapunovCertificate, _count
from .shapley import ValueGrid
from .solver import SolverConfig, solve

logger = logging.getLogger(__name__)


def sublevel_set(cert: LyapunovCertificate, n: int) -> np.ndarray:
    """Boolean mask of states with v0(x) <= n, an integer level (_count, ValueError otherwise)."""
    return cert.v0 <= _count(n, "n")


def _lowest_reward(model: GameModel) -> float:
    """The lowest payoff or terminal entry; a NaN propagates."""
    return float(np.min([*(group.payoff.min() for group in model._shape_groups), model.terminal.min()]))


def truncate_nonnegative(model: GameModel, cert: LyapunovCertificate, n: int) -> GameModel:
    """Bounded model with absorbing far states and payoff/terminal capped at n.

    Requires an integer n >= 1, r >= 0 and g >= 0 elementwise; negative
    entries should go through floor_and_shift first.
    """
    n = _count(n, "n", 1)
    if _lowest_reward(model) < 0.0:
        raise ValueError(
            "truncate_nonnegative requires nonnegative payoff and terminal reward; "
            "apply floor_and_shift first"
        )
    cert.validate_shape(model.n_states)
    inside = sublevel_set(cert, n)
    return replace(
        model,
        payoff=[np.minimum(n, r) if inside[x] else np.zeros_like(r) for x, r in enumerate(model.payoff)],
        generator=[q if inside[x] else np.zeros_like(q) for x, q in enumerate(model.generator)],
        terminal=np.where(inside, np.minimum(float(n), model.terminal), 0.0),
    )


def _floored(model: GameModel, n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Payoff and terminal floored at -n: max{-n, r} and max{-n, g}."""
    return [np.maximum(-float(n), m) for m in model.payoff], np.maximum(-float(n), model.terminal)


def floor_and_shift(
    model: GameModel, n: int
) -> tuple[GameModel, Callable[[ValueGrid], ValueGrid]]:
    """Floor payoff/terminal at -n and shift both up by n, an integer >= 1.

    The shifted model has payoff max{-n, r} + n >= 0 and terminal
    max{-n, g} + n >= 0. The returned transform maps a value grid solved for
    the shifted model back to the floored model's values by multiplying row
    t with exp(-theta (T - t) n - theta n).
    """
    n = _count(n, "n", 1)
    payoff, terminal = _floored(model, n)
    shifted = replace(model, payoff=[m + float(n) for m in payoff], terminal=terminal + float(n))
    theta, T = model.theta, model.horizon

    def unshift(v: ValueGrid) -> ValueGrid:
        t = v.grid.nodes
        factor = np.exp(-theta * (T - t) * n - theta * n)
        return ValueGrid(v.grid, v.values * factor[:, None])

    return shifted, unshift


@dataclass
class LadderLevelResult:
    """Solve outcome for one ladder level (values with any cap-ladder lift undone)."""

    level: int
    converged: bool
    iterations: int
    threshold: float
    values_t0: np.ndarray
    sup_diff_prev: float | None


@dataclass
class LadderReport:
    """Per-level values and ordering checks for a ladder run."""

    kind: str  # "cap" | "floor"
    levels: list[LadderLevelResult]
    shift: int  # lift applied before a cap ladder on signed payoffs (0 = none)
    monotone_ok: bool
    monotone_slack: float
    worst_monotone_violation: float
    diffs_decreasing: bool


def run_ladder(
    model: GameModel,
    cert: LyapunovCertificate,
    levels: list[int],
    config: SolverConfig,
    kind: str = "cap",
) -> LadderReport:
    """Solve the bounded model at each level and check the monotone ordering.

    kind "cap": capping ladder; values should be nondecreasing in the level.
    A model with negative payoff or terminal entries is first lifted by the
    smallest integer shift c making both nonnegative (the common unshift t
    factor preserves the ordering), recorded in the report.

    kind "floor": flooring ladder; values should be nonincreasing in the
    level. Each level solves the floored model max(-n, r), max(-n, g)
    directly: the discrete backward operator is monotone in the payoff, so
    no time-discretization error of a shift enters the ordering.

    Levels must be strictly increasing integers >= 1 (ValueError up front,
    for both kinds). A level that exhausts max_iterations is recorded
    and the ladder continues; one whose iterates cycle raises NumericsError
    (see solve). Either kind raises CertificateError up front if cert does
    not fit the model, although the floor ladder reads none of its weights.
    """
    if not levels:
        raise ValueError("levels must not be empty")
    levels = [_count(n, f"levels[{i}]", 1) for i, n in enumerate(levels)]
    if levels != sorted(set(levels)):
        raise ValueError("levels must be strictly increasing")
    if kind not in ("cap", "floor"):
        raise ValueError("kind must be 'cap' or 'floor'")
    cert.validate_shape(model.n_states)

    shift = 0
    base = model
    unshift_common: Callable[[ValueGrid], ValueGrid] | None = None
    if kind == "cap":
        lowest = _lowest_reward(model)
        if lowest < 0.0:
            shift = int(math.ceil(-lowest))
            base, unshift_common = floor_and_shift(model, shift)
            logger.info("cap ladder: lifted signed payoff by %d before truncation", shift)

    results: list[LadderLevelResult] = []
    prev: ValueGrid | None = None
    worst_violation = -math.inf
    diffs: list[float] = []
    max_threshold = 0.0
    for n in levels:
        if kind == "cap":
            v, _, rep = solve(truncate_nonnegative(base, cert, n), config)
            if unshift_common is not None:
                v = unshift_common(v)
        else:
            payoff, terminal = _floored(model, n)
            v, _, rep = solve(replace(model, payoff=payoff, terminal=terminal), config)
        if not rep.converged:
            logger.warning("ladder level %d did not converge in %d iterations", n, rep.iterations)
        max_threshold = max(max_threshold, rep.threshold)
        sup_diff = None
        if prev is not None:
            sup_diff = float(np.max(np.abs(v.values - prev.values)))
            diffs.append(sup_diff)
            lower, upper = (prev, v) if kind == "cap" else (v, prev)
            worst_violation = max(worst_violation, float(np.max(lower.values - upper.values)))
        results.append(
            LadderLevelResult(
                level=n,
                converged=rep.converged,
                iterations=rep.iterations,
                threshold=rep.threshold,
                values_t0=v.values[0].copy(),
                sup_diff_prev=sup_diff,
            )
        )
        prev = v

    slack = 10.0 * max_threshold
    monotone_ok = worst_violation <= slack
    diffs_decreasing = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    return LadderReport(
        kind=kind,
        levels=results,
        shift=shift,
        monotone_ok=monotone_ok,
        monotone_slack=slack,
        worst_monotone_violation=worst_violation,
        diffs_decreasing=diffs_decreasing,
    )
