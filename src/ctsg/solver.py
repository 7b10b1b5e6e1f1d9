"""Value iteration on the backward operator with the provable stopping rule.

The iteration v_{n+1} = Gamma v_n converges because Gamma is a k-step
contraction: with l_tilde = theta ||r|| + 2 ||q||, successive iterates
satisfy ||v_{n+1} - v_n|| <= l_tilde^n T^n / n! ||v_1 - v_0||. Stopping once

    ||v_{n+1} - v_n|| < epsilon / (2 e^{l_tilde T} (1 + 2||q|| / (theta ||r||)))

guarantees the final grid is within epsilon/2 of the value function and the
extracted policy pair is an epsilon-Nash equilibrium, both up to
time-discretization error (grid refinement is the control for that gap).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .model import GameModel
from .shapley import PolicyPair, TimeGrid, ValueGrid, apply_gamma, boundary_row

logger = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    """Accuracy target and grid resolution for one solve."""

    epsilon: float
    n_t: int
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n_t < 1:
            raise ValueError("n_t must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolverReport:
    """Convergence diagnostics for one solve."""

    iterations: int
    final_diff: float
    threshold: float
    norm_r: float
    norm_q: float
    l_tilde: float
    k: int
    beta: float
    converged: bool
    wall_time: float
    diff_history: list[float] = field(default_factory=list)


def stopping_threshold(
    epsilon: float, theta: float, norm_r: float, norm_q: float, T: float
) -> float:
    """Iterate-difference threshold that certifies an epsilon-Nash pair.

    When norm_r = 0 the defining formula divides by theta*norm_r; the exact
    limit of its derivation (the payoff envelope degenerates to T) is used
    instead and a loud warning is emitted.
    """
    if epsilon <= 0 or theta <= 0 or T <= 0 or norm_r < 0 or norm_q < 0:
        raise ValueError("threshold arguments must be positive (norms nonnegative)")
    if norm_r == 0.0:
        logger.warning(
            "degenerate: zero payoff norm; using the limit-form stopping threshold "
            "epsilon / (2 e^{2||q||T} (1 + 2||q||T))"
        )
        return epsilon / (2.0 * math.exp(2.0 * norm_q * T) * (1.0 + 2.0 * norm_q * T))
    l_tilde = theta * norm_r + 2.0 * norm_q
    return epsilon / (2.0 * math.exp(l_tilde * T) * (1.0 + 2.0 * norm_q / (theta * norm_r)))


def contraction_constants(
    theta: float, norm_r: float, norm_q: float, T: float
) -> tuple[float, int, float]:
    """(l_tilde, k, beta): smallest k with beta = l_tilde^k T^k / k! < 1."""
    if min(theta, norm_r, norm_q) < 0 or T <= 0:
        raise ValueError("inputs must be nonnegative with T > 0")
    l_tilde = theta * norm_r + 2.0 * norm_q
    term = 1.0
    k = 0
    while True:
        k += 1
        term *= l_tilde * T / k
        if term < 1.0:
            return l_tilde, k, term


def default_initial_grid(model: GameModel, n_t: int) -> ValueGrid:
    """Boundary row replicated over time: v0(t, x) = exp(theta g(x))."""
    grid = TimeGrid(model.horizon, n_t)
    row = boundary_row(model)
    return ValueGrid(grid, np.tile(row, (n_t + 1, 1)))


def solve(
    model: GameModel, config: SolverConfig, v0: ValueGrid | None = None
) -> tuple[ValueGrid, PolicyPair, SolverReport]:
    """Iterate the backward operator from v0 until the stopping rule fires.

    Returns the last iterate, the policies extracted from the final
    game-value evaluation (the epsilon-Nash pair once converged), and a
    report. If max_iterations is exhausted the partial result is returned
    with converged = False. A non-finite v0 raises ModelScaleError; a
    non-finite iterate raises NumericsError naming the iteration.
    """
    start = time.perf_counter()
    norm_r = model.norm_r
    norm_q = model.norm_q
    threshold = stopping_threshold(config.epsilon, model.theta, norm_r, norm_q, model.horizon)
    l_tilde, k, beta = contraction_constants(model.theta, norm_r, norm_q, model.horizon)

    if v0 is None:
        v = default_initial_grid(model, config.n_t)
    else:
        if v0.grid.n_steps != config.n_t or v0.grid.horizon != model.horizon:
            raise ValueError("v0 grid does not match the solver configuration")
        v = v0.copy()

    diffs: list[float] = []
    policies: PolicyPair | None = None
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        v_next, policies = apply_gamma(model, v)
        if not np.isfinite(v_next.values).all():
            raise NumericsError(f"non-finite value appeared at iteration {iterations}")
        diff = float(np.max(np.abs(v_next.values - v.values)))
        diffs.append(diff)
        v = v_next
        if diff < threshold:
            converged = True
            break
    if not converged:
        logger.warning("max_iterations=%d exhausted; returning partial result", config.max_iterations)

    report = SolverReport(
        iterations=iterations,
        final_diff=diffs[-1],
        threshold=threshold,
        norm_r=norm_r,
        norm_q=norm_q,
        l_tilde=l_tilde,
        k=k,
        beta=beta,
        converged=converged,
        wall_time=time.perf_counter() - start,
        diff_history=diffs,
    )
    assert policies is not None
    return v, policies, report


def grid_refinement_check(model: GameModel, config: SolverConfig) -> float:
    """Sup change of the t = 0 value row when the time grid is doubled.

    Diagnostic for the time-discretization gap the stopping rule cannot see.
    """
    coarse, _, _ = solve(model, config)
    fine_cfg = SolverConfig(config.epsilon, 2 * config.n_t, config.max_iterations)
    fine, _, _ = solve(model, fine_cfg)
    return float(np.max(np.abs(fine.values[0] - coarse.values[0])))
