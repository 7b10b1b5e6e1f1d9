"""Value iteration on the backward operator with the provable stopping rule.

The iteration v_{n+1} = Gamma v_n converges because Gamma is a k-step
contraction: with l_tilde = theta ||r|| + 2 ||q||, successive iterates
satisfy ||v_{n+1} - v_n|| <= l_tilde^n T^n / n! ||v_1 - v_0||. Stopping once

    ||v_{n+1} - v_n|| < epsilon / (2 e^{l_tilde T} (1 + 2||q|| / (theta ||r||)))

guarantees the final grid is within epsilon/2 of the value function and the
extracted policy pair is an epsilon-Nash equilibrium, both up to
time-discretization error (ctsg.simulate.evaluate_policies values a policy
pair exactly in time, which measures that gap).
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelScaleError, NumericsError
from .model import GameModel, _count, _real
from .shapley import PolicyPair, TimeGrid, ValueGrid, apply_gamma, boundary_row

logger = logging.getLogger(__name__)

# A solve is refused up front when its stopping threshold is below this many
# units of float spacing (2^-52 relative) at the largest boundary value: the
# iterates cannot then resolve differences that small, so the run would spin
# to max_iterations. The smallest threshold on a shipped model or test fixture,
# gaussian64 at epsilon = 1e-6, is 2.8e4 spacings.
_RESOLUTION_FACTOR = 16.0


@dataclass(frozen=True)
class SolverConfig:
    """Accuracy target and grid resolution for one solve: epsilon > 0, n_t, max_iterations >= 1."""

    epsilon: float
    n_t: int
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon", 0, above=True))
        for name in ("n_t", "max_iterations"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))


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
    """Iterate-difference threshold that certifies an epsilon-Nash pair; norms >= 0, the rest > 0.

    When norm_r = 0 the defining formula divides by theta*norm_r; the exact
    limit of its derivation (the payoff envelope degenerates to T) is used
    instead and a loud warning is emitted.
    """
    epsilon = _real(epsilon, "epsilon", 0, above=True)
    theta, T = _real(theta, "theta", 0, above=True), _real(T, "T", 0, above=True)
    norm_r, norm_q = _real(norm_r, "norm_r", 0), _real(norm_q, "norm_q", 0)
    if norm_r == 0.0:
        logger.warning(
            "degenerate: zero payoff norm; using the limit-form stopping threshold "
            "epsilon / (2 e^{2||q||T} (1 + 2||q||T))"
        )
        return epsilon / (2.0 * _growth(2.0 * norm_q * T) * (1.0 + 2.0 * norm_q * T))
    l_tilde = theta * norm_r + 2.0 * norm_q
    return epsilon / (2.0 * _growth(l_tilde * T) * (1.0 + 2.0 * norm_q / (theta * norm_r)))


def _growth(exponent: float) -> float:
    """exp(exponent) for the stopping threshold, which no double can hold past ~709."""
    try:
        return math.exp(exponent)
    except OverflowError:
        raise ModelScaleError(
            f"stopping threshold needs exp({exponent:.4g}), which overflows double precision; "
            "rescale the payoff or rates, or shorten the horizon"
        ) from None


def contraction_constants(
    theta: float, norm_r: float, norm_q: float, T: float
) -> tuple[float, int, float]:
    """(l_tilde, k, beta): smallest k with beta = l_tilde^k T^k / k! < 1; T > 0, the rest >= 0."""
    theta, norm_r = _real(theta, "theta", 0), _real(norm_r, "norm_r", 0)
    norm_q, T = _real(norm_q, "norm_q", 0), _real(T, "T", 0, above=True)
    l_tilde = theta * norm_r + 2.0 * norm_q
    term = 1.0
    k = 0
    while True:
        k += 1
        term *= l_tilde * T / k
        if term < 1.0:
            return l_tilde, k, term
        if math.isinf(term):  # past l_tilde T ~ 712 the peak term is not a double
            raise ModelScaleError(
                f"contraction constant l_tilde^k T^k / k! overflows double precision "
                f"at l_tilde T = {l_tilde * T:.4g}"
            )


def default_initial_grid(model: GameModel, n_t: int) -> ValueGrid:
    """Boundary row replicated over time: v0(t, x) = exp(theta g(x))."""
    grid = TimeGrid(model.horizon, n_t)
    row = boundary_row(model)
    return ValueGrid(grid, np.tile(row, (n_t + 1, 1)))


def solve(model: GameModel, config: SolverConfig) -> tuple[ValueGrid, PolicyPair, SolverReport]:
    """Iterate the backward operator until the stopping rule fires.

    The iteration starts from default_initial_grid, the boundary row
    exp(theta g) on every time row. Returns the last iterate, the policies
    extracted from the final game-value evaluation (the epsilon-Nash pair
    once converged), and a report. If max_iterations is exhausted the partial
    result is returned with converged = False. A non-finite iterate raises
    NumericsError naming the iteration, and so do, before any iteration, a
    threshold below _RESOLUTION_FACTOR float spacings of the largest
    boundary value exp(theta g), and an iterate that repeats an earlier one
    bit for bit: apply_gamma is deterministic, so the run then cycles
    forever. Each iteration logs its difference at INFO level.
    """
    start = time.perf_counter()
    norm_r = model.norm_r
    norm_q = model.norm_q
    threshold = stopping_threshold(config.epsilon, model.theta, norm_r, norm_q, model.horizon)
    l_tilde, k, beta = contraction_constants(model.theta, norm_r, norm_q, model.horizon)
    resolution = _RESOLUTION_FACTOR * float(np.max(boundary_row(model))) * 2.0**-52
    if threshold < resolution:
        raise NumericsError(
            f"stopping threshold {threshold:.3g} is below the float resolution {resolution:.3g} "
            "of the values, so the iteration cannot meet it; raise epsilon or lower theta * "
            "terminal (v(g + K) = e^(theta K) v(g))"
        )

    v = default_initial_grid(model, config.n_t)
    diffs: list[float] = []
    policies: PolicyPair | None = None
    converged = False
    iterations = 0
    # Digests of iterates whose difference did not fall: a cycle repeats one within two periods.
    seen: dict[bytes, int] = {}
    for iterations in range(1, config.max_iterations + 1):
        v_next, policies = apply_gamma(model, v)
        if not np.isfinite(v_next.values).all():
            raise NumericsError(f"non-finite value appeared at iteration {iterations}")
        diff = float(np.max(np.abs(v_next.values - v.values)))
        diffs.append(diff)
        v = v_next
        logger.info(
            "iteration %d: diff %.6g, threshold %.6g, elapsed %.3f s",
            iterations, diff, threshold, time.perf_counter() - start,
        )
        if diff < threshold:
            converged = True
            break
        if len(diffs) > 1 and diff >= diffs[-2]:
            first = seen.setdefault(hashlib.blake2b(v.values.tobytes()).digest(), iterations)
            if first != iterations:
                raise NumericsError(
                    f"iteration {iterations} repeats the iterate of iteration {first} exactly "
                    f"(difference {diff:.3g}, threshold {threshold:.3g}), so the iteration "
                    "cycles and cannot converge; raise epsilon or refine n_t"
                )
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
