"""Builders for gridded benchmark games with published Lyapunov certificates.

Two families:

* a cyclic scissors-paper-stone game on [0, x_max]: antisymmetric payoff of
  magnitude alpha sqrt(ln(1+x)), exponential jump kernel with mean equal to
  the current state, terminal reward sqrt(ln(1+x))/2. Certificate
  v0 = 1 + x, v1 = (1+x)^2 with constants (rho0, l0, m0) = (1, L, 1) and
  (rho1, b1, m1) = (23 L, 1, 1), L the sojourn-rate bound.

* a Gaussian-jump game on [x_min, x_max]: kernel N(x, sigma^2) scaled by the
  sojourn rate lambda(x, a, b) = M (1 + x^2). Certificate v0 = 1 + x^2,
  v1 = 1 + x^4 with (rho0, l0) = (M sigma^2, M) and
  rho1 = 3780 M (sigma^8 + sigma^6 + sigma^4 + sigma^2), b1 = 1, m1 = 2.

Both builders discretize the jump density by deterministic midpoint cell
integration with the self-cell mass folded into the diagonal, so every row
sums to zero exactly and the outputs pass generator validation as-is.
"""

from __future__ import annotations

import logging
import math
from typing import Callable

import numpy as np

from .errors import DiscretizationError
from .model import GameModel, LyapunovCertificate

logger = logging.getLogger(__name__)

_GAUSS_MASS_WARN = 0.999

# Cyclic win pattern: row beats column for (scissors, paper), (paper, stone),
# (stone, scissors); indices 0 = scissors, 1 = paper, 2 = stone.
_RPS_SIGN = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
# Gaussian game's payoff pattern, scaled by payoff_bound x^2 / (1 + x^2).
_GAUSS_PATTERN = np.array([[1.0, 0.2], [0.0, 0.8]])

RateFn = Callable[[float, int, int], float]


def discretize_density(
    density: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    rate: float,
    x_index: int,
) -> np.ndarray:
    """Generator row for the kernel rate * [density - point mass at grid[x_index]].

    Cell masses come from midpoint integration (density at the node times the
    cell width) normalized over the whole grid; the self-cell share is folded
    into the diagonal, so the row sums to zero exactly:
    row[y] = rate * p[y] for y != x, row[x] = -rate * (1 - p[x]).
    """
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0] if len(grid) > 1 else 1.0
    masses = np.clip(np.asarray(density(grid), dtype=float), 0.0, None) * h
    total = float(masses.sum())
    if total <= 0.0:
        raise DiscretizationError("density vanishes on the whole grid")
    p = masses / total
    row = rate * p
    row[x_index] = -rate * (1.0 - p[x_index])
    return row


def build_rps(
    alpha: float,
    lambda_fn: RateFn | None = None,
    *,
    lambda_bound: float = 1.0,
    x_max: float,
    n_x: int,
    theta: float,
    T: float,
) -> tuple[GameModel, LyapunovCertificate]:
    """Scissors-paper-stone game discretized on [0, x_max] with its certificate.

    alpha in (0, 0.5] scales the winner's payoff rate alpha sqrt(ln(1+x));
    lambda_fn(x, a, b) is the sojourn rate, defaulting to the constant bound
    lambda_bound (must stay in (0, lambda_bound]). The x = 0 node is
    jump-free: its exponential kernel degenerates to a point mass at 0.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    if lambda_bound <= 0:
        raise ValueError("lambda_bound must be positive")
    if n_x < 2:
        raise ValueError("need at least two grid nodes")
    if lambda_fn is None:
        lambda_fn = lambda x, a, b: lambda_bound

    grid = np.linspace(0.0, x_max, n_x)
    payoff = []
    generator = []
    for ix, x in enumerate(grid):
        mag = alpha * math.sqrt(math.log1p(x))
        payoff.append(mag * _RPS_SIGN)
        q = np.zeros((3, 3, n_x))
        if x > 0.0:
            base = discretize_density(lambda y: np.exp(-y / x) / x, grid, 1.0, ix)
            for a in range(3):
                for b in range(3):
                    lam = float(lambda_fn(x, a, b))
                    if not 0.0 < lam <= lambda_bound:
                        raise ValueError(
                            f"sojourn rate {lam} at (x={x}, a={a}, b={b}) outside (0, {lambda_bound}]"
                        )
                    q[a, b] = lam * base
        generator.append(q)
    terminal = 0.5 * np.sqrt(np.log1p(grid))

    model = GameModel(
        actions_p1=[[0, 1, 2]] * n_x,
        actions_p2=[[0, 1, 2]] * n_x,
        payoff=payoff,
        generator=generator,
        terminal=terminal,
        theta=theta,
        horizon=T,
        coords=grid,
    )
    cert = LyapunovCertificate(
        v0=1.0 + grid,
        v1=(1.0 + grid) ** 2,
        rho0=1.0,
        l0=lambda_bound,
        m0=1.0,
        rho1=23.0 * lambda_bound,
        b1=1.0,
        m1=1.0,
    )
    return model, cert


def build_gaussian(
    *,
    sigma: float,
    rate_bound: float,
    payoff_bound: float,
    x_min: float,
    x_max: float,
    n_x: int,
    theta: float,
    T: float,
) -> tuple[GameModel, LyapunovCertificate]:
    """Gaussian-jump game discretized on [x_min, x_max] with its certificate.

    lambda(x, a, b) = rate_bound (1 + x^2), which attains the rate hypothesis;
    the payoff is a fixed 2x2 pattern scaled by payoff_bound x^2/(1+x^2), and
    g(x) = payoff_bound x^2 / (2 (1 + x^2)). Rows whose truncated Gaussian
    mass falls below 0.999 trigger a warning (drift checks degrade near the
    grid boundary).
    """
    if not (sigma > 0 and rate_bound > 0 and payoff_bound > 0):  # NaN fails too
        raise ValueError("sigma, rate_bound and payoff_bound must be positive")
    if n_x < 2:
        raise ValueError("need at least two grid nodes")

    grid = np.linspace(x_min, x_max, n_x)
    h = grid[1] - grid[0]
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    payoff = []
    generator = []
    terminal = np.zeros(n_x)
    thin_rows = 0
    for ix, x in enumerate(grid):
        share = x * x / (1.0 + x * x)
        payoff.append((payoff_bound * _GAUSS_PATTERN) * share)
        terminal[ix] = 0.5 * payoff_bound * share
        density = lambda y: norm * np.exp(-((y - x) ** 2) / (2.0 * sigma * sigma))
        if float(np.sum(density(grid)) * h) < _GAUSS_MASS_WARN:
            thin_rows += 1
        base = discretize_density(density, grid, 1.0, ix)
        generator.append(np.broadcast_to((rate_bound * (1.0 + x * x)) * base, (2, 2, n_x)))
    if thin_rows:
        logger.warning(
            "truncated Gaussian mass below %.3f at %d of %d grid nodes; "
            "drift checks near the boundary will degrade",
            _GAUSS_MASS_WARN,
            thin_rows,
            n_x,
        )

    model = GameModel(
        actions_p1=[[0, 1]] * n_x,
        actions_p2=[[0, 1]] * n_x,
        payoff=payoff,
        generator=generator,
        terminal=terminal,
        theta=theta,
        horizon=T,
        coords=grid,
    )
    s2 = sigma * sigma
    cert = LyapunovCertificate(
        v0=1.0 + grid**2,
        v1=1.0 + grid**4,
        rho0=rate_bound * s2,
        l0=rate_bound,
        m0=payoff_bound,
        rho1=3780.0 * rate_bound * (s2**4 + s2**3 + s2**2 + s2),
        b1=1.0,
        m1=2.0,
    )
    return model, cert
