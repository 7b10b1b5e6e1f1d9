"""Builders for gridded benchmark games with published Lyapunov certificates.

Each generator is q(y|x,a,b) = lambda(x) k_x(y): the sojourn rate times one
(n_x, n_x) jump-kernel matrix, the same for every action pair. Two families:

* a cyclic scissors-paper-stone game on [0, x_max]: antisymmetric payoff of
  magnitude alpha sqrt(ln(1+x)), exponential jump kernel with mean equal to
  the current state at rate L, terminal reward sqrt(ln(1+x))/2. Certificate
  v0 = 1 + x, v1 = (1+x)^2 with constants (rho0, l0, m0) = (1, L, 1) and
  (rho1, b1, m1) = (23 L, 1, 1), L the sojourn-rate bound.

* a Gaussian-jump game on [x_min, x_max]: kernel N(x, sigma^2) scaled by the
  sojourn rate M (1 + x^2). Certificate v0 = 1 + x^2,
  v1 = 1 + x^4 with (rho0, l0) = (M sigma^2, M) and
  rho1 = 3780 M (sigma^8 + sigma^6 + sigma^4 + sigma^2), b1 = 1, m1 = 2.

The kernel discretizes the jump density by a rectangle rule: every node, end
nodes included, carries the full cell width. The self-cell mass is folded
into the diagonal, so every row sums to zero exactly and the outputs pass
generator validation as-is. The model receives the generator as a read-only
broadcast over the action pairs, so its shape-group stack is the only full
copy.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import DiscretizationError
from .model import GameModel, LyapunovCertificate, _count, _real

logger = logging.getLogger(__name__)

_GAUSS_MASS_WARN = 0.999

# Cyclic win pattern: row beats column for (scissors, paper), (paper, stone),
# (stone, scissors); indices 0 = scissors, 1 = paper, 2 = stone.
_RPS_SIGN = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
# Gaussian game's payoff pattern, scaled by payoff_bound x^2 / (1 + x^2).
_GAUSS_PATTERN = np.array([[1.0, 0.2], [0.0, 0.8]])


def _jump_rows(density: np.ndarray, h: float) -> np.ndarray:
    """Unit-rate jump kernel from the (n_x, n_x) density matrix, built in place.

    density[x, y] is the jump density from node x at node y. Cell masses are
    the clipped density times the cell width h, normalized per row; the
    self-cell share is folded into the diagonal, so every row sums to zero:
    k[x, y] = p[x, y] for y != x, k[x, x] = -(1 - p[x, x]).
    """
    np.clip(density, 0.0, None, out=density)
    density *= h
    total = density.sum(axis=1)
    bad = np.flatnonzero(~(np.isfinite(total) & (total > 0.0)))
    if bad.size:
        raise DiscretizationError(
            f"jump density from node {bad[0]} has grid mass {total[bad[0]]}, not finite and positive"
        )
    density /= total[:, None]
    np.fill_diagonal(density, -(1.0 - density.diagonal()))
    return density


def build_rps(
    alpha: float,
    *,
    lambda_bound: float = 1.0,
    x_max: float,
    n_x: int,
    theta: float,
    T: float,
) -> tuple[GameModel, LyapunovCertificate]:
    """Scissors-paper-stone game discretized on [0, x_max] with its certificate.

    alpha in (0, 0.5] scales the winner's payoff rate alpha sqrt(ln(1+x));
    the sojourn rate is lambda_bound at every node and action pair. The x = 0
    node is jump-free: its exponential kernel degenerates to a point mass at 0.
    lambda_bound and x_max must be positive, and n_x >= 2; GameModel checks theta and T.
    """
    reals = {"alpha": alpha, "lambda_bound": lambda_bound, "x_max": x_max}
    alpha, lambda_bound, x_max = (_real(value, name, 0, above=True) for name, value in reals.items())
    if alpha > 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5], got {alpha}")
    n_x = _count(n_x, "n_x", 2)

    grid = np.linspace(0.0, x_max, n_x)
    mean = grid.copy()
    mean[0] = 1.0  # placeholder: the x = 0 row is zeroed below
    with np.errstate(all="ignore"):  # _jump_rows and the certificate refuse what overflows
        kernel = np.exp(-grid / mean[:, None]) / mean[:, None]
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
    cert.validate_shape(n_x)
    kernel = _jump_rows(kernel, grid[1] - grid[0])
    kernel *= lambda_bound
    kernel[0] = 0.0
    # math.log1p per node: numpy's log1p can differ from it in the last bit.
    magnitude = np.array([alpha * math.sqrt(math.log1p(x)) for x in grid])

    model = GameModel(
        actions_p1=[[0, 1, 2]] * n_x,
        actions_p2=[[0, 1, 2]] * n_x,
        payoff=magnitude[:, None, None] * _RPS_SIGN,
        generator=np.broadcast_to(kernel[:, None, None, :], (n_x, 3, 3, n_x)),
        terminal=0.5 * np.sqrt(np.log1p(grid)),
        theta=theta,
        horizon=T,
        coords=grid,
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
    grid boundary). sigma, rate_bound and payoff_bound must be positive, x_min
    < x_max and n_x >= 2; GameModel checks theta and T.
    """
    reals = {"sigma": sigma, "rate_bound": rate_bound, "payoff_bound": payoff_bound}
    sigma, rate_bound, payoff_bound = (_real(value, name, 0, above=True) for name, value in reals.items())
    x_min, x_max = _real(x_min, "x_min"), _real(x_max, "x_max")
    if x_min >= x_max:
        raise ValueError("x_min must lie below x_max")
    n_x = _count(n_x, "n_x", 2)

    grid = np.linspace(x_min, x_max, n_x)
    h = grid[1] - grid[0]
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    s2 = np.float64(sigma * sigma)  # its powers overflow to inf, not OverflowError
    with np.errstate(all="ignore"):  # the checks below refuse what overflows
        kernel = norm * np.exp(-((grid[None, :] - grid[:, None]) ** 2) / (2.0 * sigma * sigma))
        thin_rows = int(np.count_nonzero(kernel.sum(axis=1) * h < _GAUSS_MASS_WARN))
        rate = rate_bound * (1.0 + grid * grid)
        cert = LyapunovCertificate(
            v0=1.0 + grid**2,
            v1=1.0 + grid**4,
            rho0=float(rate_bound * s2),
            l0=rate_bound,
            m0=payoff_bound,
            rho1=float(3780.0 * rate_bound * (s2**4 + s2**3 + s2**2 + s2)),
            b1=1.0,
            m1=2.0,
        )
    cert.validate_shape(n_x)
    if not np.isfinite(rate).all():
        raise ValueError("the sojourn rate rate_bound (1 + x^2) overflows on [x_min, x_max]")
    kernel = _jump_rows(kernel, h)
    kernel *= rate[:, None]
    share = grid * grid / (1.0 + grid * grid)

    model = GameModel(
        actions_p1=[[0, 1]] * n_x,
        actions_p2=[[0, 1]] * n_x,
        payoff=(payoff_bound * _GAUSS_PATTERN) * share[:, None, None],
        generator=np.broadcast_to(kernel[:, None, None, :], (n_x, 2, 2, n_x)),
        terminal=0.5 * payoff_bound * share,
        theta=theta,
        horizon=T,
        coords=grid,
    )
    if thin_rows:
        logger.warning(
            "truncated Gaussian mass below %.3f at %d of %d grid nodes; "
            "drift checks near the boundary will degrade",
            _GAUSS_MASS_WARN,
            thin_rows,
            n_x,
        )
    return model, cert
