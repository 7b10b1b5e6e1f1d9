"""Backward value operator on a time grid.

One application of the operator takes the current value grid v, forms at
every grid cell (t_i, x) the weighted one-shot payoff matrix

    c(t, x, v, a, b) = theta r(x,a,b) v(t,x) + sum_y v(t,y) q(y|x,a,b),

solves the resulting matrix game, and integrates the game-value field
backward in time with the composite trapezoidal rule:

    v_next(t, x) = exp(theta g(x)) + integral_t^T (game value)(s, x) ds.

The boundary row v_next(T, x) = exp(theta g(x)) holds exactly by
construction. Policies are attached to grid nodes and are interpreted as
piecewise constant on [t_i, t_{i+1}) (left endpoint), the same convention
the Monte Carlo simulator uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelScaleError
from .matrix_game import solve_matrix_game
from .model import GameModel

# exp overflows just above this; used to reject unrepresentable boundary rows
_MAX_EXP_ARG = 700.0


@dataclass
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_{n_steps} = horizon."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def interval_index(self, t: float | np.ndarray) -> int | np.ndarray:
        """Index i of the interval [t_i, t_{i+1}) containing t; t = T maps to the last.

        Accepts a scalar (returns an int) or an array (returns int64 indices).
        """
        i = np.clip(np.asarray(t) / self.dt, 0, self.n_steps - 1).astype(np.int64)
        return int(i) if i.ndim == 0 else i


@dataclass
class ValueGrid:
    """A function v(t, x) sampled on a shared time grid and state set."""

    grid: TimeGrid
    values: np.ndarray  # shape (n_steps + 1, n_states)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_steps + 1,)
        if self.values.ndim != 2 or self.values.shape[0] != expected[0]:
            raise ValueError(
                f"values must have {self.grid.n_steps + 1} time rows, got shape {self.values.shape}"
            )

    @property
    def n_states(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "ValueGrid":
        return ValueGrid(self.grid, self.values.copy())


@dataclass
class PolicyPair:
    """Time-indexed mixed Markov policies for both players.

    pi1[x] has shape (n_steps + 1, |A(x)|); pi2[x] likewise over B(x).
    Row i is the mixed action distribution in force on [t_i, t_{i+1}).
    """

    grid: TimeGrid
    pi1: list[np.ndarray]
    pi2: list[np.ndarray]

    @property
    def n_states(self) -> int:
        return len(self.pi1)


def boundary_row(model: GameModel) -> np.ndarray:
    """exp(theta g(x)), validated against double-precision overflow."""
    arg = model.theta * model.terminal
    if float(np.max(arg)) > _MAX_EXP_ARG:
        raise ModelScaleError(
            "exp(theta * terminal) overflows double precision; rescale or truncate the model"
        )
    return np.exp(arg)


def weighted_payoff(model: GameModel, v: ValueGrid, t_index: int, x: int) -> np.ndarray:
    """The |A(x)| x |B(x)| one-shot payoff matrix c(t_index, x, v, ., .)."""
    row = v.values[t_index]
    return model.theta * model.payoff[x] * row[x] + model.generator[x] @ row


def game_value_field(
    model: GameModel, v: ValueGrid
) -> tuple[np.ndarray, PolicyPair]:
    """Matrix-game value of the weighted payoff at every grid cell.

    Returns the (n_steps + 1, n_states) field of game values together with
    the optimal mixed strategies of both players at each cell.
    """
    n_t = v.grid.n_steps
    n_x = model.n_states
    a_field = np.empty((n_t + 1, n_x))
    pi1 = [np.empty((n_t + 1, model.n_actions_p1(x))) for x in range(n_x)]
    pi2 = [np.empty((n_t + 1, model.n_actions_p2(x))) for x in range(n_x)]
    V = v.values
    theta = model.theta
    for x in range(n_x):
        q = model.generator[x]
        na, nb = q.shape[0], q.shape[1]
        # c for all time rows at once: (n_t+1, na*nb)
        gen_part = V @ q.reshape(na * nb, n_x).T
        pay = theta * model.payoff[x].reshape(na * nb)
        c_all = gen_part + V[:, x : x + 1] * pay[None, :]
        for i in range(n_t + 1):
            sol = solve_matrix_game(c_all[i].reshape(na, nb))
            a_field[i, x] = sol.value
            pi1[x][i] = sol.strategy_p1
            pi2[x][i] = sol.strategy_p2
    return a_field, PolicyPair(v.grid, pi1, pi2)


def integrate_backward(grid: TimeGrid, a_field: np.ndarray, boundary: np.ndarray) -> ValueGrid:
    """Trapezoidal backward cumulative integral plus the boundary row."""
    dt = grid.dt
    mids = 0.5 * dt * (a_field[:-1] + a_field[1:])  # (n_steps, n_states)
    tail = np.zeros_like(a_field)
    tail[:-1] = np.cumsum(mids[::-1], axis=0)[::-1]
    values = boundary[None, :] + tail
    values[-1] = boundary  # exact, not boundary + 0.0 roundoff
    return ValueGrid(grid, values)


def apply_gamma(model: GameModel, v: ValueGrid) -> tuple[ValueGrid, PolicyPair]:
    """One backward-operator application: game values, then time integration.

    Returns the updated value grid and the optimal policies extracted from
    the matrix games evaluated on the input grid.
    """
    if not np.isfinite(v.values).all():
        raise ModelScaleError("value grid contains non-finite entries")
    boundary = boundary_row(model)
    a_field, policies = game_value_field(model, v)
    return integrate_backward(v.grid, a_field, boundary), policies


def verify_saddle(
    model: GameModel, v: ValueGrid, policies: PolicyPair
) -> float:
    """Worst sup-inf gap of the extracted policies over all grid cells.

    For each cell, with c the weighted payoff on v, computes
    max_a (c pi2)_a - min_b (pi1' c)_b; at an exact saddle this is <= 0 up
    to LP tolerance. Returns the maximum over cells.
    """
    worst = -np.inf
    for x in range(model.n_states):
        for i in range(v.grid.n_steps + 1):
            c = weighted_payoff(model, v, i, x)
            gap = float(np.max(c @ policies.pi2[x][i]) - np.min(policies.pi1[x][i] @ c))
            worst = max(worst, gap)
    return worst
