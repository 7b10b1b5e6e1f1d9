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

The weighted payoff c is formed in one place, _payoff_stacks, on any array
of value rows: the operator and verify_saddle read it on the whole grid,
and ctsg.simulate.deviation_gain on one row per interval.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ModelScaleError
from .matrix_game import solve_matrix_games
from .model import _MAX_EXP_ARG, GameModel


@dataclass
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_{n_steps} = horizon."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.horizon) and self.horizon > 0):  # NaN fails too
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def interval_index(self, t: float | np.ndarray) -> np.ndarray:
        """Index i of the interval [t_i, t_{i+1}) containing t; t = T maps to the last.

        Returns int64 indices of t's shape (a 0-d array for a scalar t).
        """
        return np.clip(np.asarray(t) / self.dt, 0, self.n_steps - 1).astype(np.int64)


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


def _payoff_stacks(model: GameModel, V: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The weighted payoff at every row of the value array V, (rows, n_states), stacked by shape.

    Yields (states, C) for each distinct (|A|, |B|), where C has shape
    (len(states), rows, |A|, |B|) and C[k, i] is the weighted payoff of
    states[k] on the values V[i]: weighted_payoff(model, v, i, states[k]) for
    V = v.values, up to the summation order of the generator product.
    """
    for group in model._shape_groups:
        k, na, nb = group.payoff.shape
        # c for all rows of every state at once: (k, rows, na*nb)
        gen_part = np.matmul(V, group.generator.transpose(0, 2, 1))
        pay = model.theta * group.payoff.reshape(k, 1, na * nb)
        C = gen_part + V[:, group.states].T[:, :, None] * pay
        yield group.states, C.reshape(k, -1, na, nb)


def _against(policies: PolicyPair, player: int, states: np.ndarray, C: np.ndarray) -> np.ndarray:
    """A payoff stack reduced by the opponent's mixed action: c pi2 for player 1, pi1' c for 2."""
    if player == 1:
        return C @ np.stack([policies.pi2[x] for x in states])[..., None]
    return np.stack([policies.pi1[x] for x in states])[..., None, :] @ C


def game_value_field(
    model: GameModel, v: ValueGrid
) -> tuple[np.ndarray, PolicyPair]:
    """Matrix-game value of the weighted payoff at every grid cell.

    Returns the (n_steps + 1, n_states) field of game values together with
    the optimal mixed strategies of both players at each cell. All cells
    whose games share a shape are solved by one solve_matrix_games call.
    """
    n_rows = v.grid.n_steps + 1
    a_field = np.empty((n_rows, model.n_states))
    pi1: list[np.ndarray] = [np.empty(0)] * model.n_states
    pi2: list[np.ndarray] = [np.empty(0)] * model.n_states
    for states, C in _payoff_stacks(model, v.values):
        k, _, na, nb = C.shape
        values, p1, p2, _ = solve_matrix_games(C.reshape(k * n_rows, na, nb))
        a_field[:, states] = values.reshape(k, n_rows).T
        p1 = p1.reshape(k, n_rows, na)
        p2 = p2.reshape(k, n_rows, nb)
        for j, x in enumerate(states):
            pi1[x] = p1[j]
            pi2[x] = p2[j]
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
    for states, C in _payoff_stacks(model, v.values):
        row_best = np.max(_against(policies, 1, states, C), axis=(-2, -1))
        col_best = np.min(_against(policies, 2, states, C), axis=(-2, -1))
        worst = max(worst, float(np.max(row_best - col_best)))
    return worst
