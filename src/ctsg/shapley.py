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
of value rows, games last: the operator and verify_saddle read it on the
whole grid, and ctsg.simulate.deviation_gain on one row per interval, the
last two through _pure_payoffs in that same layout. A PolicyPair keeps one
layout from the sweep to the policy file, a C-order stack per shape group and
player, which _checked_policies checks where it lies, refusing a row that is
not a probability vector, and hands uncopied to verify_saddle and ctsg.simulate.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .errors import ModelScaleError
from .matrix_game import solve_games_last
from .model import _MAX_EXP_ARG, GameModel, _count, _group_by_shape, _per_state, _real, _ShapeGroup

_PROBABILITY_TOL = 1e-9  # policy rows need entries >= -tol and a sum within tol of 1
# Each shape group with its states' stacked pi1 and pi2 rows, from _checked_policies.
_Groups = list[tuple[_ShapeGroup, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_{n_steps} = horizon, with horizon > 0 and n_steps >= 1."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", _real(self.horizon, "horizon", 0, above=True))
        object.__setattr__(self, "n_steps", _count(self.n_steps, "n_steps", 1))

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


@dataclass(frozen=True)
class ValueGrid:
    """A function v(t, x) sampled on a shared time grid and state set."""

    grid: TimeGrid
    values: np.ndarray  # shape (n_steps + 1, n_states)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"values must have {self.grid.n_steps + 1} time rows, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, init=False)
class PolicyPair:
    """Time-indexed mixed Markov policies for both players, stacked per action-set shape.

    Built from per-state rows pi1[x], (n_steps + 1, |A(x)|), and pi2[x] over B(x),
    row i in force on [t_i, t_{i+1}); ValueError unless both players have n_steps + 1
    rows over one or more actions for each of as many states. _stacks holds one C-order
    (states, pi1, pi2) per shape group, in the model's group order; pi1 and pi2 read back
    as tuples of views into the stacks, built on first read, as GameModel.payoff is.
    """

    grid: TimeGrid
    _stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = field(repr=False)

    def __init__(self, grid: TimeGrid, pi1: Sequence[np.ndarray], pi2: Sequence[np.ndarray]) -> None:
        pi1, pi2 = ([np.asarray(p, dtype=float) for p in rows] for rows in (pi1, pi2))
        if len(pi1) != len(pi2):
            raise ValueError(f"pi1 has rows for {len(pi1)} states, pi2 for {len(pi2)}")
        n_rows = grid.n_steps + 1
        for name, x, p in ((n, x, p) for n, ps in (("pi1", pi1), ("pi2", pi2)) for x, p in enumerate(ps)):
            if p.ndim != 2 or len(p) != n_rows:
                raise ValueError(f"{name} of state {x} has shape {p.shape}, not n_steps + 1 = {n_rows} rows")
            if not p.shape[1]:
                raise ValueError(f"{name} of state {x} has rows over no action")
        # np.array, unlike np.stack, writes C order whatever the rows' strides
        self.__dict__.update(grid=grid, _stacks=tuple(
            (s, np.array([pi1[x] for x in s]), np.array([pi2[x] for x in s]))
            for s in _group_by_shape((p1.shape[1], p2.shape[1]) for p1, p2 in zip(pi1, pi2))
        ))

    @classmethod
    def _of_stacks(cls, grid: TimeGrid, stacks: tuple[tuple[np.ndarray, ...], ...]) -> PolicyPair:
        """The pair that holds these (states, pi1, pi2) stacks themselves, unchecked and uncopied."""
        pair = object.__new__(cls)
        pair.__dict__.update(grid=grid, _stacks=stacks)
        return pair

    pi1 = cached_property(lambda self: _per_state((states, p1) for states, p1, _ in self._stacks))
    pi2 = cached_property(lambda self: _per_state((states, p2) for states, _, p2 in self._stacks))


def _checked_policies(model: GameModel, policies: PolicyPair) -> _Groups:
    """Each shape group of the model with the pair's pi1 and pi2 stacks, checked and not copied.

    Raises ValueError when the policy grid's horizon does not match the model, when a
    stack does not hold its model group's states, action counts and n_steps + 1 rows, or
    when a row is not a probability vector (an entry below -_PROBABILITY_TOL, or a sum
    more than _PROBABILITY_TOL from 1; NaN fails both), naming the player, state and row.
    """
    grid = policies.grid
    if abs(grid.horizon - model.horizon) > 1e-12 * max(1.0, model.horizon):
        raise ValueError("policy grid horizon does not match the model")
    n_rows = grid.n_steps + 1
    shapes = [(group.states.tolist(), *group.payoff.shape) for group in model._shape_groups]
    want = [(states, (k, n_rows, na), (k, n_rows, nb)) for states, k, na, nb in shapes]
    got = [(states.tolist(), p1.shape, p2.shape) for states, p1, p2 in policies._stacks]
    if got != want:
        have, need = next((g, w) for g, w in zip_longest(got, want) if g != w)
        raise ValueError(f"policy shapes (states, pi1, pi2) {have} do not match the model and grid: {need}")
    for states, p1, p2 in policies._stacks:
        for name, p in (("pi1", p1), ("pi2", p2)):
            ok = (p >= -_PROBABILITY_TOL).all(axis=2) & (np.abs(p.sum(axis=2) - 1.0) <= _PROBABILITY_TOL)
            if not ok.all():
                j, i = np.unravel_index(int(np.argmin(ok)), ok.shape)
                row = p[j, i].tolist()
                raise ValueError(f"{name} at state {states[j]}, row {i} is not a probability vector: {row}")
    return [(group, p1, p2) for group, (_, p1, p2) in zip(model._shape_groups, policies._stacks)]


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

    Yields (states, C) for each distinct (|A|, |B|), where C is a contiguous
    games-last array of shape (|A|, |B|, len(states), rows) and C[:, :, k, i]
    is the weighted payoff of states[k] on the values V[i]:
    weighted_payoff(model, v, i, states[k]) for V = v.values, up to the
    summation order of the generator product.
    """
    for group in model._shape_groups:
        k, na, nb = group.payoff.shape
        # c for all rows of every state at once, games last: (na*nb, k, rows) in C
        # order, not the operands' transposed layouts. The generator product comes
        # out (k, rows, na*nb), is transposed as it is added and is then dropped.
        pay = model.theta * group.payoff.reshape(k, na * nb).T
        C = np.multiply(V[:, group.states].T, pay[:, :, None], order="C")
        C += np.matmul(V, group.generator.transpose(0, 2, 1)).transpose(2, 0, 1)
        yield group.states, C.reshape(na, nb, k, -1)


def game_value_field(model: GameModel, v: ValueGrid) -> tuple[np.ndarray, PolicyPair]:
    """Matrix-game value of the weighted payoff at every grid cell.

    Returns the (n_steps + 1, n_states) field of game values together with
    the optimal mixed strategies of both players at each cell. All cells
    whose games share a shape are solved by one solve_games_last call, and
    its games-last strategies become that group's policy stacks.
    """
    n_rows = v.grid.n_steps + 1
    a_field = np.empty((n_rows, model.n_states))
    stacks = []
    for states, C in _payoff_stacks(model, v.values):
        na, nb, k, _ = C.shape
        values, p1, p2, _ = solve_games_last(C.reshape(na, nb, k * n_rows))
        a_field[:, states] = values.reshape(k, n_rows).T
        # (k, n_rows, |A|) in C order, as a policy file reads back: the readers' products round by layout
        p1, p2 = (np.ascontiguousarray(p.reshape(-1, k, n_rows).transpose(1, 2, 0)) for p in (p1, p2))
        stacks.append((states, p1, p2))
    return a_field, PolicyPair._of_stacks(v.grid, tuple(stacks))


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


def _pure_payoffs(C: np.ndarray, opponent: np.ndarray, player: int) -> np.ndarray:
    """(c pi2)_a, (|A|, k, rows), for player 1 or (pi1' c)_b, (|B|, k, rows), for 2.

    The games-last C of _payoff_stacks is contracted in place, along the
    opponent's action axis, against its (k, rows, .) rows.
    """
    opponent = opponent.transpose(2, 0, 1)  # a view; np.moveaxis costs microseconds more
    if player == 1:
        return (C * opponent).sum(axis=1)
    return (C * opponent[:, None]).sum(axis=0)


def verify_saddle(model: GameModel, v: ValueGrid, policies: PolicyPair) -> float:
    """Worst sup-inf gap of the extracted policies over all grid cells.

    For each cell, with c the weighted payoff on v, computes
    max_a (c pi2)_a - min_b (pi1' c)_b; at an exact saddle this is <= 0 up
    to LP tolerance. Returns the maximum over cells. Raises ValueError when
    v and the policies lie on different time grids and, from
    _checked_policies, on policies that do not fit the model or a row that
    is not a probability vector.
    """
    if v.grid != policies.grid:
        raise ValueError(f"value grid {v.grid} and policy grid {policies.grid} differ")
    groups = _checked_policies(model, policies)
    return max(
        float(np.max(_pure_payoffs(C, p2, 1).max(axis=0) - _pure_payoffs(C, p1, 2).min(axis=0)))
        for (_, C), (_, p1, p2) in zip(_payoff_stacks(model, v.values), groups, strict=True)
    )
