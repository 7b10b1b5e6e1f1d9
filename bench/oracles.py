"""Reference computations and artifact readers that share no code with ctsg.

Everything here is rebuilt from plain numpy, scipy and the standard library,
so a check that compares ctsg's output with these functions compares two
independent computations:

* ``rps_value_row``: the exact t = 0 value of a game whose rates do not
  depend on the actions and whose payoff matrices are antisymmetric. The
  matrix-game value of the weighted payoff is then ``(Q v)(x)``, so the
  value solves the linear ODE ``-v' = Q v`` and equals ``expm(Q T) exp(θ g)``.
* ``matrix_game``: value and optimal strategies of a zero-sum matrix game
  from two HiGHS linear programs (``scipy.optimize.linprog``).
* ``saddle_gap``: ``max_a (C q)_a - min_b (p' C)_b``, at most 0 at a saddle.
* ``read_model`` / ``read_value_csv`` / ``read_policies``: parsers for the
  documented file formats, written against the format, not against
  ``ctsg.io``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog


class OracleError(ValueError):
    """The input lies outside the class of games an oracle is exact for."""


@dataclass
class ModelTensors:
    """Model JSON as dense numpy arrays (every state has the same action counts)."""

    payoff: np.ndarray  # (n_x, |A|, |B|)
    generator: np.ndarray  # (n_x, |A|, |B|, n_x)
    terminal: np.ndarray  # (n_x,)
    theta: float
    horizon: float
    coords: np.ndarray | None

    @property
    def n_states(self) -> int:
        return self.terminal.shape[0]

    @property
    def norm_r(self) -> float:
        return float(np.max(np.abs(self.payoff)))

    @property
    def norm_q(self) -> float:
        n = self.n_states
        diag = self.generator[np.arange(n), :, :, np.arange(n)]
        return float(np.max(-diag))


def read_model(path: str | Path) -> ModelTensors:
    d = json.loads(Path(path).read_text())
    states = d["states"]
    coords = None
    if states and "coord" in states[0]:
        coords = np.array([s["coord"] for s in states], dtype=float)
    return ModelTensors(
        payoff=np.array(d["payoff"], dtype=float),
        generator=np.array(d["generator"], dtype=float),
        terminal=np.array(d["terminal"], dtype=float),
        theta=float(d["theta"]),
        horizon=float(d["horizon"]),
        coords=coords,
    )


def read_value_csv(path: str | Path, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """(time nodes, values[n_t + 1, n_states]) from a ``t,x_id,value`` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "x_id", "value"]:
        raise OracleError(f"unexpected value CSV header {rows[0]}")
    body = rows[1:]
    if len(body) % n_states:
        raise OracleError(f"{len(body)} value rows do not tile {n_states} states")
    t = np.array([float(r[0]) for r in body]).reshape(-1, n_states)
    x_ids = np.array([int(r[1]) for r in body]).reshape(-1, n_states)
    if np.any(t != t[:, :1]) or np.any(x_ids != x_ids[:1]):
        raise OracleError("value CSV rows are not grouped by time node")
    values = np.array([float(r[2]) for r in body]).reshape(-1, n_states)
    return t[:, 0], values


def read_policies(path: str | Path, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """(pi1[n_t + 1, n_states, |A|], pi2[n_t + 1, n_states, |B|]) from a policy JSON."""
    d = json.loads(Path(path).read_text())
    n_rows = int(d["n_steps"]) + 1
    records = d["records"]
    if len(records) != n_rows * n_states:
        raise OracleError(f"{len(records)} policy records, expected {n_rows * n_states}")
    pi1 = np.array([r["pi1"] for r in records], dtype=float)
    pi2 = np.array([r["pi2"] for r in records], dtype=float)
    order = np.array([(r["t_index"], r["x_id"]) for r in records])
    expected = np.stack(np.meshgrid(np.arange(n_rows), np.arange(n_states), indexing="ij"), -1)
    if not np.array_equal(order, expected.reshape(-1, 2)):
        raise OracleError("policy records are not ordered by (t_index, x_id)")
    return pi1.reshape(n_rows, n_states, -1), pi2.reshape(n_rows, n_states, -1)


def rps_value_row(model: ModelTensors) -> np.ndarray:
    """Exact t = 0 value row ``expm(Q T) exp(θ g)``.

    Raises OracleError unless every state's rates are the same for all
    action pairs and every payoff matrix is antisymmetric, the two
    properties that make the value independent of the matrix games.
    """
    q = model.generator
    if not np.all(q == q[:, :1, :1, :]):
        raise OracleError("rates depend on the actions")
    r = model.payoff
    if r.shape[1] != r.shape[2] or not np.all(r == -np.swapaxes(r, 1, 2)):
        raise OracleError("payoff matrices are not antisymmetric")
    Q = q[:, 0, 0, :]
    return expm(Q * model.horizon) @ np.exp(model.theta * model.terminal)


def weighted_payoff(model: ModelTensors, v_row: np.ndarray, x: int) -> np.ndarray:
    """``θ r(x, a, b) v(x) + Σ_y q(y | x, a, b) v(y)`` for one time row."""
    return model.theta * model.payoff[x] * v_row[x] + model.generator[x] @ v_row


def matrix_game(C: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, p, q) of the game C (rows maximize) from two HiGHS LPs.

    Row player: max w s.t. C'p >= w, Σp = 1, p >= 0.
    Column player: min w s.t. C q <= w, Σq = 1, q >= 0.
    The returned value is the row player's; the two agree by LP duality.
    """
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    obj = np.zeros(m + 1)
    obj[-1] = -1.0
    rows = linprog(
        obj,
        A_ub=np.hstack([-C.T, np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.hstack([np.ones((1, m)), np.zeros((1, 1))]),
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    obj = np.zeros(n + 1)
    obj[-1] = 1.0
    cols = linprog(
        obj,
        A_ub=np.hstack([C, -np.ones((m, 1))]),
        b_ub=np.zeros(m),
        A_eq=np.hstack([np.ones((1, n)), np.zeros((1, 1))]),
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
    )
    if rows.status != 0 or cols.status != 0:
        raise OracleError(f"linprog failed: {rows.message} / {cols.message}")
    return float(rows.x[-1]), rows.x[:m], cols.x[:n]


def saddle_gap(C: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """``max_a (C q)_a - min_b (p' C)_b``; at most 0 exactly at a saddle point."""
    return float(np.max(C @ q) - np.min(p @ C))
