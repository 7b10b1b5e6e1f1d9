"""Monte Carlo simulation of the controlled jump process, and exact policy values.

Paths are sampled by uniformization (thinning): candidate event times form a
Poisson stream with the dominating rate Lambda = sup_x q*(x); a candidate at
time s in state x becomes a real jump with probability qbar(x, s) / Lambda,
where qbar is the policy-mixed total exit rate, and the destination is drawn
from the policy-mixed off-diagonal kernel. Thinning is exact for the
piecewise-constant rates produced by grid-node policies (left-endpoint
convention, matching the solver).

One vectorized sampler, ``_simulate_batch``, produces every path. Each path
yields the functional exp(theta * (integral of the policy-mixed payoff rate
along the path + terminal reward)), and the value estimate is their average;
choosing the payoff and terminal reward turns the functional into another
path quantity (a censored jump time, the terminal state). Randomness is
counter-based (Philox): paths are processed in fixed-size batches keyed by
(seed, batch_index) with column-indexed draws, so estimates are reproducible
for a given seed, independent across batches and unchanged by the thread
count.

Each round of a batch draws for every column but works on the live paths
only, kept compacted (column, time, state, interval index, integral) and
re-compacted once per round in which a path passes the horizon. A path
carries the interval index of its current time, so a round makes one
``TimeGrid.interval_index`` lookup, at the candidate time clipped to the
horizon, and that cell serves both the payoff integral and the acceptance
rate. A jump's destination comes from a branchless log-step search of its
cumulative row, ceil(log2(n_x + 1)) single-element gathers instead of a
whole row. Per-path values are bitwise those of a full-width sampler that
counts each row.

``evaluate_policies`` computes the same expectation exactly in time by one
backward pass from exp(theta g), ``_backward_pass``, which applies each grid
interval's exponential of the policy-mixed generator by ``_interval_step``.
``_mix``, the one place policy rows are mixed, serves that step one row at a
time and the sampler's tables all rows at once. ``deviation_gain`` runs the
pass for the base pair, then for a deviation it builds interval by interval
in copies of the deviator's stacks, and so values it without solving a
matrix game. All of them read the policy stacks where they lie, through
``shapley._checked_policies``, as ``verify_saddle`` does.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ModelScaleError
from .model import GameModel, _count, _real
from .shapley import (
    PolicyPair, TimeGrid, ValueGrid, _checked_policies, _Groups, _payoff_stacks, _pure_payoffs,
    boundary_row,
)

_BATCH_SIZE = 16_384  # fixed: part of the reproducibility contract
# The evaluator's series stops once its Poisson tail is below this (the unit roundoff).
_SERIES_TAIL = 2.0**-53


@dataclass
class McEstimate:
    """Monte Carlo estimate of the risk-sensitive value.

    values holds every path's functional, in batch order; mean and std_error
    are its average and the standard error of that average.
    """

    mean: float
    std_error: float
    paths: int
    values: np.ndarray


@dataclass
class DeviationReport:
    """Exact unilateral improvement of one player over a base policy pair.

    best_response is deviation_gain's one-pass deviation: one-hot rows for
    the deviator, the base pair's rows for the opponent. gain is
    J(best_response) - J(base) at (t0, x0) for player 1 and
    J(base) - J(best_response) for player 2, both exact in time, so gain > 0
    is the deviator's profit and a lower bound on its best possible one.
    base is J(base) at (t0, x0), std_error is 0.0 (no sampling), and
    n_candidates counts evaluated deviations (always 1).
    """

    gain: float
    std_error: float
    player: int
    base: float
    best_response: PolicyPair
    n_candidates: int


class _PolicyTables:
    """Per-interval policy-mixed payoff and rate tables used by the sampler, from one _mix."""

    def __init__(self, model: GameModel, policies: PolicyPair):
        groups = _checked_policies(model, policies)
        grid = policies.grid
        n_t, n_x = grid.n_steps, model.n_states
        self.grid = grid
        self.lam = model.norm_q  # dominating rate of the uniformized candidate stream
        self.rbar, mixed = _mix(groups, slice(None), n_x)
        mixed.reshape(n_t + 1, -1)[:, :: n_x + 1] = 0.0  # the diagonals, through a view
        np.clip(mixed, 0.0, None, out=mixed)
        self.qbar = mixed.sum(axis=2)
        mixed /= np.where(self.qbar > 0.0, self.qbar, 1.0)[:, :, None]
        self.dest_cum = np.cumsum(mixed, axis=2, out=mixed)
        # Cumulative payoff integral per state: Rcum[i, x] = int_0^{t_i} rbar(x, s) ds
        dt = grid.dt
        self.r_cum = np.zeros((n_t + 1, n_x))
        self.r_cum[1:] = np.cumsum(self.rbar[:-1] * dt, axis=0)

    def payoff_integral(self, t: np.ndarray, k: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """int_0^t rbar(x, s) ds for t in interval k, with cell = k * n_x + x.

        The sampler takes a path's payoff over [t, t'] as the difference of two
        of these, so k must be grid.interval_index(t), the row in force at t.
        """
        return self.r_cum.ravel()[cell] + self.rbar.ravel()[cell] * (t - k * self.grid.dt)


def _destination(cum: np.ndarray, row: np.ndarray, u: np.ndarray, n_x: int) -> np.ndarray:
    """min(#{y : cum[row + y] <= u}, n_x - 1) for each nondecreasing row of n_x entries.

    cum is the flattened dest_cum and row the flat offset of each path's row.
    A branchless lower-bound search (Shar's): the first step splits the
    n_x + 1 possible counts into n_x + 1 - 2^(m-1) and 2^(m-1), the rest
    halve, so each path makes m = ceil(log2(n_x + 1)) single-element gathers.
    It equals counting the whole row because a cumulative sum of nonnegative
    terms never decreases.
    """
    m = n_x.bit_length()
    steps = [n_x + 1 - (1 << (m - 1))] + [1 << j for j in range(m - 2, -1, -1)]
    pos = row.copy()
    for step in steps:
        pos += (cum[pos + (step - 1)] <= u) * step
    return np.minimum(pos - row, n_x - 1)


def _simulate_batch(
    model: GameModel,
    tables: _PolicyTables,
    x0: int,
    t0: float,
    size: int,
    seed: int,
    batch_index: int,
) -> np.ndarray:
    """Vectorized batch of path functionals exp(theta * (payoff integral + g)).

    Each round works on the live paths only, held compacted: column, time,
    state, interval index of the time and payoff integral so far. A path that
    passes the horizon writes its integral and final state into its column.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, batch_index], dtype=np.uint64)))
    lam = tables.lam
    T = model.horizon
    n_x = model.n_states
    grid = tables.grid
    qbar = tables.qbar.ravel()
    cum = tables.dest_cum.ravel()
    acc = np.zeros(size)
    x_end = np.full(size, int(x0), dtype=np.int64)
    # live paths, compacted: column, time, interval of the time, state, integral
    col = np.arange(size)
    t = np.full(size, float(t0))
    k = grid.interval_index(t)
    x = x_end.copy()
    integral = np.zeros(size)
    # With no candidate events (lam = 0) every gap is infinite: all paths end in round one.
    mean_gap = 1.0 / lam if lam > 0.0 else math.inf
    while col.size:
        # Fixed draw pattern each round keeps the stream layout deterministic.
        dt = gen.exponential(mean_gap, size=size)
        u_accept = gen.random(size=size)
        u_dest = gen.random(size=size)
        t_next = t + dt[col]
        done = ~(t_next < T)  # at lam = 0 a zero draw gives a NaN gap (0 * inf); it ends too
        t_end = np.where(done, T, t_next)
        k1 = grid.interval_index(t_end)
        cell = k1 * n_x + x
        integral += tables.payoff_integral(t_end, k1, cell) - tables.payoff_integral(
            t, k, k * n_x + x
        )
        finished = np.flatnonzero(done)
        if finished.size:
            acc[col[finished]] = integral[finished]
            x_end[col[finished]] = x[finished]
            live = np.flatnonzero(~done)
            col, t_next, k1, cell, x, integral = (
                a[live] for a in (col, t_next, k1, cell, x, integral)
            )
        t, k = t_next, k1
        p_accept = np.minimum(qbar[cell] / lam, 1.0)
        jump = np.flatnonzero(u_accept[col] < p_accept)
        if jump.size:
            x[jump] = _destination(cum, cell[jump] * n_x, u_dest[col[jump]], n_x)
    acc += model.terminal[x_end]
    with np.errstate(over="ignore"):  # an overflow is reported by estimate_value
        return np.exp(model.theta * acc)


def _start_node(model: GameModel, policies: PolicyPair, x0: int, t0: float) -> int:
    """Grid node index of t0.

    Raises ValueError unless x0 is an integer state index and t0 a grid node
    in [0, horizon).
    """
    if not 0 <= _count(x0, "x0") < model.n_states:
        raise ValueError(f"x0={x0} is not a state index in [0, {model.n_states})")
    t0 = _real(t0, "t0", 0)
    if t0 >= model.horizon:
        raise ValueError("t0 must be a time-grid node in [0, horizon)")
    node = round(t0 / policies.grid.dt)
    if abs(t0 - node * policies.grid.dt) > 1e-9 * max(1.0, model.horizon):
        raise ValueError("t0 must be a time-grid node in [0, horizon)")
    return int(node)


def estimate_value(
    model: GameModel,
    policies: PolicyPair,
    x0: int,
    t0: float,
    paths: int,
    rng_seed: int,
    threads: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of the risk-sensitive value under fixed policies.

    t0 must coincide with a policy grid node, x0 must be a state index, the
    policies must match the model's states and action sets, paths >= 2
    (for a standard error) and threads >= 1 must be integers, and rng_seed
    must be an integer in [0, 2**64), the Philox key's range (ValueError
    otherwise). Batches are independent Philox streams run on a pool of
    threads workers, so threads only changes wall time, never the result.
    Raises ModelScaleError when the mean or standard error of the
    path functionals overflows.
    """
    paths, threads = _count(paths, "paths", 2), _count(threads, "threads", 1)
    if _count(rng_seed, "rng_seed", 0) >= 2**64:
        raise ValueError(f"rng_seed must be below 2**64, got {rng_seed}")
    _start_node(model, policies, x0, t0)
    tables = _PolicyTables(model, policies)

    sizes = [min(_BATCH_SIZE, paths - start) for start in range(0, paths, _BATCH_SIZE)]

    def run(i_size: tuple[int, int]) -> np.ndarray:
        i, size = i_size
        return _simulate_batch(model, tables, x0, t0, size, rng_seed, i)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        values = np.concatenate(list(pool.map(run, enumerate(sizes))))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        std_error = float(np.std(values, ddof=1) / math.sqrt(paths))
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise ModelScaleError(
            "Monte Carlo estimate overflows double precision; rescale or truncate the model"
        )
    return McEstimate(mean=mean, std_error=std_error, paths=paths, values=values)


def evaluate_policies(model: GameModel, policies: PolicyPair) -> ValueGrid:
    """Exact value J(pi1, pi2, t_i, x) of a grid policy pair at every grid node.

    The pair is constant on each [t_i, t_{i+1}), so there J solves the linear
    ODE w' = -A_i w with A_i = theta diag(rbar_i) + Qbar_i, and
    w(t_i) = exp(A_i dt) w(t_{i+1}) from w(T) = exp(theta g); _interval_step
    applies each factor.

    The policies are checked as estimate_value checks them (ValueError); a
    non-finite value raises ModelScaleError.
    """
    groups = _checked_policies(model, policies)
    return ValueGrid(policies.grid, _backward_pass(model, groups, policies.grid))


def _backward_pass(model: GameModel, groups: _Groups, grid: TimeGrid, choose=None) -> np.ndarray:
    """J(t_i, x) at every grid node, stepped back by _interval_step from w(T) = exp(theta g).

    choose(i, w), if given, runs before interval i's step at w = J(t_{i+1})
    and may rewrite the rows i of groups; for row n_t it runs at w = exp(theta g).
    Raises ModelScaleError on a non-finite value.
    """
    n_t = grid.n_steps
    values = np.empty((n_t + 1, model.n_states))
    values[-1] = boundary_row(model)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_t, -1, -1):
            if choose is not None:
                choose(i, values[min(i + 1, n_t)])
            if i < n_t:
                values[i] = _interval_step(model, groups, i, grid.dt, values[i + 1])
    if not np.isfinite(values).all():
        raise ModelScaleError(
            "policy value is not finite in double precision; rescale or truncate the model"
        )
    return values


def _mix(groups: _Groups, rows: slice, n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Policy-mixed payoff rates rbar, (r, n_x), and generators Qbar, (r, n_x, n_x), of r sliced rows.

    Each shape group mixes its states' rows through the joint action law,
    pi1(x) pi2(x)^T flattened: one batched matmul with the stacked generator
    rows, one with the payoffs. Both results are fresh C-contiguous arrays,
    so their reshapes are editable views.
    """
    n_rows = len(range(groups[0][1].shape[1])[rows])
    rbar = np.empty((n_rows, n_x))
    qbar = np.empty((n_rows, n_x, n_x))
    for group, p1, p2 in groups:
        k, na, nb = group.payoff.shape
        joint = (p1[:, rows, :, None] * p2[:, rows, None, :]).reshape(k, n_rows, na * nb)
        qbar.transpose(1, 0, 2)[group.states] = joint @ group.generator
        rbar.T[group.states] = (joint @ group.payoff.reshape(k, na * nb, 1))[:, :, 0]
    return rbar, qbar


def _interval_step(model: GameModel, groups: _Groups, i: int, dt: float, w: np.ndarray) -> np.ndarray:
    """exp(A_i dt) w, A_i = theta diag(rbar_i) + Qbar_i mixed by _mix from the policy rows i.

    A_i is applied by uniformization: with c the smallest shift that makes
    B_i = A_i + c I nonnegative,

        exp(A_i dt) = e^{-c dt} sum_k (B_i dt)^k / k!,

    a series of nonnegative terms, cut where the tail of a Poisson law with
    parameter lam = dt ||B_i||_inf (the largest row sum) falls below 2^-53.
    A lam above 1 could overflow a partial sum before its scale is applied,
    so one loop sums the series of a step h = dt / 2^j (j = 0 if lam <= 1,
    else the exponent that puts lam / 2^j in [1/2, 1)), scales it by
    e^{-c h} and squares it j times. At j = 0, the vector case, it runs on
    w in about n_terms n_x^2 flops; otherwise it runs on I, and the squared
    matrix is applied to w once: (n_terms + j) n_x^3 flops, like log lam.
    A product of nonnegative matrices cancels nothing: each squaring
    doubles its entries' relative error and adds n_x u, so the squared
    matrix is within about 2^j (2 n_x + n_terms + 4) u of exp(A_i dt),
    u = 2^-53, entry by entry. Only this interval's n_x x n_x matrices are
    held.
    """
    n_x = model.n_states
    rbar, B = _mix(groups, slice(i, i + 1), n_x)
    rbar, B = rbar[0], B[0]
    diagonal = B.reshape(-1)[:: n_x + 1]  # a view
    diagonal += model.theta * rbar
    c = max(0.0, -float(diagonal.min()))
    diagonal += c
    lam = dt * float(np.abs(B).sum(axis=1).max())
    if not math.isfinite(lam):
        raise ModelScaleError("policy-mixed rates are not finite in double precision")
    j = math.frexp(lam)[1] if lam > 1.0 else 0
    h = math.ldexp(dt, -j)
    B *= h
    term = w if j == 0 else np.eye(n_x)
    total = term.copy()
    for k in range(1, _series_terms(math.ldexp(lam, -j)) + 1):
        term = B @ term
        term /= k
        total += term
    total *= math.exp(-c * h)
    for _ in range(j):
        total = total @ total
    return total if j == 0 else total @ w


def _series_terms(lam: float) -> int:
    """Smallest K whose Poisson(lam) tail past K is below _SERIES_TAIL, for lam <= 1.

    The tail past K is at most p_{K+1} / (1 - lam / (K + 2)), a geometric
    bound on the terms after p_{K+1} = e^{-lam} lam^{K+1} / (K+1)!.
    """
    p, k = math.exp(-lam), 0
    while True:
        p *= lam / (k + 1)
        if p / (1.0 - lam / (k + 2)) < _SERIES_TAIL:
            return k
        k += 1


def deviation_gain(
    model: GameModel,
    base_policies: PolicyPair,
    deviating_player: int,
    *,
    x0: int,
    t0: float = 0.0,
    paths: int | None = None,
    rng_seed: int | None = None,
) -> DeviationReport:
    """Exact improvement at (t0, x0) from the deviating player's one-pass best response.

    One backward pass from exp(theta g) chooses the deviation and values it.
    On each [t_i, t_{i+1}) every state plays the first pure action that is
    best against the opponent's row i for the weighted payoff
    theta r w_x + sum_y q(y|x) w_y at w = J(t_{i+1}) of the deviation itself
    (max for player 1, min for player 2); the pass then steps w back by
    _interval_step, as evaluate_policies does. Row n_t, in force on no
    interval, is the choice at w = exp(theta g) against the opponent's row
    n_t. The base pair is valued by the same pass. deviating_player must be
    the integer 1 or 2, and x0 and t0 are checked as estimate_value checks
    them (ValueError otherwise). paths and rng_seed are
    accepted and have no effect: nothing is sampled, so std_error is 0.0.
    """
    deviating_player = _count(deviating_player, "deviating_player")
    if deviating_player not in (1, 2):
        raise ValueError("deviating_player must be 1 or 2")
    node = _start_node(model, base_policies, x0, t0)
    grid = base_policies.grid
    groups = _checked_policies(model, base_policies)
    j_base = float(_backward_pass(model, groups, grid)[node, x0])
    # choose rewrites the deviator's rows, in copies of its stacks
    groups = [(g, p1.copy(), p2) if deviating_player == 1 else (g, p1, p2.copy()) for g, p1, p2 in groups]

    def choose(i: int, w: np.ndarray) -> None:
        for (_, C), (_, p1, p2) in zip(_payoff_stacks(model, w[None]), groups, strict=True):
            if deviating_player == 1:
                pure, score = p1, _pure_payoffs(C, p2[:, i : i + 1], 1)[:, :, 0]
            else:  # player 2 minimizes: its first best action is the first max of -pi1' c
                pure, score = p2, -_pure_payoffs(C, p1[:, i : i + 1], 2)[:, :, 0]
            pure[:, i] = np.eye(pure.shape[2])[np.argmax(score, axis=0)]

    j_dev = float(_backward_pass(model, groups, grid, choose)[node, x0])
    return DeviationReport(
        gain=j_dev - j_base if deviating_player == 1 else j_base - j_dev,
        std_error=0.0,
        player=deviating_player,
        base=j_base,
        best_response=PolicyPair._of_stacks(grid, tuple((group.states, p1, p2) for group, p1, p2 in groups)),
        n_candidates=1,
    )
