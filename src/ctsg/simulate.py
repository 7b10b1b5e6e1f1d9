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

``evaluate_policies`` computes the same expectation exactly in time: going
backward from exp(theta g), ``_interval_step`` applies each grid interval's
exponential of the policy-mixed generator by uniformization.
``deviation_gain`` makes the same backward pass for one deviating player.
Before each interval's step it sets every state's row to the first pure
action that is best against the opponent's row, for the weighted payoff at
the deviation's own value at the interval's right end. One pass thus
returns a concrete deviation and its exact value, and solves no matrix
game. Both read the policies through one checked, per-shape-group mixing
path, ``_checked_policies`` and ``_mix``, that the sampler's tables use too.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ModelScaleError
from .model import GameModel, _ShapeGroup
from .shapley import PolicyPair, ValueGrid, _payoff_stacks, boundary_row

_BATCH_SIZE = 16_384  # fixed: part of the reproducibility contract
_PROBABILITY_TOL = 1e-9  # policy rows need entries >= -tol and a sum within tol of 1
# The evaluator's series stops once its Poisson tail is below this (the unit roundoff).
_SERIES_TAIL = 2.0**-53
# Each shape group with its states' stacked pi1 and pi2 rows, from _checked_policies.
_Groups = list[tuple[_ShapeGroup, np.ndarray, np.ndarray]]


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


def _checked_policies(model: GameModel, policies: PolicyPair) -> _Groups:
    """Each shape group with its states' policy rows, stacked per player.

    The pi1 rows stack to (k, n_t + 1, |A|), the pi2 rows to (k, n_t + 1, |B|).
    Raises ValueError when the policy grid's horizon, the number of states or
    a state's row shapes do not match the model, or when a row is not a
    probability vector (an entry below -_PROBABILITY_TOL, or a sum more than
    _PROBABILITY_TOL from 1; NaN fails both). The row test is one vectorized
    check per group and its message names the player, the state and the row.
    """
    grid = policies.grid
    if abs(grid.horizon - model.horizon) > 1e-12 * max(1.0, model.horizon):
        raise ValueError("policy grid horizon does not match the model")
    n_t, n_x = grid.n_steps, model.n_states
    if len(policies.pi1) != n_x or len(policies.pi2) != n_x:
        raise ValueError(
            f"policies cover {len(policies.pi1)}/{len(policies.pi2)} states; the model has {n_x}"
        )
    groups = []
    for group in model._shape_groups:
        _, na, nb = group.payoff.shape
        want = ((n_t + 1, na), (n_t + 1, nb))
        for x in group.states:
            p1, p2 = policies.pi1[x], policies.pi2[x]
            if (p1.shape, p2.shape) != want:
                raise ValueError(
                    f"policy shapes {p1.shape}, {p2.shape} at state {x} do not match "
                    f"the model and grid: {want[0]}, {want[1]}"
                )
        p1 = np.stack([policies.pi1[x] for x in group.states])
        p2 = np.stack([policies.pi2[x] for x in group.states])
        for name, p in (("pi1", p1), ("pi2", p2)):
            ok = (p >= -_PROBABILITY_TOL).all(axis=2)
            ok &= np.abs(p.sum(axis=2) - 1.0) <= _PROBABILITY_TOL
            if not ok.all():
                j, i = np.unravel_index(int(np.argmin(ok)), ok.shape)
                raise ValueError(
                    f"{name} at state {group.states[j]}, row {i} is not a probability vector: "
                    f"{p[j, i].tolist()}"
                )
        groups.append((group, p1, p2))
    return groups


def _mix(
    group: _ShapeGroup, p1: np.ndarray, p2: np.ndarray, rows: slice
) -> tuple[np.ndarray, np.ndarray]:
    """Policy-mixed payoff rate, (i, k), and generator, (k, i, n_x), of one shape group on `rows`.

    p1 and p2 are the group's stacked policy rows from _checked_policies. These
    einsums make the sampler's tables; a one-row slice gives the same values
    up to rounding (on rps64 bit for bit, on a 2x3 group not always).
    """
    k, na, nb = group.payoff.shape
    p1, p2 = p1[:, rows], p2[:, rows]
    rbar = np.einsum("kia,kab,kib->ik", p1, group.payoff, p2)
    G = group.generator.reshape(k, na, nb, -1)
    return rbar, np.einsum("kia,kaby,kib->kiy", p1, G, p2)


class _PolicyTables:
    """Per-interval policy-mixed payoff and rate tables used by the sampler."""

    def __init__(self, model: GameModel, policies: PolicyPair):
        groups = _checked_policies(model, policies)
        grid = policies.grid
        n_t, n_x = grid.n_steps, model.n_states
        self.grid = grid
        self.lam = model.norm_q  # dominating rate of the uniformized candidate stream
        self.rbar = np.empty((n_t + 1, n_x))
        self.qbar = np.empty((n_t + 1, n_x))
        self.dest_cum = np.empty((n_t + 1, n_x, n_x))
        for group, p1, p2 in groups:
            states = group.states
            k = len(states)
            rbar, mixed = _mix(group, p1, p2, slice(None))
            self.rbar[:, states] = rbar
            mixed[np.arange(k), :, states] = 0.0
            np.clip(mixed, 0.0, None, out=mixed)
            total = mixed.sum(axis=2)
            self.qbar[:, states] = total.T
            safe = np.where(total > 0.0, total, 1.0)
            self.dest_cum[:, states, :] = np.cumsum(mixed / safe[:, :, None], axis=2).transpose(1, 0, 2)
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

    Raises ValueError unless x0 is a state index and t0 a grid node in [0, horizon).
    """
    if not 0 <= x0 < model.n_states:
        raise ValueError(f"x0={x0} is not a state index in [0, {model.n_states})")
    node = round(t0 / policies.grid.dt)
    if abs(t0 - node * policies.grid.dt) > 1e-9 * max(1.0, model.horizon) or not (
        0.0 <= t0 < model.horizon
    ):
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

    t0 must coincide with a policy grid node, x0 must be a state index and
    the policies must match the model's states and action sets (ValueError
    otherwise). Batches are independent Philox streams run on a pool of
    threads >= 1 workers, so threads only changes wall time, never the
    result. Raises ModelScaleError when the mean or standard error of the
    path functionals overflows.
    """
    if paths < 2:
        raise ValueError("need at least 2 paths to form a standard error")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _start_node(model, policies, x0, t0)
    tables = _PolicyTables(model, policies)

    sizes = []
    remaining = paths
    while remaining > 0:
        sizes.append(min(_BATCH_SIZE, remaining))
        remaining -= sizes[-1]

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
    grid = policies.grid
    values = np.empty((grid.n_steps + 1, model.n_states))
    values[-1] = boundary_row(model)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps - 1, -1, -1):
            values[i] = _interval_step(model, groups, i, grid.dt, values[i + 1])
    _check_finite(values)
    return ValueGrid(grid, values)


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ModelScaleError(
            "policy value is not finite in double precision; rescale or truncate the model"
        )


def _interval_step(model: GameModel, groups: _Groups, i: int, dt: float, w: np.ndarray) -> np.ndarray:
    """exp(A_i dt) w, A_i = theta diag(rbar_i) + Qbar_i mixed from the policy rows i of groups.

    Applied by uniformization: with c the smallest shift that makes
    B_i = A_i + c I nonnegative,

        exp(A_i dt) w = e^{-c dt} sum_k (B_i dt)^k / k! w,

    a series of nonnegative terms, cut where the tail of a Poisson law with
    parameter ||B_i dt||_inf falls below 2^-53. An interval whose parameter
    exceeds 1 is split into equal sub-steps, so no partial sum overflows
    before its scale e^{-c dt} is applied. Only this interval's n_x x n_x
    matrix is held.
    """
    n_x = model.n_states
    B = np.empty((n_x, n_x))
    diagonal = B.reshape(-1)[:: n_x + 1]  # a view
    for group, p1, p2 in groups:
        rbar, mixed = _mix(group, p1, p2, slice(i, i + 1))
        B[group.states] = mixed[:, 0]
        diagonal[group.states] += model.theta * rbar[0]
    c = max(0.0, -float(np.min(diagonal)))
    diagonal += c
    lam = dt * float(np.linalg.norm(B, np.inf))
    if not math.isfinite(lam):
        raise ModelScaleError("policy-mixed rates are not finite in double precision")
    n_sub = max(1, math.ceil(lam))
    h = dt / n_sub
    n_terms = _series_terms(lam / n_sub)
    B *= h
    scale = math.exp(-c * h)
    for _ in range(n_sub):
        term = w
        total = w.copy()
        for k in range(1, n_terms + 1):
            term = B @ term
            term /= k
            total += term
        w = total * scale
    return w


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
    n_t. The base pair is valued by evaluate_policies. x0 and t0 are checked
    as estimate_value checks them (ValueError). paths and rng_seed are
    accepted and have no effect: nothing is sampled, so std_error is 0.0.
    """
    if deviating_player not in (1, 2):
        raise ValueError("deviating_player must be 1 or 2")
    node = _start_node(model, base_policies, x0, t0)
    j_base = float(evaluate_policies(model, base_policies).values[node, x0])
    groups = _checked_policies(model, base_policies)  # fresh stacks: the deviator's are rewritten
    grid = base_policies.grid
    n_t = grid.n_steps
    values = np.empty((n_t + 1, model.n_states))
    values[-1] = boundary_row(model)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_t, -1, -1):
            w = values[min(i + 1, n_t)]
            for (_, C), (_, p1, p2) in zip(_payoff_stacks(model, w[None]), groups, strict=True):
                if deviating_player == 1:
                    pure, score = p1, (C[:, 0] @ p2[:, i, :, None])[:, :, 0]
                else:  # player 2 minimizes: its first best action is the first max of -pi1' c
                    pure, score = p2, -(p1[:, i, None, :] @ C[:, 0])[:, 0]
                pure[:, i] = np.eye(pure.shape[2])[np.argmax(score, axis=1)]
            if i < n_t:
                values[i] = _interval_step(model, groups, i, grid.dt, values[i + 1])
    _check_finite(values)
    rows = [list(base_policies.pi1), list(base_policies.pi2)]
    for group, *stacks in groups:
        for j, x in enumerate(group.states):
            rows[deviating_player - 1][x] = stacks[deviating_player - 1][j]
    j_dev = float(values[node, x0])
    return DeviationReport(
        gain=j_dev - j_base if deviating_player == 1 else j_base - j_dev,
        std_error=0.0,
        player=deviating_player,
        base=j_base,
        best_response=PolicyPair(grid, *rows),
        n_candidates=1,
    )
