"""Monte Carlo simulation of the controlled jump process and value estimation.

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
"""

from __future__ import annotations

import itertools
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import GameModel
from .shapley import PolicyPair

logger = logging.getLogger(__name__)

_BATCH_SIZE = 16_384  # fixed: part of the reproducibility contract
_MAX_ENUMERATED_DEVIATIONS = 256
_SAMPLED_DEVIATIONS = 64


@dataclass
class McEstimate:
    """Monte Carlo estimate of the risk-sensitive value."""

    mean: float
    std_error: float
    paths: int
    confidence_level: float = 0.9973  # three-sigma convention
    values: np.ndarray | None = None  # per-path functionals, optionally retained


@dataclass
class DeviationReport:
    """Best estimated unilateral improvement over a base policy pair.

    gain > 0 means the deviating player found a profitable deterministic
    stationary deviation; std_error is the common-random-number standard
    error of that gain. exhaustive is False when the deviation set was
    sampled instead of enumerated.
    """

    gain: float
    std_error: float
    player: int
    base: McEstimate
    best_assignment: tuple[int, ...] | None
    n_candidates: int
    exhaustive: bool


class _PolicyTables:
    """Per-interval policy-mixed payoff and rate tables used by the sampler."""

    def __init__(self, model: GameModel, policies: PolicyPair):
        grid = policies.grid
        if abs(grid.horizon - model.horizon) > 1e-12 * max(1.0, model.horizon):
            raise ValueError("policy grid horizon does not match the model")
        n_t, n_x = grid.n_steps, model.n_states
        if len(policies.pi1) != n_x or len(policies.pi2) != n_x:
            raise ValueError(
                f"policies cover {len(policies.pi1)}/{len(policies.pi2)} states; the model has {n_x}"
            )
        self.grid = grid
        self.rbar = np.empty((n_t + 1, n_x))
        self.qbar = np.empty((n_t + 1, n_x))
        self.dest_cum = np.zeros((n_t + 1, n_x, n_x))
        for x in range(n_x):
            p1, p2 = policies.pi1[x], policies.pi2[x]
            want = ((n_t + 1, model.n_actions_p1(x)), (n_t + 1, model.n_actions_p2(x)))
            if (p1.shape, p2.shape) != want:
                raise ValueError(
                    f"policy shapes {p1.shape}, {p2.shape} at state {x} do not match "
                    f"the model and grid: {want[0]}, {want[1]}"
                )
            self.rbar[:, x] = np.einsum("ia,ab,ib->i", p1, model.payoff[x], p2)
            mixed = np.einsum("ia,aby,ib->iy", p1, model.generator[x], p2)
            mixed[:, x] = 0.0
            np.clip(mixed, 0.0, None, out=mixed)
            total = mixed.sum(axis=1)
            self.qbar[:, x] = total
            safe = np.where(total > 0.0, total, 1.0)
            self.dest_cum[:, x, :] = np.cumsum(mixed / safe[:, None], axis=1)
        # Cumulative payoff integral per state: Rcum[i, x] = int_0^{t_i} rbar(x, s) ds
        dt = grid.dt
        self.r_cum = np.zeros((n_t + 1, n_x))
        self.r_cum[1:] = np.cumsum(self.rbar[:-1] * dt, axis=0)

    def payoff_integral(self, t0: np.ndarray, t1: np.ndarray, x: np.ndarray) -> np.ndarray:
        """int_{t0}^{t1} rbar(x, s) ds for a constant state x per row."""
        k0 = self.grid.interval_index(t0)
        k1 = self.grid.interval_index(t1)
        nodes = self.grid.dt
        r0 = self.r_cum[k0, x] + self.rbar[k0, x] * (t0 - k0 * nodes)
        r1 = self.r_cum[k1, x] + self.rbar[k1, x] * (t1 - k1 * nodes)
        return r1 - r0


def _simulate_batch(
    model: GameModel,
    tables: _PolicyTables,
    x0: int,
    t0: float,
    size: int,
    seed: int,
    batch_index: int,
) -> np.ndarray:
    """Vectorized batch of path functionals exp(theta * (payoff integral + g))."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, batch_index], dtype=np.uint64)))
    lam = model.norm_q
    T = model.horizon
    t = np.full(size, float(t0))
    x = np.full(size, int(x0), dtype=np.int64)
    acc = np.zeros(size)
    alive = np.ones(size, dtype=bool)
    if lam <= 0.0:
        acc = tables.payoff_integral(t, np.full(size, T), x)
        alive[:] = False
    while alive.any():
        # Fixed draw pattern each round keeps the stream layout deterministic.
        dt = gen.exponential(1.0 / lam, size=size)
        u_accept = gen.random(size=size)
        u_dest = gen.random(size=size)
        t_next = t + dt
        finish = alive & (t_next >= T)
        if finish.any():
            acc[finish] += tables.payoff_integral(t[finish], np.full(int(finish.sum()), T), x[finish])
            alive[finish] = False
        cont = alive & (t_next < T)
        if cont.any():
            acc[cont] += tables.payoff_integral(t[cont], t_next[cont], x[cont])
            t[cont] = t_next[cont]
            k = tables.grid.interval_index(t[cont])
            xc = x[cont]
            p_accept = np.minimum(tables.qbar[k, xc] / lam, 1.0)
            jump = u_accept[cont] < p_accept
            if jump.any():
                rows = tables.dest_cum[k[jump], xc[jump], :]
                dest = (rows <= u_dest[cont][jump, None]).sum(axis=1)
                dest = np.minimum(dest, model.n_states - 1)
                xc = xc.copy()
                xc[jump] = dest
                x[cont] = xc
    acc += model.terminal[x]
    return np.exp(model.theta * acc)


def estimate_value(
    model: GameModel,
    policies: PolicyPair,
    x0: int,
    t0: float,
    paths: int,
    rng_seed: int,
    retain_values: bool = False,
    threads: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of the risk-sensitive value under fixed policies.

    t0 must coincide with a policy grid node, x0 must be a state index and
    the policies must match the model's states and action sets (ValueError
    otherwise). Batches are independent Philox streams, so threads only
    changes wall time, never the result.
    """
    if paths < 2:
        raise ValueError("need at least 2 paths to form a standard error")
    if not 0 <= x0 < model.n_states:
        raise ValueError(f"x0={x0} is not a state index in [0, {model.n_states})")
    grid = policies.grid
    nearest = round(t0 / grid.dt) * grid.dt
    if abs(t0 - nearest) > 1e-9 * max(1.0, model.horizon) or not (0.0 <= t0 < model.horizon):
        raise ValueError("t0 must be a time-grid node in [0, horizon)")
    tables = _PolicyTables(model, policies)

    sizes = []
    remaining = paths
    while remaining > 0:
        sizes.append(min(_BATCH_SIZE, remaining))
        remaining -= sizes[-1]

    def run(i_size: tuple[int, int]) -> np.ndarray:
        i, size = i_size
        return _simulate_batch(model, tables, x0, t0, size, rng_seed, i)

    jobs = list(enumerate(sizes))
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run, jobs))
    else:
        chunks = [run(j) for j in jobs]
    values = np.concatenate(chunks)
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(paths))
    return McEstimate(
        mean=mean,
        std_error=std_error,
        paths=paths,
        values=values if retain_values else None,
    )


def _pure_stationary_policy(
    base: PolicyPair, player: int, assignment: tuple[int, ...]
) -> PolicyPair:
    """Replace one player's policy with a time-constant pure action per state."""
    grid = base.grid
    n_t = grid.n_steps
    if player == 1:
        pi1 = []
        for x, a in enumerate(assignment):
            p = np.zeros((n_t + 1, base.pi1[x].shape[1]))
            p[:, a] = 1.0
            pi1.append(p)
        return PolicyPair(grid, pi1, [p.copy() for p in base.pi2])
    pi2 = []
    for x, b in enumerate(assignment):
        p = np.zeros((n_t + 1, base.pi2[x].shape[1]))
        p[:, b] = 1.0
        pi2.append(p)
    return PolicyPair(grid, [p.copy() for p in base.pi1], pi2)


def deviation_gain(
    model: GameModel,
    base_policies: PolicyPair,
    deviating_player: int,
    paths: int,
    rng_seed: int,
    x0: int,
    t0: float = 0.0,
    threads: int = 1,
) -> DeviationReport:
    """Best estimated improvement from deterministic stationary deviations.

    Enumerates every time-constant pure-action assignment for the deviating
    player (the opponent keeps the base policy); when the assignment count
    exceeds the enumeration cap a seeded random sample is used instead and
    flagged. All estimates share the seed (common random numbers), and the
    standard error is that of the per-path difference for the best deviation.
    """
    if deviating_player not in (1, 2):
        raise ValueError("deviating_player must be 1 or 2")
    counts = [
        model.n_actions_p1(x) if deviating_player == 1 else model.n_actions_p2(x)
        for x in range(model.n_states)
    ]
    total = 1
    for c in counts:
        total *= c
    if total <= _MAX_ENUMERATED_DEVIATIONS:
        assignments = list(itertools.product(*(range(c) for c in counts)))
        exhaustive = True
    else:
        logger.warning(
            "deviation space too large (%d assignments); sampling %d at random",
            total,
            _SAMPLED_DEVIATIONS,
        )
        gen = np.random.Generator(np.random.Philox(key=int(rng_seed)))
        assignments = [
            tuple(int(gen.integers(c)) for c in counts) for _ in range(_SAMPLED_DEVIATIONS)
        ]
        exhaustive = False

    base = estimate_value(
        model, base_policies, x0, t0, paths, rng_seed, retain_values=True, threads=threads
    )
    assert base.values is not None
    best_gain = -math.inf
    best_se = 0.0
    best_assignment: tuple[int, ...] | None = None
    for assignment in assignments:
        dev_policies = _pure_stationary_policy(base_policies, deviating_player, assignment)
        est = estimate_value(
            model, dev_policies, x0, t0, paths, rng_seed, retain_values=True, threads=threads
        )
        assert est.values is not None
        if deviating_player == 1:
            diff = est.values - base.values
        else:
            diff = base.values - est.values
        gain = float(np.mean(diff))
        if gain > best_gain:
            best_gain = gain
            best_se = float(np.std(diff, ddof=1) / math.sqrt(paths))
            best_assignment = assignment
    return DeviationReport(
        gain=best_gain,
        std_error=best_se,
        player=deviating_player,
        base=base,
        best_assignment=best_assignment,
        n_candidates=len(assignments),
        exhaustive=exhaustive,
    )
