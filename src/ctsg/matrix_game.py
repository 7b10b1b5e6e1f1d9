"""Exact solution of two-player zero-sum matrix games via linear programming.

The game with payoff matrix C (rows = maximizer, columns = minimizer) is
solved through the classical normalized LP: after mapping all entries into
[1, 2], player 2's problem becomes

    max 1'w   subject to  C w <= 1,  w >= 0,

whose optimal w recovers the column strategy (psi = w / sum w, game value
1 / sum w before mapping back) and whose dual solution, read off the slack
columns of the final tableau, recovers the row strategy. One simplex run
therefore yields the value and both optimal mixed strategies.

The map is (C - min C) / (max C - min C) + 1, so the LP sees the same
matrix whatever the scale and offset of the payoffs, and the solution is
equivariant under both up to round-off. A constant game would map to the
all-ones LP; it skips the tableau and gets by rule the answer Bland's
method returns for that LP: value min C (+0.0 for a zero game), both
players on their first action, flagged degenerate. Such games fill the
absorbing states of a truncation ladder.

A non-constant 2x2 or 3x3 game is first tried by the Shapley-Snow kernel
formula (Shapley and Snow, 1950), which gives a fully mixed optimum in
closed form from the cofactors of the mapped game. It reads the tableau's
own rounded game: the mapped entries minus 1, which is exact. The formula's
answer is taken when it is certified: its round-off is bounded (the
cofactor products do not cancel by more than a factor _KERNEL_CANCELLATION),
the value lies in the mapped range, and every primal and dual LP variable
exceeds the tableau's degeneracy tolerance. The equilibrium is then the
game's only one (Kaplansky, 1945), the vertex Bland's method reaches with
no alternate optima, so the game is flagged non-degenerate exactly as the
tableau would flag it. Every other game (singular, tied, pure saddle,
degenerate or ill-conditioned) goes to the tableau, bit for bit as before.

The simplex is a dense primal tableau with Bland's anti-cycling rule
(lowest-index entering variable, lowest-index basic variable on ratio
ties), which makes the returned vertex deterministic across runs. Value
iteration solves one small game per grid cell, so the kernel works on a
stack of equally shaped games at once: every step of the scalar method,
including Bland's sequential scan of the ratio rows, is applied to all games
of a block of up to _BLOCK_GAMES in lockstep, and a game leaves the block
once it is optimal. Each game's arithmetic is exactly the scalar method's,
so a result does not depend on the other games in the stack or on where
block boundaries fall.

Stacks are games last, (m, n, games), from ctsg.shapley's payoff stack to
the strategies (m, games) and (n, games) of the core, solve_games_last.
Each game's min and max are elementwise over the m * n rows of games, and
the map into [1, 2], the rule and the tableau, laid out (row, column,
game), read and write whole contiguous rows of games. Blocks are slices of
the stack; constant games ride through them and get their rule answer at
the end. solve_matrix_game is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-12
_DEGENERACY_TOL = 1e-9
# Games per block of the rule and of the tableau. Bounds the working memory
# and keeps it in cache. On one rps64 sweep's stack (16 448 3x3 games, all
# by rule) the core takes 3.0-3.3 ms in blocks of 4096 and 5.3-5.7 ms as one
# block; on 16 448 random 4x4 games (all by tableau) 51-56 ms against
# 52-61 ms. Results do not depend on it.
_BLOCK_GAMES = 4096
# Largest ratio of the summed cofactor products to the kernel sum for which
# the closed form is used; its round-off then stays near 1e-14.
_KERNEL_CANCELLATION = 100.0


@dataclass
class MatrixGameSolution:
    """Value and optimal mixed strategies of a zero-sum matrix game.

    status is "optimal" or "degenerate-optimal"; the latter flags alternate
    optimal vertices (a nonbasic column with zero reduced cost), in which
    case the deterministically chosen vertex is returned.
    """

    value: float
    strategy_p1: np.ndarray
    strategy_p2: np.ndarray
    status: str


def _simplex(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve max 1'w s.t. C[:, :, g] w <= 1, w >= 0 for each game g of an (m, n, B) stack.

    Entries must be >= 1. Returns (w (n, B), dual y (m, B), degenerate (B,)).
    Finite termination is guaranteed by Bland's rule; unboundedness is
    impossible because every column of C is strictly positive.
    """
    m, n, B = C.shape
    # Tableau (row, column, game), games on the last, contiguous axis. Rows:
    # 0 = objective (reduced costs, negated for max), 1..m constraints.
    tab = np.zeros((m + 1, n + m + 1, B))
    tab[0, :n] = -1.0
    tab[1:, :n] = C
    tab[1:, n : n + m] = np.eye(m)[:, :, None]
    tab[1:, -1] = 1.0
    basis = np.tile(np.arange(n, n + m)[:, None], (1, B))

    # Unfinished games, compacted to the front as games become optimal. Until
    # the first compaction work is tab itself, so the games that finish
    # then are already in place.
    live = np.arange(B)
    work, work_basis = tab, basis
    while live.size:
        # Bland: entering variable = lowest column index with negative reduced cost.
        negative = work[0, : n + m] < -_PIVOT_TOL
        pivoting = negative.any(axis=0)
        if not pivoting.all():
            if work is not tab:
                done = ~pivoting
                tab[:, :, live[done]] = work[:, :, done]
                basis[:, live[done]] = work_basis[:, done]
            live = live[pivoting]
            work = np.compress(pivoting, work, axis=2)
            work_basis = np.compress(pivoting, work_basis, axis=1)
            negative = np.compress(pivoting, negative, axis=1)
            if not live.size:
                break
        games = np.arange(live.size)
        enter = negative.argmax(axis=0)
        factor = np.take_along_axis(work, enter[None, None, :], axis=1)[:, 0]
        col = factor[1:]
        rhs = work[1:, -1]
        # Ratio test scanned row by row, as the scalar method does: a tie
        # within tolerance goes to the lower basic variable, and the running
        # best ratio moves to every accepted row.
        best_ratio = np.full(live.size, np.inf)
        leave = np.full(live.size, -1)
        leave_var = np.zeros(live.size, dtype=basis.dtype)
        for i in range(m):
            eligible = col[i] > _PIVOT_TOL
            ratio = rhs[i] / np.where(eligible, col[i], 1.0)
            var = work_basis[i]
            take = eligible & (
                (ratio < best_ratio - _PIVOT_TOL)
                | ((ratio < best_ratio + _PIVOT_TOL) & ((leave < 0) | (var < leave_var)))
            )
            best_ratio = np.where(take, ratio, best_ratio)
            leave = np.where(take, i, leave)
            leave_var = np.where(take, var, leave_var)
        if (leave < 0).any():
            raise RuntimeError("unbounded game LP; input matrix not positive")
        piv_row = (leave + 1)[None, None, :]
        pivot = np.take_along_axis(work, piv_row, axis=0) / factor[leave + 1, games]
        # Rows with a zero entering coefficient are left untouched, as in the
        # scalar method; subtracting 0 * pivot could flip the sign of a zero.
        np.subtract(work, factor[:, None, :] * pivot, out=work, where=(factor != 0.0)[:, None, :])
        np.put_along_axis(work, piv_row, pivot, axis=0)
        work_basis[leave, games] = enter

    games = np.arange(B)
    w = np.zeros((n, B))
    for i in range(m):
        structural = basis[i] < n
        w[basis[i, structural], games[structural]] = tab[i + 1, -1, structural]
    y = tab[0, n : n + m]  # dual values sit in the slack reduced costs

    nonbasic = np.ones((n + m, B), dtype=bool)
    nonbasic[basis, games] = False
    degenerate = (nonbasic & (np.abs(tab[0, : n + m]) <= _DEGENERACY_TOL)).any(axis=0)
    return w, y, degenerate


def _completely_mixed(
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shapley-Snow kernel formula for an (m, m, B) stack, m in {2, 3}, with entries in [0, 1].

    With cof the cofactor matrix of a game and total the sum of cof's
    entries, a fully mixed optimum is p1 = (row sums of cof) / total,
    p2 = (column sums of cof) / total, value det / total. Returns
    (values (B,), p1 (m, B), p2 (m, B), certified (B,)). A game is
    certified when
    - the products that make up the cofactors add up, in absolute value, to
      at most _KERNEL_CANCELLATION times |total|, which bounds the
      formula's round-off at about that many units of double precision
      (and rules out total = 0),
    - 0 <= value <= 1, and
    - every p1 / (1 + value) and p2 / (1 + value), the dual and primal
      variables of the normalized LP, exceeds the tableau's degeneracy
      tolerance.
    The game's matrix is then nonsingular and both equalizing strategies
    are positive, so they are its only optimum (Kaplansky): the vertex
    Bland's method reaches, with no alternate optima.
    """
    cof = np.empty_like(a)  # a[i, j] and cof[i, j] hold entry (i, j) of every game
    if a.shape[0] == 2:
        cof[0, 0], cof[0, 1], cof[1, 0], cof[1, 1] = a[1, 1], -a[1, 0], -a[0, 1], a[0, 0]
        magnitude = np.abs(cof).sum(axis=(0, 1))
    else:
        magnitude = np.zeros(a.shape[2])
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                plus, minus = a[i1, j1] * a[i2, j2], a[i1, j2] * a[i2, j1]
                cof[i, j] = plus - minus
                magnitude += plus + minus  # entries are >= 0
    det = (a[0] * cof[0]).sum(axis=0)
    rows = cof.sum(axis=1)
    cols = cof.sum(axis=0)
    total = rows.sum(axis=0)
    # total = 0 makes the first ratio inf or NaN, which fails its test.
    with np.errstate(divide="ignore", invalid="ignore"):
        values = det / total
        p1 = rows / total
        p2 = cols / total
        certified = magnitude / np.abs(total) <= _KERNEL_CANCELLATION
    certified &= (values >= 0.0) & (values <= 1.0)
    floor = _DEGENERACY_TOL * (1.0 + values)
    certified &= (p1 > floor).all(axis=0) & (p2 > floor).all(axis=0)
    return values, p1, p2, certified


def _solve_line_games(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Games with a single row (column): player 2 (1) picks the first best entry."""
    m, n, B = C.shape
    games = np.arange(B)
    if m == 1:
        line = C[0]
        best = line.argmin(axis=0)
        p1 = np.ones((1, B))
        p2 = np.zeros((n, B))
        p2[best, games] = 1.0
    else:
        line = C[:, 0]
        best = line.argmax(axis=0)
        p1 = np.zeros((m, B))
        p1[best, games] = 1.0
        p2 = np.ones((1, B))
    values = line[best, games]
    tol = _DEGENERACY_TOL * (1.0 + np.abs(C).max(axis=(0, 1)))
    ties = np.sum(np.abs(line - values) <= tol, axis=0)
    return values, p1, p2, ties > 1


def solve_games_last(
    C: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the zero-sum matrix games of a games-last stack exactly.

    C is a float array of shape (m, n, B) with m, n >= 1; game g has payoff
    matrix C[:, :, g] with player 1 on rows (maximizing). Returns
    (values (B,), strategies_p1 (m, B), strategies_p2 (n, B),
    degenerate (B,) bool), where degenerate flags alternate optimal
    vertices. Each game's result is bitwise the same whatever else is in
    the stack.

    Raises ValueError on a malformed or non-finite stack or an overflowing payoff range.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 3 or C.shape[0] == 0 or C.shape[1] == 0:
        raise ValueError("payoff stack must have shape (m, n, B) with m, n >= 1")
    if not np.isfinite(C).all():
        raise ValueError("payoff matrix contains a non-finite entry")
    m, n, B = C.shape
    if m == 1 or n == 1:
        return _solve_line_games(C)

    # Map every game into [1, 2]: a positive game value and a bounded
    # normalized LP, the same LP whatever the payoffs' scale and offset.
    flat = C.reshape(m * n, B)
    low = flat.min(axis=0)
    with np.errstate(over="ignore"):
        span = flat.max(axis=0) - low
    if not np.isfinite(span).all():
        raise ValueError("payoff matrix range overflows double precision")
    varied = span != 0.0
    values = np.empty(B)
    p1 = np.empty((m, B))
    p2 = np.empty((n, B))
    degenerate = np.empty(B, dtype=bool)
    for lo in range(0, B, _BLOCK_GAMES):
        block = slice(lo, lo + _BLOCK_GAMES)
        # A constant game maps to 0 / 0 here; its answer is set by rule below.
        with np.errstate(invalid="ignore"):
            scaled = (C[:, :, block] - low[block]) / span[block] + 1.0
        tableau = varied[block]
        if m == n <= 3:
            # scaled - 1 is exact, so the formula reads the tableau's game.
            # A declined game's answer is overwritten by the tableau's below.
            v, p1[:, block], p2[:, block], certified = _completely_mixed(scaled - 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                values[block] = v * span[block] + low[block]
            degenerate[block] = False
            tableau = tableau & ~certified
        if not tableau.any():
            continue
        rows = lo + np.flatnonzero(tableau)
        w, y, degenerate[rows] = _simplex(np.compress(tableau, scaled, axis=2))
        total_w = w.sum(axis=0)
        total_y = y.sum(axis=0)
        p2[:, rows] = w / total_w
        p1[:, rows] = y / total_y
        values[rows] = (1.0 / total_w - 1.0) * span[rows] + low[rows]

    constant = ~varied
    if constant.any():
        # A constant game maps to the all-ones LP. Bland's method solves that
        # in one pivot to w = y = e0 with alternate optima, so its answer is
        # set here by rule: value (1/1 - 1) * 1 + low, both players on their
        # first action.
        np.copyto(values, 0.0 + low, where=constant)
        np.copyto(p1, np.eye(m, 1), where=constant)
        np.copyto(p2, np.eye(n, 1), where=constant)
        degenerate |= constant
    return values, p1, p2, degenerate


def solve_matrix_game(C: np.ndarray) -> MatrixGameSolution:
    """Solve the zero-sum matrix game with payoff matrix C exactly.

    Player 1 (rows) maximizes, player 2 (columns) minimizes. Returns the
    game value and a pair of optimal mixed strategies satisfying the saddle
    inequalities up to LP tolerance. This is solve_games_last on a stack
    of one.

    Raises ValueError on an empty or non-finite matrix.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.size == 0:
        raise ValueError("payoff matrix must be a nonempty 2-d array")
    values, p1, p2, degenerate = solve_games_last(np.ascontiguousarray(C[:, :, None]))
    status = "degenerate-optimal" if degenerate[0] else "optimal"
    return MatrixGameSolution(float(values[0]), p1[:, 0], p2[:, 0], status)
