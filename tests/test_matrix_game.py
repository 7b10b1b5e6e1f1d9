"""Matrix game LP: exactness, saddle property, equivariances, brute force."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ctsg import matrix_game
from ctsg.matrix_game import (
    _BLOCK_GAMES,
    _completely_mixed,
    _simplex,
    solve_games_last,
    solve_matrix_game,
)

RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
EQUALIZER = np.array([[3.0, 1.0], [0.0, 2.0]])  # value 3/2, p1 (1/2, 1/2), p2 (1/4, 3/4)


def brute_force_value(C: np.ndarray, step: float) -> float:
    """Lower-value grid search over player 1's mixed strategies (3 rows).

    Pure column responses suffice for the inner minimum, so this enumerates
    the simplex grid and is independent of the LP path.
    """
    best = -np.inf
    ps = np.arange(0.0, 1.0 + step / 2, step)
    for p0 in ps:
        p1s = np.arange(0.0, 1.0 - p0 + step / 2, step)
        p = np.stack([np.full_like(p1s, p0), p1s, 1.0 - p0 - p1s], axis=1)
        best = max(best, float(np.max(np.min(p @ C, axis=1))))
    return best


matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4),
    elements=st.floats(-10, 10, allow_nan=False),
)

# For cross-transform comparisons (shift/scale), entries live on a 1e-6 grid:
# sub-epsilon distinctions (say 1e-116 vs 0) are absorbed by adding s, which
# legitimately flips deterministic tie-breaking and is not a solver property.
grid_matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4),
    elements=st.floats(-10, 10, allow_nan=False).map(lambda v: round(v, 6)),
)


class TestExamples:
    def test_rock_paper_scissors_uniform(self):
        sol = solve_matrix_game(RPS)
        assert abs(sol.value) <= 1e-9
        np.testing.assert_allclose(sol.strategy_p1, 1.0 / 3.0, atol=1e-9)
        np.testing.assert_allclose(sol.strategy_p2, 1.0 / 3.0, atol=1e-9)

    def test_single_entry(self):
        sol = solve_matrix_game(np.array([[2.5]]))
        assert sol.value == 2.5
        assert sol.strategy_p1.tolist() == [1.0] and sol.strategy_p2.tolist() == [1.0]

    def test_two_by_two_equalizer(self):
        # closed form by equalization: 3p = 2 - p and 1 + 2q = 2 - 2q
        sol = solve_matrix_game(EQUALIZER)
        assert sol.value == pytest.approx(1.5, abs=1e-9)
        np.testing.assert_allclose(sol.strategy_p1, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(sol.strategy_p2, [0.25, 0.75], atol=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            solve_matrix_game(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            solve_matrix_game(np.zeros((0, 2)))

    def test_degenerate_status(self):
        sol = solve_matrix_game(np.zeros((2, 2)))
        assert sol.status == "degenerate-optimal"
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_vertex(self):
        C = np.array([[1.0, 1.0], [1.0, 1.0]])
        a = solve_matrix_game(C)
        b = solve_matrix_game(C)
        np.testing.assert_array_equal(a.strategy_p1, b.strategy_p1)
        np.testing.assert_array_equal(a.strategy_p2, b.strategy_p2)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_saddle_and_simplex_invariants(C):
    sol = solve_matrix_game(C)
    slack = 1e-9 * (1.0 + np.abs(C).max())
    assert abs(sol.strategy_p1.sum() - 1.0) <= 1e-10
    assert abs(sol.strategy_p2.sum() - 1.0) <= 1e-10
    assert np.all(sol.strategy_p1 >= -1e-12) and np.all(sol.strategy_p2 >= -1e-12)
    assert np.min(sol.strategy_p1 @ C) >= sol.value - slack
    assert np.max(C @ sol.strategy_p2) <= sol.value + slack


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_transpose_negation_duality(C):
    sol = solve_matrix_game(C)
    dual = solve_matrix_game(-C.T)
    assert dual.value == pytest.approx(-sol.value, abs=1e-8 * (1.0 + abs(sol.value)))


@settings(max_examples=40, deadline=None)
@given(grid_matrices, st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 6)))
def test_shift_equivariance(C, s):
    base = solve_matrix_game(C)
    shifted = solve_matrix_game(C + s)
    assert shifted.value == pytest.approx(base.value + s, abs=1e-8 * (1.0 + abs(s) + abs(base.value)))
    np.testing.assert_allclose(shifted.strategy_p1, base.strategy_p1, atol=1e-7)
    np.testing.assert_allclose(shifted.strategy_p2, base.strategy_p2, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(grid_matrices, st.floats(0.1, 4.0, allow_nan=False).map(lambda v: round(v, 6)))
def test_scale_equivariance(C, lam):
    base = solve_matrix_game(C)
    scaled = solve_matrix_game(lam * C)
    assert scaled.value == pytest.approx(lam * base.value, abs=1e-8 * (1.0 + abs(base.value)))
    np.testing.assert_allclose(scaled.strategy_p1, base.strategy_p1, atol=1e-7)
    np.testing.assert_allclose(scaled.strategy_p2, base.strategy_p2, atol=1e-7)


def test_random_3x3_against_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        C = rng.uniform(-1.0, 1.0, size=(3, 3))
        sol = solve_matrix_game(C)
        assert sol.value == pytest.approx(brute_force_value(C, step=1e-2), abs=2e-2)


@pytest.mark.parametrize("s", [1e-30, 1e30])
def test_scale_equivariance_at_extreme_scales(s):
    two = solve_matrix_game(s * EQUALIZER)
    assert two.value == pytest.approx(1.5 * s, rel=1e-14)
    np.testing.assert_allclose(two.strategy_p1, [0.5, 0.5], rtol=1e-14)
    np.testing.assert_allclose(two.strategy_p2, [0.25, 0.75], rtol=1e-14)
    rps = solve_matrix_game(s * RPS)
    assert abs(rps.value) <= 1e-14 * s
    np.testing.assert_allclose(rps.strategy_p1, 1.0 / 3.0, rtol=1e-14)
    np.testing.assert_allclose(rps.strategy_p2, 1.0 / 3.0, rtol=1e-14)


@pytest.mark.parametrize("C, value", [(EQUALIZER, 1.5), (RPS, 0.0)])
@pytest.mark.parametrize("offset", [1e8, -1e8])
def test_offset_equivariance_at_large_offsets(C, value, offset):
    # C + offset - min(C + offset) is exact here, so the LP is unchanged.
    base = solve_matrix_game(C)
    moved = solve_matrix_game(C + offset)
    assert moved.value == offset + value
    np.testing.assert_array_equal(moved.strategy_p1, base.strategy_p1)
    np.testing.assert_array_equal(moved.strategy_p2, base.strategy_p2)


def solve_games_first(C: np.ndarray) -> tuple[np.ndarray, ...]:
    """solve_games_last on a games-first (B, m, n) stack, with the strategies games first."""
    values, p1, p2, degenerate = solve_games_last(np.ascontiguousarray(C.transpose(1, 2, 0)))
    return values, p1.T, p2.T, degenerate


def assert_batch_matches_singles(C: np.ndarray) -> None:
    """Every game of the stack solves bit for bit as it does on its own."""
    values, p1, p2, degenerate = solve_games_first(C)
    for g in range(C.shape[0]):
        one = solve_games_first(C[g : g + 1])
        assert values[g : g + 1].tobytes() == one[0].tobytes()
        assert p1[g : g + 1].tobytes() == one[1].tobytes()
        assert p2[g : g + 1].tobytes() == one[2].tobytes()
        assert degenerate[g] == one[3][0]


game_stacks = st.tuples(
    st.integers(1, 6), st.integers(1, 4), st.integers(1, 4)
).flatmap(
    lambda shape: arrays(
        np.float64,
        shape,
        elements=st.one_of(
            st.floats(-10, 10, allow_nan=False),
            st.integers(-2, 2).map(float),  # ties and degenerate games
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(game_stacks)
def test_batch_equals_single_bitwise(C):
    assert_batch_matches_singles(C)


@pytest.mark.parametrize("B", [_BLOCK_GAMES - 1, _BLOCK_GAMES + 1])
def test_result_independent_of_neighbours_and_block_boundaries(B):
    rng = np.random.default_rng(B)
    probe = rng.uniform(-1.0, 1.0, size=(3, 3))
    alone = solve_games_first(probe[None])
    # B varied games with a constant one after every fourth; constant games
    # are answered by rule and kept out of the tableau blocks
    constant = np.zeros(B + B // 4, dtype=bool)
    constant[4::5] = True
    varied = np.flatnonzero(~constant)
    C = np.empty((constant.size, 3, 3))
    C[constant] = rng.choice([0.0, -0.0, 2.5, -1e300], size=(int(constant.sum()), 1, 1))
    C[varied] = rng.uniform(-1.0, 1.0, size=(B, 3, 3))
    C[varied[1::3]] = np.round(C[varied[1::3]])  # neighbours that tie or degenerate
    # first, middle and last varied game, and the varied games on either
    # side of the first block boundary
    offsets = [varied[i] for i in sorted({0, B // 2, B - 1, _BLOCK_GAMES - 1, _BLOCK_GAMES}) if i < B]
    C[offsets] = probe
    values, p1, p2, degenerate = solve_games_first(C)
    for g in offsets:
        assert values[g : g + 1].tobytes() == alone[0].tobytes()
        assert p1[g : g + 1].tobytes() == alone[1].tobytes()
        assert p2[g : g + 1].tobytes() == alone[2].tobytes()
        assert degenerate[g] == alone[3][0]
    # and every other game, constant ones included, matches its own solo solve on a sample
    sample = np.concatenate([rng.choice(varied, 30, replace=False), np.flatnonzero(constant)[:10]])
    for g in sample:
        one = solve_games_first(C[g : g + 1])
        assert values[g : g + 1].tobytes() == one[0].tobytes()
        assert p1[g : g + 1].tobytes() == one[1].tobytes()
        assert p2[g : g + 1].tobytes() == one[2].tobytes()
        assert degenerate[g] == one[3][0]


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (2, 5)])
@pytest.mark.parametrize("c", [0.0, -0.0, 1e300, -1e300, 1e-300])
def test_constant_game_rule_equals_tableau(shape, c):
    """The rule for span-0 games is bitwise what the all-ones tableau returns."""
    games = [np.full(shape, c)]
    if c == 0.0:  # and signed zeros mixed within one game
        mixed = np.zeros(shape)
        mixed.flat[::2] = -0.0
        games.append(mixed)
    C = np.stack(games)
    w, y, degenerate = _simplex(np.ones(C.shape[1:] + C.shape[:1]))
    w, y = w.T, y.T
    total_w = w.sum(axis=1)
    low = C.min(axis=(1, 2))
    expected = (
        (1.0 / total_w - 1.0) * 1.0 + low,
        y / y.sum(axis=1)[:, None],
        w / total_w[:, None],
        degenerate,
    )
    got = solve_games_first(C)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def test_stack_validation():
    shape = r"payoff stack must have shape \(m, n, B\) with m, n >= 1"
    with pytest.raises(ValueError, match=shape):
        solve_games_last(np.zeros((2, 2)))
    with pytest.raises(ValueError, match=shape):
        solve_games_last(np.zeros((0, 2, 3)))
    with pytest.raises(ValueError, match=shape):
        solve_games_last(np.zeros((2, 0, 3)))
    with pytest.raises(ValueError):
        solve_games_first(np.array([[[1.0, np.inf]]]))
    with pytest.raises(ValueError):
        solve_matrix_game(np.array([[1e308, -1e308], [0.0, 1.0]]))


def mapped(C: np.ndarray) -> np.ndarray:
    """The stack's non-constant games mapped into [1, 2] as solve_games_last maps them, games last."""
    low = C.min(axis=(1, 2))
    span = C.max(axis=(1, 2)) - low
    varied = span != 0.0
    return ((C[varied] - low[varied, None, None]) / span[varied, None, None] + 1.0).transpose(1, 2, 0)


def tableau_answer(C: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bland's answer for a stack of non-constant games, mapped back as solve_games_last does."""
    low = C.min(axis=(1, 2))
    span = C.max(axis=(1, 2)) - low
    w, y, degenerate = _simplex(mapped(C))
    w, y = w.T, y.T
    total_w = w.sum(axis=1)
    return (1.0 / total_w - 1.0) * span + low, y / y.sum(axis=1)[:, None], w / total_w[:, None], degenerate


def square_stacks(elements):
    return st.tuples(st.integers(1, 6), st.sampled_from([2, 3])).flatmap(
        lambda shape: arrays(np.float64, (shape[0], shape[1], shape[1]), elements=elements)
    )


# Entries on a 1e-2 grid keep every game's structure on the scale of its
# payoff range. A game whose optimum rests on entries many orders below that
# range is ill-conditioned: there the formula and the tableau's
# tolerance-bound pivots may part by more than 1e-13.
continuous_games = square_stacks(st.floats(-10, 10, allow_nan=False).map(lambda v: round(v, 2)))
integer_games = square_stacks(st.integers(-2, 2).map(float))  # ties, singular kernels, saddles


@settings(max_examples=200, deadline=None)
@given(continuous_games)
def test_kernel_rule_matches_tableau_where_it_certifies(C):
    K = mapped(C)
    value, p1, p2, certified = _completely_mixed(K - 1.0)
    p1, p2 = p1.T, p2.T
    w, y, degenerate = _simplex(K[:, :, certified])
    w, y = w.T, y.T
    # on the mapped stack: values in [1, 2], probabilities summing to 1
    np.testing.assert_allclose(1.0 + value[certified], 1.0 / w.sum(axis=1), rtol=1e-13)
    np.testing.assert_allclose(p1[certified], y / y.sum(axis=1)[:, None], rtol=0, atol=1e-13)
    np.testing.assert_allclose(p2[certified], w / w.sum(axis=1)[:, None], rtol=0, atol=1e-13)
    assert not degenerate.any()


@settings(max_examples=200, deadline=None)
@given(integer_games)
def test_games_the_rule_declines_keep_the_tableau_answer_bitwise(C):
    C = C[np.ptp(C, axis=(1, 2)) != 0.0]
    declined = ~_completely_mixed(mapped(C) - 1.0)[3]
    got = solve_games_first(C[declined])
    for a, b in zip(got, tableau_answer(C[declined])):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "C, value, p1, p2",
    [
        (EQUALIZER, 1.5, [0.5, 0.5], [0.25, 0.75]),
        (RPS, 0.0, [1 / 3] * 3, [1 / 3] * 3),
        (1e30 * RPS, 0.0, [1 / 3] * 3, [1 / 3] * 3),
        (1e-30 * RPS, 0.0, [1 / 3] * 3, [1 / 3] * 3),
    ],
    ids=["equalizer", "rps", "rps-1e30", "rps-1e-30"],
)
def test_kernel_rule_named_games(C, value, p1, p2):
    assert _completely_mixed(mapped(C[None]) - 1.0)[3].all()
    sol = solve_matrix_game(C)
    assert sol.value == pytest.approx(value, rel=1e-15, abs=0.0)
    np.testing.assert_allclose(sol.strategy_p1, p1, rtol=1e-15)
    np.testing.assert_allclose(sol.strategy_p2, p2, rtol=1e-15)
    assert sol.status == "optimal"


def test_cancelling_kernel_goes_to_the_tableau():
    # Fully mixed in exact arithmetic, but the cofactors of the mapped game
    # cancel: the formula's strategies would miss the saddle by 1e-4 of the
    # payoff range, so the game is declined and Bland's vertex returned.
    C = np.array(
        [
            [-2.536034038298254e-19, -1.3913174506555114e-21, -2.8051243324023424e-17],
            [-6.383328447425041e-16, 9.945934923354528e-13, -4.756049773287273e-19],
            [4.5900826977289184e-08, -0.0008258053723581592, -2.9247662541194465e-15],
        ]
    )[None]
    assert not _completely_mixed(mapped(C) - 1.0)[3].any()
    got = solve_games_first(C)
    for a, b in zip(got, tableau_answer(C)):
        assert a.tobytes() == b.tobytes()
    _, p1, p2, _ = got
    assert np.max(C[0] @ p2[0]) - np.min(p1[0] @ C[0]) <= 1e-12 * np.ptp(C)


def core_stack(size: int, rng: np.random.Generator) -> tuple[np.ndarray, list[str]]:
    """A games-last (size, size, 28) stack cycling through seven kinds of game.

    The cycle's length, 7, is coprime with the block length 5 used below, so
    every kind lands on either side of several block boundaries.
    """
    kinds = ["zero", "fully-mixed", "integer", "minus-zero", "fully-mixed", "1e300", "integer"]
    games = []
    for g in range(28):
        kind = kinds[g % 7]
        if kind in ("zero", "minus-zero", "1e300"):
            games.append(np.full((size, size), {"zero": 0.0, "minus-zero": -0.0, "1e300": 1e300}[kind]))
        elif kind == "fully-mixed":  # a cyclic game with a unique, interior equilibrium
            games.append(np.roll(np.eye(size), 1, axis=1) + 0.1 * rng.uniform(-1.0, 1.0, (size, size)))
        else:  # ties: singular kernels and pure saddles
            games.append(rng.integers(-2, 3, (size, size)).astype(float))
    return np.stack(games, axis=2), [kinds[g % 7] for g in range(28)]


@pytest.mark.parametrize("size", [2, 3, 4])
def test_core_blocks_mix_constant_certified_and_declined_games(size, monkeypatch):
    """With blocks of 5, each game of a mixed games-last stack is bitwise its own solve."""
    monkeypatch.setattr(matrix_game, "_BLOCK_GAMES", 5)
    C, kinds = core_stack(size, np.random.default_rng(size))
    if size <= 3:  # the stack holds games the rule certifies and games it declines
        certified = np.zeros(len(kinds), dtype=bool)
        certified[np.ptp(C, axis=(0, 1)) != 0.0] = _completely_mixed(mapped(C.transpose(2, 0, 1)) - 1.0)[3]
        kind = np.array(kinds)
        assert certified[kind == "fully-mixed"].all() and not certified[kind == "integer"].all()
    values, p1, p2, degenerate = solve_games_last(C)
    assert (values.shape, p1.shape, p2.shape, degenerate.shape) == ((28,), (size, 28), (size, 28), (28,))
    for g in range(C.shape[2]):
        one = solve_matrix_game(C[:, :, g])
        assert values[g].tobytes() == np.float64(one.value).tobytes(), (g, kinds[g])
        assert p1[:, g].tobytes() == one.strategy_p1.tobytes(), (g, kinds[g])
        assert p2[:, g].tobytes() == one.strategy_p2.tobytes(), (g, kinds[g])
        assert degenerate[g] == (one.status == "degenerate-optimal"), (g, kinds[g])
