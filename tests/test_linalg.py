"""Model matrices and exact integer determinants."""
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import oracles
from satfrac import linalg
from satfrac.design import CapExceeded
from satfrac.linalg import (
    full_model_matrix,
    integer_determinant,
    is_saturated_by_determinant,
    model_matrix,
    restrict,
)

# 6-point saturated 3x4 fraction used throughout, det +1
SATURATED_34 = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4))


def test_full_matrix_2x2_rows():
    assert full_model_matrix(2, 2) == ((1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0))


@pytest.mark.parametrize("I,J", [(2, 2), (3, 4), (4, 3), (5, 5)])
def test_full_matrix_shape_and_rank(I, J):
    X = full_model_matrix(I, J)
    assert len(X) == I * J
    assert all(len(row) == I + J - 1 for row in X)
    assert oracles.rank_of(X) == I + J - 1


def test_restrict_picks_lex_rows():
    X = full_model_matrix(2, 2)
    assert restrict(X, [(2, 1), (1, 2)], 2, 2) == (X[1], X[2])


def test_restrict_refuses_a_matrix_of_another_grid():
    with pytest.raises(ValueError) as exc:
        restrict(full_model_matrix(2, 2), [(1, 1)], 2, 3)
    assert str(exc.value) == "matrix has 4 rows, expected 6"


def test_full_matrix_over_the_cap_is_refused():
    with pytest.raises(CapExceeded) as exc:
        full_model_matrix(200, 200)
    assert str(exc.value) == "15960000 model-matrix entries exceed the cap of 10000000"
    with pytest.raises(ValueError, match="at least 2 x 2"):
        full_model_matrix(1, 5000)  # the size rule comes first


def test_model_matrix_of_known_fraction():
    assert model_matrix(SATURATED_34, 3, 4) == (
        (1, 1, 0, 1, 0, 0),
        (1, 1, 0, 0, 1, 0),
        (1, 0, 1, 0, 1, 0),
        (1, 0, 1, 0, 0, 1),
        (1, 0, 0, 0, 0, 1),
        (1, 0, 0, 0, 0, 0),
    )


def _error(thunk):
    with pytest.raises(ValueError) as info:
        thunk()
    return str(info.value)


def test_model_matrix_matches_restricted_full_matrix():
    rng = random.Random(20123)
    for _ in range(300):
        I, J = rng.randint(2, 7), rng.randint(2, 7)
        grid = list(itertools.product(range(1, I + 1), range(1, J + 1)))
        pts = rng.sample(grid, rng.randint(0, len(grid)))
        rng.shuffle(pts)
        got = model_matrix(pts, I, J)
        assert got == restrict(full_model_matrix(I, J), pts, I, J)
        # the model's definition: mean, then row and column indicators
        assert got == tuple(
            tuple([1] + [int(i == a) for a in range(1, I)] + [int(j == b) for b in range(1, J)])
            for i, j in sorted(pts)
        )
        bad = rng.choice([(0, 1), (I + 1, 1), (1, J + 1), (1, 0)])
        for wrong in [pts + [bad]] + ([pts + [pts[0]]] if pts else []):
            old = _error(lambda: restrict(full_model_matrix(I, J), wrong, I, J))
            assert _error(lambda: model_matrix(wrong, I, J)) == old
    for I, J in ((1, 3), (True, 3), (3, 2.0)):
        old = _error(lambda: restrict(full_model_matrix(I, J), [], I, J))
        assert _error(lambda: model_matrix([], I, J)) == old


def test_determinant_base_cases():
    assert integer_determinant([]) == 1
    assert integer_determinant([[7]]) == 7
    assert integer_determinant([[1, 2], [3, 4]]) == -2


def test_determinant_singular():
    assert integer_determinant([[1, 2], [2, 4]]) == 0
    assert integer_determinant([[0, 0], [0, 0]]) == 0


def test_determinant_needs_leading_swap():
    assert integer_determinant([[0, 1], [1, 0]]) == -1


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        integer_determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_rejects_non_integer():
    with pytest.raises(ValueError):
        integer_determinant([[1.5, 0], [0, 1]])


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_determinant_matches_rational_elimination(m):
    assert integer_determinant(m) == oracles.det_via_fractions(m)


def test_determinant_large_values_stay_exact():
    # 10x10 of +-7 entries overflows 64-bit cofactor products routinely
    import random

    rng = random.Random(0)
    m = [[rng.choice((-7, 7)) for _ in range(10)] for _ in range(10)]
    assert integer_determinant(m) == oracles.det_via_fractions(m)


# mostly 0 and +-1, as after unit-pivot steps, with the non-unit entries
# that send the rest of a matrix to the Bareiss phase
SPARSE_ENTRIES = (0, 0, 0, 0, 1, -1, 1, -1, 2, -3, 7)


def _random_matrix(rng, n, entries=SPARSE_ENTRIES):
    return [[rng.choice(entries) for _ in range(n)] for _ in range(n)]


def test_determinant_matches_rational_elimination_on_sparse_and_fallback_matrices(monkeypatch):
    # where the Bareiss phase starts: at column 0, midway, or (None) never
    starts = Counter()
    bareiss = linalg._bareiss

    def recorded(m):
        starts[n - len(m)] += 1
        return bareiss(m)

    monkeypatch.setattr(linalg, "_bareiss", recorded)
    rng = random.Random(1101)
    for _ in range(2000):
        n = rng.randint(0, 8)
        entries = rng.choice((SPARSE_ENTRIES, (0, 1, -1), (0, 2, -3, 7)))
        m = _random_matrix(rng, n, entries)
        before = sum(starts.values())
        assert integer_determinant(m) == oracles.det_via_fractions(m), m
        if sum(starts.values()) == before:
            starts[None] += 1
    assert starts[0] and starts[None] and set(starts) - {0, None}, starts


def test_determinant_of_matrices_with_repeated_or_zero_rows_is_zero():
    rng = random.Random(1102)
    for _ in range(500):
        n = rng.randint(2, 8)
        m = _random_matrix(rng, n)
        a, b = rng.sample(range(n), 2)
        sign = rng.choice((1, -1, 0))  # 0: a zero row
        m[b] = [sign * x for x in m[a]]
        assert integer_determinant(m) == oracles.det_via_fractions(m) == 0, m
        transposed = [list(col) for col in zip(*m)]
        assert integer_determinant(transposed) == 0, transposed


def test_determinant_of_tree_and_one_cycle_model_matrices():
    rng = random.Random(1103)
    sizes = [(30, 30), (2, 30), (30, 2)] + [(rng.randint(2, 15), rng.randint(2, 15)) for _ in range(40)]
    for I, J in sizes:
        tree = oracles.random_tree_fraction(I, J, rng)
        X = model_matrix(tree, I, J)
        assert integer_determinant(X) == oracles.det_via_fractions(X) in (1, -1)
        # swap one tree point for another grid point: one cycle, or a new tree
        outside = [(i, j) for i in range(1, I + 1) for j in range(1, J + 1) if (i, j) not in tree]
        if outside:
            drop = rng.choice(tree)
            swapped = [p for p in tree if p != drop] + [rng.choice(outside)]
            X = model_matrix(swapped, I, J)
            d = integer_determinant(X)
            assert d == oracles.det_via_fractions(X)
            assert (d != 0) == oracles.is_tree_fraction(swapped, I, J)


@given(st.integers(0, 8).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(SPARSE_ENTRIES) | st.integers(-9, 9), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_determinant_matches_rational_elimination_at_every_size(m):
    assert integer_determinant(m) == oracles.det_via_fractions(m)


def test_saturated_by_determinant_on_known_cases():
    assert is_saturated_by_determinant(SATURATED_34, 3, 4)
    cycle = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4)]
    assert not is_saturated_by_determinant(cycle, 3, 4)
    assert not is_saturated_by_determinant(SATURATED_34[:-1], 3, 4)


def test_determinant_route_agrees_with_tree_oracle_2x3():
    grid = list(itertools.product((1, 2), (1, 2, 3)))
    for sub in itertools.combinations(grid, 4):
        assert is_saturated_by_determinant(sub, 2, 3) == oracles.is_tree_fraction(
            sub, 2, 3
        )
