"""Cycle detection, OA decomposition, and cycle counting."""
import itertools
import random

import pytest

import oracles
from satfrac.cycles import (
    OAPair,
    contains_cycle,
    count_k_cycles,
    decompose_cycle,
    derangements,
    enumerate_k_cycles,
    find_cycle,
    is_orthogonal_array,
)

# 7 points on 4x4 holding one 3-cycle
WITH_3CYCLE = ((1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3))
# 8 points forming a single 4-cycle
ONE_4CYCLE = ((1, 1), (1, 3), (2, 2), (2, 4), (3, 2), (3, 3), (4, 1), (4, 4))
# 8 points forming two disjoint 2-cycles
TWO_2CYCLES = ((1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (3, 4), (4, 2), (4, 4))


def test_contains_cycle_basics():
    assert not contains_cycle([])
    assert not contains_cycle([(1, 1)])
    assert not contains_cycle([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)])
    assert contains_cycle([(1, 1), (1, 2), (2, 1), (2, 2)])
    assert contains_cycle(WITH_3CYCLE)
    assert contains_cycle(ONE_4CYCLE)
    assert contains_cycle(TWO_2CYCLES)


def test_find_cycle_returns_the_3_cycle():
    assert find_cycle(WITH_3CYCLE) == (
        (1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3),
    )


def test_find_cycle_prefers_a_sub_cycle():
    # two components: the one through the smallest point comes back
    assert find_cycle(TWO_2CYCLES) == ((1, 1), (1, 3), (2, 1), (2, 3))


def test_find_cycle_none_on_trees():
    assert find_cycle([(1, 1), (1, 2), (2, 2)]) is None
    assert find_cycle([]) is None


def _is_single_cycle(points):
    """Every used level appears exactly twice and the set is connected."""
    rows = {}
    cols = {}
    for i, j in points:
        rows[i] = rows.get(i, 0) + 1
        cols[j] = cols.get(j, 0) + 1
    if not all(v == 2 for v in rows.values()):
        return False
    if not all(v == 2 for v in cols.values()):
        return False
    return oracles.component_count(points) == 1


def test_detectors_agree_on_all_small_subsets_of_3x4():
    grid = list(itertools.product((1, 2, 3), (1, 2, 3, 4)))
    for size in range(9):
        for sub in itertools.combinations(grid, size):
            # acyclic iff the incidence graph is a forest
            vertices = len({i for i, _ in sub}) + len({j for _, j in sub})
            forest = len(sub) == vertices - oracles.component_count(sub)
            assert contains_cycle(sub) == (not forest)
            got = find_cycle(sub)
            assert (got is None) == forest
            if got is not None:
                assert set(got) <= set(sub)
                assert _is_single_cycle(got)


def test_decompose_splits_a_4_cycle_into_transversals():
    assert decompose_cycle(ONE_4CYCLE) == (
        ((1, 1), (2, 2), (3, 3), (4, 4)),
        ((1, 3), (2, 4), (3, 2), (4, 1)),
    )


def test_decompose_2_cycle():
    assert decompose_cycle([(1, 1), (1, 2), (2, 1), (2, 2)]) == (
        ((1, 1), (2, 2)),
        ((1, 2), (2, 1)),
    )


def test_decompose_rejects_unbalanced_sets():
    with pytest.raises(ValueError):
        decompose_cycle([(1, 1), (1, 2), (2, 1)])
    with pytest.raises(ValueError):
        decompose_cycle([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_decompose_every_k_cycle_into_strength_1_arrays(k):
    for points in oracles.two_per_level_sets(k):
        p1, p2 = decompose_cycle(points)
        assert set(p1).isdisjoint(p2)
        assert set(p1) | set(p2) == set(points)
        assert is_orthogonal_array(p1, 1)
        assert is_orthogonal_array(p2, 1)


def test_is_orthogonal_array():
    full22 = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert is_orthogonal_array(full22, 2)
    assert is_orthogonal_array(full22, 1)
    assert is_orthogonal_array([(1, 1), (2, 2)], 1)
    # only one row level present, so row balance holds trivially
    assert is_orthogonal_array([(1, 1), (1, 2)], 1)
    assert not is_orthogonal_array([(1, 1), (1, 2), (2, 1)], 1)
    assert not is_orthogonal_array([(1, 1), (1, 2), (2, 1)], 2)


def test_is_orthogonal_array_ignores_absent_levels():
    # a 2-cycle embedded high in a larger grid is still a strength-2 array
    assert is_orthogonal_array([(3, 2), (3, 4), (4, 2), (4, 4)], 2)


def test_is_orthogonal_array_refuses_an_empty_point_set():
    with pytest.raises(ValueError) as exc:
        is_orthogonal_array([], 1)
    assert str(exc.value) == "empty point set"


def test_is_orthogonal_array_rejects_bad_strength():
    with pytest.raises(ValueError):
        is_orthogonal_array([(1, 1)], 3)
    with pytest.raises(ValueError):
        is_orthogonal_array([(1, 1)], 0)


def test_derangement_values():
    assert [derangements(k) for k in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]
    for k in range(2, 12):
        assert derangements(k) == oracles.derangements_via_e(k)


def test_derangements_reject_negative():
    with pytest.raises(ValueError):
        derangements(-1)


def test_count_k_cycles_values():
    assert [count_k_cycles(k) for k in (2, 3, 4, 5)] == [1, 6, 108, 2640]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_count_matches_decomposition_oracle(k):
    assert count_k_cycles(k) == oracles.decomposed_cycle_count(k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_enumerate_k_cycles_on_square_grid(k):
    pairs = list(enumerate_k_cycles(k, k, k))
    assert len(pairs) == count_k_cycles(k)
    assert len(set(pairs)) == len(pairs)
    for pair in pairs:
        assert isinstance(pair, OAPair)
        assert pair.k == k
        assert set(pair.oa1).isdisjoint(pair.oa2)
        assert is_orthogonal_array(pair.oa1, 1)
        assert is_orthogonal_array(pair.oa2, 1)
        rows = [i for i, _ in pair.points]
        cols = [j for _, j in pair.points]
        assert all(rows.count(r) == 2 for r in set(rows))
        assert all(cols.count(c) == 2 for c in set(cols))


def test_enumerate_k_cycles_in_larger_grid():
    # embeddings multiply by the ways to choose levels
    got = sum(1 for _ in enumerate_k_cycles(3, 4, 2))
    assert got == 3 * 6 * count_k_cycles(2)


def test_enumerate_k_cycles_rejects_oversized_k():
    with pytest.raises(ValueError):
        list(enumerate_k_cycles(3, 4, 4))


def test_distinct_point_sets_carry_their_decomposition_multiplicity():
    # a two-component 4-cycle shows up once per way of pairing its parts
    pairs = list(enumerate_k_cycles(4, 4, 4))
    by_set = {}
    for pair in pairs:
        by_set.setdefault(tuple(sorted(pair.points)), []).append(pair)
    assert len(by_set) == len(oracles.two_per_level_sets(4))
    for points, owners in by_set.items():
        expected = 2 ** (oracles.component_count(points) - 1)
        assert len(owners) == expected


def _one_cycle_fraction(I, J, rng):
    """A spanning tree plus one grid point it lacks: exactly one cycle."""
    tree = oracles.random_tree_fraction(I, J, rng)
    taken = set(tree)
    while True:
        extra = (rng.randint(1, I), rng.randint(1, J))
        if extra not in taken:
            return tree + [extra]


def test_find_cycle_matches_slow_route_on_random_subsets():
    rng = random.Random(20121)
    for _ in range(3000):
        I, J = rng.randint(2, 8), rng.randint(2, 8)
        grid = list(itertools.product(range(1, I + 1), range(1, J + 1)))
        sub = rng.sample(grid, rng.randint(0, len(grid)))
        assert find_cycle(sub) == oracles.slow_find_cycle(sub), (I, J, sub)


def test_find_cycle_matches_slow_route_on_trees_and_one_cycle_fractions():
    rng = random.Random(20122)
    for _ in range(60):
        I, J = rng.randint(2, 60), rng.randint(2, 60)
        tree = oracles.random_tree_fraction(I, J, rng)
        assert oracles.is_tree_fraction(tree, I, J)
        assert find_cycle(tree) is None and oracles.slow_find_cycle(tree) is None
        one = _one_cycle_fraction(I, J, rng)
        got = find_cycle(one)
        assert got is not None and _is_single_cycle(got)
        assert got == oracles.slow_find_cycle(one), (I, J, one)
