"""Release acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see a [PASS] line
per criterion.  Statistical checks use frozen seeds and alpha = 0.01;
timing bounds are generous for CI noise but still catch algorithmic
regressions (a quadratic slip on the 4x4 sweeps blows the budget).
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import scipy.stats

import oracles
import satfrac as sf

DEMO_34 = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4))

FOUR_CYCLE = ((1, 1), (1, 3), (2, 2), (2, 4), (3, 2), (3, 3), (4, 1), (4, 4))

RIGID_TABLE = ((1, 1, 1, 1), (1, 0, 0, 0), (1, 0, 0, 0))
THREE_TABLE_START = ((1, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1))
THREE_TABLE_FIBER = {
    ((1, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1)),
    ((1, 0, 1, 1), (1, 0, 0, 0), (1, 1, 0, 0)),
    ((1, 1, 0, 1), (1, 0, 0, 0), (1, 0, 1, 0)),
}

MARGIN_TYPES_44 = ((4, 1, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1))
TYPE_WEIGHTS_44 = {(4, 1, 1, 1): 4, (3, 2, 1, 1): 36, (2, 2, 2, 1): 24}


def _type(margin):
    return tuple(sorted(margin, reverse=True))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c01_demo_fraction_unit_determinant():
    det = sf.integer_determinant(sf.model_matrix(DEMO_34, 3, 4))
    assert det == 1
    best = min(
        _timed(lambda: sf.integer_determinant(sf.model_matrix(DEMO_34, 3, 4)))
        for _ in range(5)
    )
    assert best < 1e-3
    print(f"\n[PASS] C1: demo 3x4 fraction has determinant 1 ({best * 1e6:.0f} us)")


def test_c02_cycle_free_iff_nonsingular_exhaustive():
    runtimes = []
    for I, J, subsets, bound in ((3, 4, 924, 1.0), (4, 4, 11440, 10.0)):
        grid = sf.full_grid(I, J)
        seen = 0
        disagreements = 0
        t0 = time.perf_counter()
        for sub in itertools.combinations(grid, I + J - 1):
            acyclic = not sf.contains_cycle(sub)
            nonsingular = sf.integer_determinant(sf.model_matrix(sub, I, J)) != 0
            disagreements += acyclic != nonsingular
            seen += 1
        elapsed = time.perf_counter() - t0
        assert seen == subsets
        assert disagreements == 0
        assert elapsed < bound
        runtimes.append(elapsed)
    print(
        "\n[PASS] C2: cycle-free == non-singular on all 924 + 11440 subsets"
        f" ({runtimes[0]:.2f} s + {runtimes[1]:.2f} s)"
    )


def test_c03_enumerated_counts_match_formula():
    expected = {(2, 2): 4, (3, 3): 81, (3, 4): 432, (4, 4): 4096, (4, 5): 32000}
    t0 = time.perf_counter()
    for (I, J), n in expected.items():
        assert sum(1 for _ in sf.enumerate_saturated(I, J)) == n
        assert sf.count_saturated(I, J) == n == I ** (J - 1) * J ** (I - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(
        "\n[PASS] C3: enumerated counts match I^(J-1)*J^(I-1) for"
        f" {len(expected)} sizes ({elapsed:.2f} s)"
    )


def test_c04_margin_type_count_tables():
    pinned = (4, 1, 1, 1)
    one_side = Counter()
    cross = Counter()
    for mA in oracles.compositions(7, 4):
        one_side[_type(mA)] += sf.count_with_margins(mA, pinned)
        for mB in oracles.compositions(7, 4):
            cross[_type(mA), _type(mB)] += sf.count_with_margins(mA, mB)
    assert one_side == TYPE_WEIGHTS_44
    expected_cross = {
        (tA, tB): TYPE_WEIGHTS_44[tA] * TYPE_WEIGHTS_44[tB]
        for tA in MARGIN_TYPES_44
        for tB in MARGIN_TYPES_44
    }
    assert cross == expected_cross
    assert sum(cross.values()) == 4096

    filtered_one = Counter()
    filtered_cross = Counter()
    for points in sf.enumerate_saturated(4, 4):
        mA, mB = sf.margins(points, 4, 4)
        filtered_cross[_type(mA), _type(mB)] += 1
        if mB == pinned:
            filtered_one[_type(mA)] += 1
    assert filtered_one == one_side
    assert filtered_cross == cross
    print(
        "\n[PASS] C4: margin-type counts (4, 36, 24) and their 3x3 cross"
        " table agree between the formula and the filtered enumeration"
    )


def test_c05_saturation_probabilities():
    expected = {
        3: (Fraction(81, 126), "0.64"),
        4: (Fraction(4096, 11440), "0.36"),
        5: (Fraction(390625, 2042975), "0.19"),
        6: (Fraction(60466176, 600805296), "0.10"),
    }
    for n, (exact, rendered) in expected.items():
        p = sf.saturation_probability(n, n)
        assert p == exact
        assert f"{float(p):.2f}" == rendered
    print(
        "\n[PASS] C5: square saturation probabilities render 0.64, 0.36,"
        " 0.19, 0.10 with the exact rationals behind them"
    )


def test_c06_k_cycle_counts_brute_force():
    expected = {2: 1, 3: 6, 4: 108, 5: 2640}
    t0 = time.perf_counter()
    for k, n in expected.items():
        assert sf.count_k_cycles(k) == n
        assert n == math.factorial(k) * sf.derangements(k) // 2
        assert oracles.decomposed_cycle_count(k) == n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(
        "\n[PASS] C6: k-cycle counts 1, 6, 108, 2640 for k = 2..5 by"
        f" formula and by brute force ({elapsed:.2f} s)"
    )


def test_c07_cycles_split_into_orthogonal_arrays():
    checked = 0
    for k in (2, 3, 4):
        for pair in sf.enumerate_k_cycles(4, 4, k):
            part1, part2 = sf.decompose_cycle(pair.points)
            s1, s2 = set(part1), set(part2)
            assert s1.isdisjoint(s2)
            assert s1 | s2 == set(pair.points)
            assert sf.is_orthogonal_array(part1, 1)
            assert sf.is_orthogonal_array(part2, 1)
            if k == 2:
                assert sf.is_orthogonal_array(pair.points, 2)
            checked += 1
    assert sf.decompose_cycle(FOUR_CYCLE) == (
        ((1, 1), (2, 2), (3, 3), (4, 4)),
        ((1, 3), (2, 4), (3, 2), (4, 1)),
    )
    print(
        f"\n[PASS] C7: all {checked} enumerated k-cycles (k <= 4) split"
        " into two disjoint strength-1 orthogonal arrays"
    )


def test_c08_basis_and_worked_fibers():
    basis = sf.markov_basis(3, 4)
    assert len(basis) == 42 == sf.basis_size(3, 4)
    degrees = Counter(sum(1 for row in m for v in row if v == 1) for m in basis)
    assert degrees == {2: 18, 3: 24}

    assert sf.fiber_enumerate((4, 1, 1), (3, 1, 1, 1)) == [RIGID_TABLE]
    fiber = sf.fiber_enumerate((3, 1, 2), (3, 1, 1, 1))
    assert len(fiber) == 3
    assert set(fiber) == THREE_TABLE_FIBER

    covered = sum(
        set(sf.walk_states(THREE_TABLE_START, basis, 1000, seed)) == THREE_TABLE_FIBER
        for seed in range(100)
    )
    assert covered == 100
    print(
        "\n[PASS] C8: 3x4 basis has 42 = 18 + 24 moves, both worked fibers"
        " are exact, and the walk covers the 3-table fiber for 100/100 seeds"
    )


def test_c09_uniformity_chi_square():
    fiber = sf.fiber_enumerate((2, 2, 1), (2, 2, 1))
    assert len(fiber) == 5
    basis = sf.markov_basis(3, 3)
    states = list(sf.walk_states(fiber[0], basis, 50000, 17))
    thinned = Counter(states[9::10])
    walk_p = scipy.stats.chisquare([thinned[t] for t in fiber]).pvalue
    assert walk_p > 0.01

    rng = random.Random(2024)
    draws = Counter(sf.sample_uniform_saturated(3, 3, rng) for _ in range(50000))
    fractions = list(sf.enumerate_saturated(3, 3))
    assert len(fractions) == 81
    sampler_p = scipy.stats.chisquare([draws[f] for f in fractions]).pvalue
    assert sampler_p > 0.01
    print(
        f"\n[PASS] C9: chi-square uniformity holds, p = {walk_p:.2f} (thinned"
        f" walk, 5-table fiber) and p = {sampler_p:.2f} (sampler, 81"
        " fractions), alpha = 0.01"
    )


def test_c10_unimodular_determinants():
    checked = 0
    for points in sf.enumerate_saturated(4, 4):
        assert abs(sf.integer_determinant(sf.model_matrix(points, 4, 4))) == 1
        checked += 1
    assert checked == 4096
    print(
        "\n[PASS] C10: |det| == 1 for all 4096 saturated 4x4 fractions"
    )


def test_c11_equivalence_class_regression():
    tables = [oracles.table_of(f, 4, 4) for f in sf.enumerate_saturated(4, 4)]
    classes = oracles.orbit_partition(tables)
    assert sum(len(c) for c in classes) == 4096

    pair_counts = Counter()
    for cls in classes:
        mA, mB = sf.table_margins(cls[0])
        pair_counts[tuple(sorted((_type(mA), _type(mB)), reverse=True))] += 1
    # regression values, frozen after the first computation
    assert len(classes) == 9
    assert pair_counts == {
        ((4, 1, 1, 1), (4, 1, 1, 1)): 1,
        ((4, 1, 1, 1), (3, 2, 1, 1)): 1,
        ((4, 1, 1, 1), (2, 2, 2, 1)): 1,
        ((3, 2, 1, 1), (3, 2, 1, 1)): 3,
        ((3, 2, 1, 1), (2, 2, 2, 1)): 2,
        ((2, 2, 2, 1), (2, 2, 2, 1)): 1,
    }
    assert pair_counts[(3, 2, 1, 1), (3, 2, 1, 1)] >= 2
    assert pair_counts[(3, 2, 1, 1), (2, 2, 2, 1)] >= 2
    print(
        "\n[PASS] C11: 4x4 fractions fall into 9 permutation/transpose"
        " classes; both repeated margin-type pairs have >= 2 classes"
    )


def test_find_cycle_linear_time_guard():
    # one union-find pass plus one BFS; the old per-point rebuild took ~0.15 s
    tree = oracles.random_tree_fraction(150, 150, random.Random(150))
    assert oracles.is_tree_fraction(tree, 150, 150)
    assert sf.find_cycle(tree) is None
    best = min(_timed(lambda: sf.find_cycle(tree)) for _ in range(3))
    assert best < 0.05
    print(f"\n[PASS] find_cycle on a 150x150 spanning tree in {best * 1e3:.2f} ms")


def test_sparse_determinant_time_guard():
    # unit-pivot sparse elimination; dense Bareiss took ~1.6 s on this 299 x 299 matrix
    tree = oracles.random_tree_fraction(150, 150, random.Random(150))
    X = sf.model_matrix(tree, 150, 150)
    assert abs(sf.integer_determinant(X)) == 1
    best = min(_timed(lambda: sf.integer_determinant(X)) for _ in range(3))
    assert best < 0.5
    print(f"\n[PASS] determinant of a 150x150 tree's model matrix in {best * 1e3:.1f} ms")


def test_fiber_enumerate_time_guard():
    # 67,950 tables; every branch ends in a two-row tail of lazy codes
    m = (2,) * 6
    assert len(sf.fiber_enumerate(m, m)) == 67950
    best = min(_timed(lambda: sf.fiber_enumerate(m, m)) for _ in range(3))
    assert best < 0.75
    print(f"\n[PASS] fiber_enumerate on (2,)*6 x (2,)*6 in {best * 1e3:.0f} ms")
