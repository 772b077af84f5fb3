"""Certification, counting, enumeration, generation, and sampling."""
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from satfrac import saturation
from satfrac.cycles import contains_cycle
from satfrac.design import CapExceeded, margins
from satfrac.linalg import integer_determinant, is_saturated_by_determinant
from satfrac.saturation import (
    check_margin_lemma,
    count_saturated,
    count_with_margins,
    enumerate_saturated,
    generate_with_margins,
    is_saturated,
    sample_uniform_saturated,
    saturation_probability,
)

SATURATED_34 = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4))
# 9 points on 5x5: margins obey every necessary condition, yet a 3-cycle hides inside
LOOKS_FINE_55 = (
    (1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3), (4, 4), (4, 5), (5, 4),
)


compositions = oracles.compositions


def test_is_saturated_known_cases():
    assert is_saturated(SATURATED_34, 3, 4)
    assert not is_saturated(SATURATED_34[:-1], 3, 4)
    assert not is_saturated([(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4)], 3, 4)
    assert not is_saturated(
        [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)], 4, 4
    )
    assert not is_saturated(LOOKS_FINE_55, 5, 5)


def test_both_routes_agree_on_all_3x4_subsets():
    grid = list(itertools.product((1, 2, 3), (1, 2, 3, 4)))
    for sub in itertools.combinations(grid, 6):
        expected = oracles.is_tree_fraction(sub, 3, 4)
        assert is_saturated(sub, 3, 4) == expected
        assert is_saturated_by_determinant(sub, 3, 4) == expected


def test_count_with_margins_known_values():
    assert count_with_margins((4, 1, 1, 1), (4, 1, 1, 1)) == 1
    assert count_with_margins((3, 2, 1, 1), (2, 2, 2, 1)) == 18
    assert count_with_margins((4, 1, 1), (3, 1, 1, 1)) == 1
    assert count_with_margins((2, 1), (2, 1)) == 1


def test_count_with_margins_rejects_bad_vectors():
    with pytest.raises(ValueError):
        count_with_margins((3, 1, 1), (3, 1, 1, 1))  # sums differ
    with pytest.raises(ValueError):
        count_with_margins((6, 0), (3, 1, 1, 1))  # zero entry
    with pytest.raises(ValueError):
        count_with_margins((3.0, 1, 2), (3, 1, 1, 1))
    with pytest.raises(ValueError) as exc:
        count_with_margins((2, 2), (2, 2))  # equal sums, but not I+J-1
    assert str(exc.value) == "margin sums must equal I+J-1 = 3, got 4"


@pytest.mark.parametrize(
    "I,J,expected",
    [(2, 2, 4), (3, 3, 81), (3, 4, 432), (4, 4, 4096), (4, 5, 32000)],
)
def test_count_saturated(I, J, expected):
    assert count_saturated(I, J) == expected


@pytest.mark.parametrize("I,J", [(3, 4), (4, 4), (2, 5)])
def test_count_is_sum_over_margin_pairs(I, J):
    p = I + J - 1
    total = sum(
        count_with_margins(mA, mB)
        for mA in compositions(p, I)
        for mB in compositions(p, J)
    )
    assert total == count_saturated(I, J)


def test_probability_exact_values():
    assert saturation_probability(3, 3) == Fraction(81, 126)
    assert saturation_probability(4, 4) == Fraction(4096, 11440)
    assert saturation_probability(5, 5) == Fraction(390625, 2042975)
    assert saturation_probability(6, 6) == Fraction(60466176, 600805296)


def test_generate_unique_margin_cases():
    assert list(generate_with_margins((2, 1), (2, 1))) == [((1, 1), (1, 2), (2, 1))]
    assert list(generate_with_margins((4, 1, 1), (3, 1, 1, 1))) == [
        ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (3, 1))
    ]
    assert list(generate_with_margins((4, 1, 1, 1), (4, 1, 1, 1))) == [
        ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1))
    ]


def test_generate_rejects_bad_margins():
    with pytest.raises(ValueError):
        next(generate_with_margins((3, 1, 1), (3, 1, 1, 1)))


def test_margin_vectors_refuse_booleans():
    # True == 1, but a boolean is not a margin
    with pytest.raises(ValueError, match="True"):
        count_with_margins((3, True, 2), (3, 1, 1, 1))
    with pytest.raises(ValueError, match="True"):
        next(generate_with_margins((3, 1, 2), (3, 1, True, 1)))


@pytest.mark.parametrize("I,J", [(3, 4), (4, 4)])
def test_generate_matches_count_and_margins(I, J):
    p = I + J - 1
    for mA in compositions(p, I):
        for mB in compositions(p, J):
            got = list(generate_with_margins(mA, mB))
            assert len(got) == count_with_margins(mA, mB)
            assert len(set(got)) == len(got)
            for f in got:
                assert is_saturated(f, I, J)
                assert margins(f, I, J) == (mA, mB)


def test_generate_handles_unsorted_margins():
    fs = list(generate_with_margins((1, 3, 2), (1, 1, 3, 1)))
    assert len(fs) == count_with_margins((1, 3, 2), (1, 1, 3, 1))
    assert all(margins(f, 3, 4) == ((1, 3, 2), (1, 1, 3, 1)) for f in fs)


def test_generate_transposed_orientation():
    # more rows than columns: the column code is longer than the row code
    fs = list(generate_with_margins((3, 1, 1, 1), (4, 1, 1)))
    assert len(fs) == count_with_margins((3, 1, 1, 1), (4, 1, 1))


@pytest.mark.parametrize("I,J", [(2, 2), (3, 3), (3, 4)])
def test_enumeration_matches_brute_force(I, J):
    got = sorted(enumerate_saturated(I, J))
    assert got == sorted(oracles.brute_saturated(I, J))
    assert len(set(got)) == len(got) == count_saturated(I, J)


def test_enumeration_filtered_by_margins_equals_generation():
    by_margins = {}
    for f in enumerate_saturated(3, 4):
        by_margins.setdefault(margins(f, 3, 4), []).append(f)
    for (mA, mB), fs in by_margins.items():
        assert list(generate_with_margins(mA, mB)) == fs


# every grid with at most about 40,000 trees, 4x5 and 3x7 included
SMALL_GRIDS = [
    (I, J) for I in range(2, 13) for J in range(2, 13) if count_saturated(I, J) <= 40000
]


@pytest.mark.parametrize("I,J", SMALL_GRIDS)
def test_enumeration_equals_heap_decoder_stream(I, J):
    expected = (
        oracles.heap_decode_tree(acode, bcode, I, J)
        for acode in itertools.product(range(1, I + 1), repeat=J - 1)
        for bcode in itertools.product(range(1, J + 1), repeat=I - 1)
    )
    assert list(enumerate_saturated(I, J)) == list(expected)


def test_decoder_equals_heap_decoder_on_random_codes():
    rng = random.Random(505)
    for _ in range(5000):
        I, J = rng.randint(2, 40), rng.randint(2, 40)
        acode = [rng.randint(1, I) for _ in range(J - 1)]
        bcode = [rng.randint(1, J) for _ in range(I - 1)]
        cells = saturation._decode_tree((*acode, *bcode), I, J)
        # strictly increasing cell indices (i-1)*J + (j-1) inside the grid
        assert all(a < b for a, b in zip(cells, cells[1:]))
        assert 0 <= cells[0] and cells[-1] < I * J
        assert tuple((k // J + 1, k % J + 1) for k in cells) == oracles.heap_decode_tree(
            acode, bcode, I, J
        )


@pytest.mark.parametrize("I,J", [(3, 4), (6, 7), (12, 15), (30, 40), (60, 60)])
def test_count_equals_the_kirchhoff_minor(I, J):
    # an independent route: the matrix-tree theorem on K(I,J); exact
    # rationals where they are quick, the package's sparse pivots beyond
    det = oracles.det_via_fractions if I * J <= 180 else integer_determinant
    assert oracles.kirchhoff_count(I, J, det) == count_saturated(I, J)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        next(enumerate_saturated(4, 4, cap=100))


def test_sampler_outputs_are_saturated():
    for I, J in [(2, 2), (3, 4), (5, 3), (6, 6)]:
        for seed in range(20):
            assert is_saturated(sample_uniform_saturated(I, J, seed), I, J)


def test_sampler_is_deterministic():
    assert sample_uniform_saturated(4, 4, 123) == sample_uniform_saturated(4, 4, 123)


def test_sampler_accepts_shared_generator():
    rng = random.Random(5)
    a = sample_uniform_saturated(3, 3, rng)
    b = sample_uniform_saturated(3, 3, rng)
    fresh = random.Random(5)
    assert a == sample_uniform_saturated(3, 3, fresh)
    assert b == sample_uniform_saturated(3, 3, fresh)


def test_sampler_leaves_a_caller_rng_where_the_randrange_reference_does():
    # 9 levels reject 7 of 16 four-bit words; 2 x 2 draws one level a side
    for I, J in [(2, 2), (3, 5), (9, 4), (4, 9)]:
        ours, ref = random.Random(11), random.Random(11)
        for _ in range(3):
            code = [ref.randrange(1, n + 1) for n in [I] * (J - 1) + [J] * (I - 1)]
            want = oracles.heap_decode_tree(code[:J - 1], code[J - 1:], I, J)
            assert sample_uniform_saturated(I, J, ours) == want
        assert ours.getstate() == ref.getstate()


def test_sampler_2x2_frequencies():
    # 2x3 is not square, so a row/column mix-up in the code draw shows
    for I, J in [(2, 2), (2, 3)]:
        counts = Counter(sample_uniform_saturated(I, J, seed) for seed in range(10000))
        assert sorted(counts) == sorted(oracles.brute_saturated(I, J))
        for n in counts.values():
            assert abs(n / 10000 - 1 / count_saturated(I, J)) < 0.02


def test_margin_lemma_on_square_saturated_fractions():
    for f in enumerate_saturated(3, 3):
        report = check_margin_lemma(f, 3, 3)
        assert report.square and report.saturated
        assert report.conditions == (True, True, True, True)
        assert report.all_pass


def test_margin_lemma_cross():
    report = check_margin_lemma([(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)], 3, 3)
    assert report.all_pass
    assert report.mA == (3, 1, 1) and report.mB == (3, 1, 1)


@pytest.mark.parametrize("I, J, sizes", [(3, 3, (126, 126)), (3, 4, (792, 924))])
def test_margin_lemma_equals_the_direct_oracle(I, J, sizes):
    # every subset of I+J-2 and I+J-1 cells, so sums_match is false on some
    grid = list(itertools.product(range(1, I + 1), range(1, J + 1)))
    for p, size in zip((I + J - 2, I + J - 1), sizes):
        subsets = list(itertools.combinations(grid, p))
        assert len(subsets) == size
        seen = set()
        for f in subsets:
            got = check_margin_lemma(f, I, J).conditions
            assert got == oracles.margin_conditions(f, I, J), f
            seen.add(got)
        # each of the last three conditions fails on some subset
        assert all(any(not c[k] for c in seen) for k in range(1, 4)), seen


def test_margin_lemma_only_unit_rows_in_heavy_columns_fails():
    # row 1's lone point sits in column 1, which is also used once
    report = check_margin_lemma([(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)], 3, 3)
    assert report.conditions == (True, True, True, False)
    assert not report.all_pass


def test_margin_lemma_is_not_sufficient():
    report = check_margin_lemma(LOOKS_FINE_55, 5, 5)
    assert report.all_pass
    assert not report.saturated


def test_margin_lemma_reports_rather_than_rejects():
    rect = check_margin_lemma(SATURATED_34, 3, 4)
    assert not rect.square
    empty_row = check_margin_lemma([(1, 1), (1, 2), (1, 3)], 2, 3)
    assert not empty_row.all_pass
    assert not empty_row.conditions[1]


def test_spanning_tree_maximality():
    grid = set(itertools.product((1, 2, 3), (1, 2, 3)))
    for f in enumerate_saturated(3, 3):
        for p in f:
            remaining = [q for q in f if q != p]
            assert not is_saturated(remaining, 3, 3)
            assert not contains_cycle(remaining)
        for extra in grid - set(f):
            assert contains_cycle(f + (extra,))
