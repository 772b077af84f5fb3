"""Point sets, tables, margins, and their validation."""
import pytest
from hypothesis import given, strategies as st

from satfrac.design import (
    check_size,
    fraction,
    from_table,
    full_grid,
    margins,
    table_margins,
    to_table,
)


def test_fraction_sorts_points():
    assert fraction([(2, 1), (1, 2), (1, 1)], 2, 2) == ((1, 1), (1, 2), (2, 1))


def test_fraction_accepts_empty():
    assert fraction([], 3, 3) == ()


@pytest.mark.parametrize("bad", [(0, 1), (1, 0), (4, 1), (1, 5), (-1, 2)])
def test_fraction_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        fraction([bad], 3, 4)


def test_fraction_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        fraction([(1, 1), (1, 1)], 2, 2)


def test_fraction_rejects_non_integer_coordinates():
    with pytest.raises(ValueError):
        fraction([(1.5, 1)], 2, 2)


def test_booleans_are_not_levels_or_sizes():
    with pytest.raises(ValueError, match="non-integer"):
        fraction([(True, 1), (2, 2)], 2, 2)
    with pytest.raises(ValueError, match="pair of integers"):
        check_size(True, 3)


@pytest.mark.parametrize("I,J", [(1, 2), (2, 1), (0, 0), (2, -3)])
def test_check_size_rejects_degenerate(I, J):
    with pytest.raises(ValueError):
        check_size(I, J)


def test_full_grid():
    assert full_grid(2, 3) == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
    assert len(full_grid(4, 5)) == 20


def test_margins_counts_levels():
    f = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]
    assert margins(f, 3, 4) == ((2, 2, 2), (1, 2, 2, 1))


def test_margins_of_empty():
    assert margins([], 2, 2) == ((0, 0), (0, 0))


def test_to_table():
    f = [(1, 1), (2, 2)]
    assert to_table(f, 2, 3) == ((1, 0, 0), (0, 1, 0))


def test_from_table_infers_shape():
    assert from_table([[1, 0, 0], [0, 1, 0]]) == ((1, 1), (2, 2))


def test_from_table_rejects_ragged():
    with pytest.raises(ValueError):
        from_table([[1, 0], [0]])


def test_from_table_rejects_non_binary():
    with pytest.raises(ValueError):
        from_table([[1, 2], [0, 0]])


def test_table_margins():
    t = [[1, 1, 0], [0, 1, 1]]
    assert table_margins(t) == ((2, 2), (1, 2, 1))


@st.composite
def fractions_with_size(draw):
    I = draw(st.integers(2, 5))
    J = draw(st.integers(2, 5))
    cells = [(i, j) for i in range(1, I + 1) for j in range(1, J + 1)]
    pts = draw(st.sets(st.sampled_from(cells), max_size=len(cells)))
    return fraction(pts, I, J), I, J


@given(fractions_with_size())
def test_table_round_trip(case):
    f, I, J = case
    assert from_table(to_table(f, I, J)) == f


@given(fractions_with_size())
def test_margin_routes_agree(case):
    f, I, J = case
    assert margins(f, I, J) == table_margins(to_table(f, I, J))
