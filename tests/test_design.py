"""Point sets, tables, margins, and their validation."""
import random
from collections import namedtuple

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

import oracles
from satfrac import design


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


def _outcome(fn, points, I, J):
    """(result, element types) or (exception type, message) of one call."""
    try:
        got = fn(iter(points), I, J)
    except Exception as e:
        return type(e), str(e)
    return got, [type(p) for p in got]


LevelPair = namedtuple("LevelPair", "i j")


def _fraction_inputs(rng):
    """Seeded point lists of every kind fraction() must judge like the slow route."""
    for _ in range(1500):
        I, J = rng.randint(2, 8), rng.randint(2, 8)
        cells = [(i, j) for i in range(1, I + 1) for j in range(1, J + 1)]
        pts = sorted(rng.sample(cells, rng.randint(0, len(cells))))
        kind = rng.randrange(9)
        if kind == 1:
            rng.shuffle(pts)
        elif kind == 2 and pts:
            pts.insert(rng.randint(0, len(pts)), rng.choice(pts))
        elif kind == 3:
            bad = rng.choice([(0, 1), (1, 0), (I + 1, 1), (1, J + 1), (-1, 2)])
            pts.insert(rng.randint(0, len(pts)), bad)
        elif kind == 4:
            bad = rng.choice([(1.0, 1), (1, "2"), (None, 1), (1, 2.5), ([1], 1)])
            pts.insert(rng.randint(0, len(pts)), bad)
        elif kind == 5:
            bad = rng.choice([(True, 1), (1, False), (True, True)])
            pts.insert(rng.randint(0, len(pts)), bad)
        elif kind == 6:
            bad = rng.choice([[1, 1], (1, 1, 1), (1,), 7, "11", None])
            pts.insert(rng.randint(0, len(pts)), bad)
        elif kind == 7:
            pts = [LevelPair(*p) if rng.random() < 0.5 else p for p in pts]
            if pts and rng.random() < 0.3:  # a namedtuple equal to a plain pair
                pts.insert(rng.randint(0, len(pts)), LevelPair(*rng.choice(pts)))
            if rng.random() < 0.3:
                rng.shuffle(pts)
        elif kind == 8 and len(pts) > 1:  # increasing, then one step back
            k = rng.randrange(1, len(pts))
            pts[k - 1], pts[k] = pts[k], pts[k - 1]
        yield pts, I, J
    for I, J in ((1, 3), (3, 1), (True, 3), (2.0, 3)):
        yield [(1, 1)], I, J


def test_fraction_matches_slow_route():
    rng = random.Random(606)
    seen_kinds = set()
    for points, I, J in _fraction_inputs(rng):
        fast = _outcome(fraction, points, I, J)
        assert fast == _outcome(oracles.slow_fraction, points, I, J), (points, I, J)
        seen_kinds.add(fast[0] if isinstance(fast[0], type) else "ok")
    assert seen_kinds == {"ok", ValueError}


def test_booleans_are_not_levels_or_sizes():
    with pytest.raises(ValueError, match="non-integer"):
        fraction([(True, 1), (2, 2)], 2, 2)
    with pytest.raises(ValueError, match="pair of integers"):
        check_size(True, 3)


@pytest.mark.parametrize(
    "mA, mB, low, message",
    [((), (1,), 0, "mA is empty"), ((1,), [], 0, "mB is empty"),
     ((0, 2), (1, 1), 1, "mA entry 0 invalid: margins are ints >= 1"),
     ((1, 1), (2, -1, 1), 0, "mB entry -1 invalid"), ((1,), (1, 1), 0, "margin sums differ: 1 vs 2")],
)
def test_check_margins_refuses_empty_low_and_unequal_vectors(mA, mB, low, message):
    assert design.check_margins(iter([0, 2]), [1, 1], 0) == ((0, 2), (1, 1))
    with pytest.raises(ValueError, match=message):
        design.check_margins(mA, mB, low)


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


def test_from_table_refuses_non_int_entries_with_their_position():
    # True == 1 and 1.0 == 1, so a value test alone lets them in
    for table, cell in ((((True, 0), (0, 1)), "True at row 1, column 1"),
                        (((1, 0), (0, 1.0)), "1.0 at row 2, column 2"),
                        (((1, 0), (0.0, 1)), "0.0 at row 2, column 1"),
                        (((1, 2), (0, 0)), "2 at row 1, column 2")):
        with pytest.raises(ValueError, match="0/1") as exc:
            from_table(table)
        assert cell in str(exc.value)


@pytest.mark.parametrize("table", [(1, 0), (1, 0, 0, 1), [(1, 0), 1]])
def test_from_table_refuses_a_grid_that_is_not_rows(table):
    with pytest.raises(ValueError, match="table is not a sequence of rows"):
        from_table(table)


def test_table_routes_match_the_oracle_on_seeded_grids():
    # to_table and from_table against oracles.table_of; every fourth grid
    # is spoiled (ragged, bool or float) at a random cell, and must be
    # refused with that cell's position
    rng = random.Random(907)
    for n in range(1000):
        I, J = rng.randint(2, 8), rng.randint(2, 8)
        density = rng.random()
        f = fraction([(i, j) for i in range(1, I + 1) for j in range(1, J + 1)
                      if rng.random() < density], I, J)
        table = oracles.table_of(f, I, J)
        assert to_table(f, I, J) == table
        assert from_table(table) == from_table([list(row) for row in table]) == f
        if n % 4:
            continue
        i, j = rng.randint(1, I), rng.randint(1, J)
        rows = [list(row) for row in table]
        kind = rng.choice(("ragged", "bool", "float"))
        if kind == "ragged":
            del rows[i - 1][j - 1]
            if i == 1:  # row 1 sets the width, so the next row is the short one
                i = 2
            where = f"row {i} has"
        else:
            rows[i - 1][j - 1] = (bool if kind == "bool" else float)(table[i - 1][j - 1])
            where = f"at row {i}, column {j}"
        with pytest.raises(ValueError, match=kind if kind == "ragged" else "0/1") as exc:
            from_table(rows)
        assert where in str(exc.value)


def test_the_codec_sets_bit_i_times_J_plus_j_for_cell_i_j():
    # 0-based (i, j); a transposed bit order fails on the non-square grids
    rng = random.Random(5)
    for _ in range(200):
        I, J = rng.randint(1, 7), rng.randint(1, 7)
        move = tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(J)) for _ in range(I))
        want = [sum(1 << i * J + j for i in range(I) for j in range(J) if move[i][j] == v)
                for v in (1, -1)]
        assert design._encode(move, "move", (0, 1, -1)) == (I, J, want)
        row = design._row_decoder(J)
        plus, minus = (design._rows(I, J, row, m) for m in want)
        assert tuple(tuple(p - m for p, m in zip(*rows)) for rows in zip(plus, minus)) == move
        # the plus and minus masks read side by side by one signed row function
        signed = lambda p, m: tuple(a - b for a, b in zip(row(p), row(m)))
        assert design._rows(I, J, signed, *want) == move
        assert list(design._tables(I, J, signed, *([m] * 3 for m in want))) == [move] * 3
    assert design._encode(((0, 1, 0), (0, 0, 0)), "table") == (2, 3, [2])
    assert design._rows(2, 3, design._row_decoder(3), 2 | 1 << 5) == ((0, 1, 0), (0, 0, 1))
    assert design._row_decoder(3) is design._row_decoder(3)  # one decoder per width
