"""Two-factor grid designs and their fractions.

A full design is the I x J grid of level pairs, I, J >= 2.  Points are
1-based pairs (i, j).  A fraction is a duplicate-free subset of the grid,
held canonically as a tuple sorted in lexicographic point order; every
function in the package accepts any iterable of points and relies on
fraction() for normalization.  The 0/1 incidence table N has N[i-1][j-1]
= 1 exactly when (i, j) belongs to the fraction.
"""
from __future__ import annotations

from typing import Iterable, Sequence

Point = tuple[int, int]
Points = tuple[Point, ...]
Table = tuple[tuple[int, ...], ...]


DEFAULT_CAP = 10_000_000


class CapExceeded(ValueError):
    """An enumeration or basis build would outgrow its configured cap."""


def check_size(I: int, J: int) -> None:
    """Reject grids smaller than 2 x 2."""
    if not (type(I) is int and type(J) is int):
        raise ValueError("design size must be a pair of integers")
    if I < 2 or J < 2:
        raise ValueError(f"design size must be at least 2 x 2, got {I} x {J}")


def fraction(points: Iterable[Point], I: int, J: int) -> Points:
    """Validate and canonicalize a point collection for the I x J grid.

    Raises ValueError on out-of-range levels or duplicate points, at the
    first offending point in iteration order.  Strictly increasing input,
    which cannot hold a duplicate, takes a linear route and comes back as
    it is; anything else is deduplicated through a set and sorted.
    """
    check_size(I, J)
    out: list[Point] = []
    last = (0, 0)
    seen = None
    for p in points:
        if not (isinstance(p, tuple) and len(p) == 2):
            raise ValueError(f"point {p!r} is not a pair")
        i, j = p
        if not (type(i) is int and type(j) is int):
            raise ValueError(f"point {p!r} has non-integer levels")
        if not (1 <= i <= I and 1 <= j <= J):
            raise ValueError(f"point ({i}, {j}) outside the {I} x {J} grid")
        if seen is None:
            if p > last:
                out.append(p)
                last = p
                continue
            seen = set(out)
        if p in seen:
            raise ValueError(f"duplicate point ({i}, {j})")
        seen.add(p)
    return tuple(out) if seen is None else tuple(sorted(seen))


def full_grid(I: int, J: int) -> Points:
    check_size(I, J)
    return tuple((i, j) for i in range(1, I + 1) for j in range(1, J + 1))


def margins(points: Iterable[Point], I: int, J: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column replication counts (m_A, m_B) of a fraction."""
    f = fraction(points, I, J)
    mA = [0] * I
    mB = [0] * J
    for i, j in f:
        mA[i - 1] += 1
        mB[j - 1] += 1
    return tuple(mA), tuple(mB)


def to_table(points: Iterable[Point], I: int, J: int) -> Table:
    """0/1 incidence table of a fraction."""
    f = set(fraction(points, I, J))
    return tuple(
        tuple(1 if (i, j) in f else 0 for j in range(1, J + 1))
        for i in range(1, I + 1)
    )


def from_table(table: Sequence[Sequence[int]]) -> Points:
    """Fraction encoded by a 0/1 table; the grid size is the table shape."""
    I = len(table)
    if I == 0:
        raise ValueError("empty table")
    J = len(table[0])
    check_size(I, J)
    pts = []
    for i, row in enumerate(table, start=1):
        if len(row) != J:
            raise ValueError(f"ragged table: row {i} has {len(row)} entries, expected {J}")
        for j, cell in enumerate(row, start=1):
            if cell == 1:
                pts.append((i, j))
            elif cell != 0:
                raise ValueError(f"non-binary entry {cell!r} at row {i}, column {j}")
    return tuple(pts)


def table_margins(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column sums of an integer table (not restricted to 0/1)."""
    mA = tuple(sum(row) for row in table)
    mB = tuple(sum(col) for col in zip(*table))
    return mA, mB
