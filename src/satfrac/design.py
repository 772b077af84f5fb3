"""Two-factor grid designs and their fractions.

A full design is the I x J grid of level pairs, I, J >= 2.  Points are
1-based pairs (i, j).  A fraction is a duplicate-free subset of the grid,
held canonically as a tuple sorted in lexicographic point order; every
function in the package accepts any iterable of points and relies on
fraction() for normalization.  The 0/1 incidence table N has N[i-1][j-1]
= 1 exactly when (i, j) belongs to the fraction.

Dense grids and bit masks meet in one codec here: _encode checks a grid
(equal rows of ints from a given set; True and 1.0 are refused; a bad
entry is named by row and column) and returns one mask per non-zero
value, bit (i-1)*J + (j-1) for cell (i, j).  _rows and _tables apply a
row function, such as _row_decoder's row tuples, to each row's J-bit
slice of one grid's masks or of streams of them, read side by side.
_draws is the one random stream of the walk and the sampler.

Every size, count, cap, level, degree, sign and margin entry is an int
in the sense type(x) is int (True and 2.0 are refused with ValueError);
check_size checks a grid shape, check_margins a pair of margin vectors,
check_cap a cap.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import abc
from typing import Callable, Iterable, Iterator, Sequence

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


def check_cap(cap: int) -> None:
    """Reject a cap that is not an int; a negative cap is an int that
    every enumeration exceeds."""
    if type(cap) is not int:
        raise ValueError(f"cap must be an int, got {cap!r}")


def check_margins(mA, mB, low: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(mA, mB) as tuples; ValueError unless non-empty, of ints >= low, and equal in sum."""
    mA, mB = tuple(mA), tuple(mB)
    for name, vec in (("mA", mA), ("mB", mB)):
        if not vec:
            raise ValueError(f"{name} is empty")
        for x in vec:
            if type(x) is not int or x < low:
                raise ValueError(f"{name} entry {x!r} invalid: margins are ints >= {low}")
    if sum(mA) != sum(mB):
        raise ValueError(f"margin sums differ: {sum(mA)} vs {sum(mB)}")
    return mA, mB


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
    return _rows(I, J, _row_decoder(J), _mask(fraction(points, I, J), J))


def _mask(points: Points, J: int) -> int:
    """The codec's mask of distinct points on a grid of J columns."""
    return sum(1 << (i - 1) * J + j - 1 for i, j in points)


def from_table(table: Sequence[Sequence[int]]) -> Points:
    """Fraction encoded by a 0/1 table; the grid size is the table shape."""
    I, J, _ = _encode(table, "table")
    check_size(I, J)
    return tuple((i, j) for i, row in enumerate(table, 1) for j, v in enumerate(row, 1) if v)


def _encode(grid: Sequence[Sequence[int]], what: str,
            values: Sequence[int] = (0, 1)) -> tuple[int, int, list[int]]:
    """(I, J, masks) of a dense grid: one mask per non-zero value in
    values, in that order, with bit (i-1)*J + (j-1) set where cell (i, j)
    holds the value.  ValueError, naming what, unless grid is a sequence
    of rows of one length whose entries are ints drawn from values."""
    if not (isinstance(grid, abc.Sequence) and all(isinstance(row, abc.Sequence) for row in grid)):
        raise ValueError(f"{what} is not a sequence of rows")
    J = len(grid[0]) if grid else 0
    for i, row in enumerate(grid, start=1):
        if len(row) != J:
            raise ValueError(f"{what} is ragged: row {i} has {len(row)} entries, expected {J}")
        for j, v in enumerate(row, start=1):
            if type(v) is not int or v not in values:
                allowed = ("0/1" if set(values) == {0, 1}
                           else "{%s}" % ", ".join(map(str, sorted(values))))
                raise ValueError(f"{what} entries must be ints in {allowed}: "
                                 f"{v!r} at row {i}, column {j}")
    cells = [v for row in reversed(grid) for v in reversed(row)]
    masks = [int("".join(["1" if c == v else "0" for c in cells]) or "0", 2) for v in values if v]
    return len(grid), J, masks


_BITS = bytes.maketrans(b"01", b"\0\1")


@functools.cache
def _row_decoder(J: int) -> Callable[[int], tuple[int, ...]]:
    """Function from a mask below 2**J to its row tuple of J 0/1 ints,
    bit 0 first; one shared function per width."""
    spec = f"0{J}b"
    return lambda mask: tuple(format(mask, spec).encode()[::-1].translate(_BITS))


def _rows(I: int, J: int, row: Callable, *codes: int) -> tuple:
    """row over each row's J-bit slices of the codes, side by side; J >= 1."""
    full, shifts = (1 << J) - 1, range(0, I * J, J)
    return tuple(map(row, *[map(full.__and__, map(code.__rshift__, shifts)) for code in codes]))


def _tables(I: int, J: int, row: Callable, *streams: Iterable[int]) -> Iterator[tuple]:
    """_rows over streams of codes: one map per row over tees of the streams, zipped."""
    full, tees = (1 << J) - 1, [itertools.tee(stream, I) for stream in streams]
    return zip(*[map(row, *[map(full.__and__, map(operator.rshift, t[i], itertools.repeat(i * J)))
                            for t in tees]) for i in range(I)])


def _draws(rng, n: int) -> Iterator[int]:
    """rng.randrange(n), n >= 1, draw for draw and without end: the
    rejection loop over rng.getrandbits(n.bit_length()) that randrange
    runs, with no draw made before the next value is asked for."""
    getrandbits, k = rng.getrandbits, n.bit_length()
    while True:
        r = getrandbits(k)
        if r < n:
            yield r


def table_margins(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column sums of an integer table (not restricted to 0/1)."""
    mA = tuple(sum(row) for row in table)
    mB = tuple(sum(col) for col in zip(*table))
    return mA, mB
