"""Saturated fractions: certification, counting, enumeration, sampling.

A fraction of the I x J grid is saturated when it has exactly p = I+J-1
points and its restricted model matrix is non-singular, which happens
precisely when its incidence graph is cycle-free, i.e. a spanning tree
of the complete bipartite graph K_{I,J}.  The three views (cardinality
plus acyclicity, non-zero determinant, spanning tree) are implemented
through independent routes and cross-checked in the tests.

One decoder, _decode_tree, maps each tree code bijectively to a
spanning tree.  A code is one flat tuple: the J-1 row levels of the row
code, then the I-1 column levels of the column code.  Counting,
enumeration, margin generation and uniform sampling all rest on it: a
level's margin is one plus its count in its part of the code.  The
decoder returns a tree as its sorted cell indices k = (i-1)*J + (j-1),
design's bit numbering, whose order is the lexicographic point order.
The private cell streams (_all_cells, _margin_cells, _sample_cells) run
every size, cap and margin check when called and decode codes through
it; the CLI renders their cell lists as text without building a point.
The public generators are their edges: each maps the cells to points.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as Rational
from itertools import chain, islice, product, repeat
from typing import Iterable, Iterator

from .cycles import contains_cycle
from .design import (DEFAULT_CAP, CapExceeded, Point, Points, _draws, check_cap, check_margins,
                     check_size, fraction, margins)


def is_saturated(points: Iterable[Point], I: int, J: int) -> bool:
    """Cycle-side saturation test: p = I+J-1 points and no cycle."""
    f = fraction(points, I, J)
    return len(f) == I + J - 1 and not contains_cycle(f)


def _check_margin_vectors(mA, mB) -> tuple[tuple[int, ...], tuple[int, ...]]:
    mA, mB = check_margins(mA, mB, 1)
    check_size(len(mA), len(mB))
    p = len(mA) + len(mB) - 1
    if sum(mA) != p:
        raise ValueError(f"margin sums must equal I+J-1 = {p}, got {sum(mA)}")
    return mA, mB


def _multinomial(n: int, parts: Iterable[int]) -> int:
    out = math.factorial(n)
    for part in parts:
        out //= math.factorial(part)
    return out


def count_with_margins(mA: Iterable[int], mB: Iterable[int]) -> int:
    """Saturated fractions carrying exactly the margins (mA, mB).

    The count is multinomial(I-1; mB-1) * multinomial(J-1; mA-1): each
    side's excess replications distribute independently.
    """
    mA, mB = _check_margin_vectors(mA, mB)
    I, J = len(mA), len(mB)
    return _multinomial(I - 1, (b - 1 for b in mB)) * _multinomial(J - 1, (a - 1 for a in mA))


def count_saturated(I: int, J: int) -> int:
    """Spanning trees of K_{I,J}: I^(J-1) * J^(I-1), exact."""
    check_size(I, J)
    return I ** (J - 1) * J ** (I - 1)


def saturation_probability(I: int, J: int) -> Rational:
    """Probability that a uniformly chosen p-point subset is saturated."""
    check_size(I, J)
    return Rational(count_saturated(I, J), math.comb(I * J, I + J - 1))


def _arrangements(counts) -> Iterator[tuple[int, ...]]:
    """Every distinct arrangement, in lexicographic order, of the code in
    which level k+1 appears counts[k] times (next-permutation steps)."""
    code = [k for k, c in enumerate(counts, 1) for _ in range(c)]
    n = len(code)
    while True:
        yield tuple(code)
        i = n - 2
        while i >= 0 and code[i] >= code[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while code[j] <= code[i]:
            j -= 1
        code[i], code[j] = code[j], code[i]
        code[i + 1:] = code[:i:-1]


def generate_with_margins(mA: Iterable[int], mB: Iterable[int]) -> Iterator[Points]:
    """Yield every saturated fraction with exactly these margins, once each.

    A level's margin is one plus its count in the tree code, so these are
    the trees whose row code holds row i mA[i]-1 times and whose column
    code holds column j mB[j]-1 times.  Both codes run in lexicographic
    order: the stream is enumerate_saturated's, restricted to the margins.
    """
    mA, mB = tuple(mA), tuple(mB)
    return map(_points, _margin_cells(mA, mB), repeat(len(mB)))


def enumerate_saturated(I: int, J: int, cap: int = DEFAULT_CAP) -> Iterator[Points]:
    """Stream every saturated fraction of the I x J grid exactly once.

    Runs over all spanning-tree codes of K_{I,J} in lexicographic order;
    refuses to start when the total count exceeds the cap.
    """
    return map(_points, _all_cells(I, J, cap), repeat(J))


def sample_uniform_saturated(I: int, J: int, seed) -> Points:
    """One saturated fraction, exactly uniform over all of them.

    Draws a uniform tree code (J-1 rows, then I-1 columns) and decodes
    it; the decode is a bijection onto the spanning trees, so the tree is
    uniform too.  Pass an int seed for reproducible draws, or a
    random.Random instance to continue an existing stream; each level
    is drawn through rng.getrandbits as randrange(1, n + 1) draws it.
    """
    return _points(_sample_cells(I, J, seed), J)


def _points(cells: list[int], J: int) -> Points:
    """The points of sorted cell indices, in the same order."""
    return tuple([(k // J + 1, k % J + 1) for k in cells])


def _margin_cells(mA, mB) -> Iterator[list[int]]:
    """generate_with_margins as cell lists; the margins are checked on the
    call.  Unlike itertools.product, this holds no list of arrangements."""
    mA, mB = _check_margin_vectors(mA, mB)
    I, J = len(mA), len(mB)
    cols = [b - 1 for b in mB]
    return (_decode_tree(acode + bcode, I, J)
            for acode in _arrangements([a - 1 for a in mA]) for bcode in _arrangements(cols))


def _all_cells(I: int, J: int, cap: int) -> Iterator[list[int]]:
    """enumerate_saturated as cell lists; size and cap are checked on the call."""
    check_size(I, J)
    check_cap(cap)
    total = count_saturated(I, J)
    if total > cap:
        raise CapExceeded(f"{total} saturated fractions exceed the cap of {cap}")
    codes = product(*[range(1, I + 1)] * (J - 1), *[range(1, J + 1)] * (I - 1))
    return map(_decode_tree, codes, repeat(I), repeat(J))


def _sample_cells(I: int, J: int, seed) -> list[int]:
    """sample_uniform_saturated as a cell list, from the same draws."""
    check_size(I, J)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    draws = chain(islice(_draws(rng, I), J - 1), islice(_draws(rng, J), I - 1))
    return _decode_tree([r + 1 for r in draws], I, J)  # randrange(1, n + 1) is 1 + randrange(n)


def _decode_tree(code, I: int, J: int) -> list[int]:
    """Spanning tree of K_{I,J} from a tree code, in linear time, as its
    sorted cell indices (i-1)*J + (j-1).

    Vertices 0..I-1 are rows, I..I+J-1 are columns.  The code holds the
    row code, J-1 rows, then the column code, I-1 columns; they give the
    degrees: one plus the number of occurrences.  The smallest current
    leaf is attached to the next unread entry of the opposite side's
    code.  A scan pointer finds that leaf: a vertex that becomes a leaf
    below the pointer is the smallest, otherwise the scan moves forward.
    Every code yields a distinct tree and the code count I^(J-1) J^(I-1)
    equals the tree count, so this enumerates without deduplication.
    """
    n = I + J
    deg = [1] * n
    for a in code[:J - 1]:
        deg[a - 1] += 1
    for b in code[J - 1:]:
        deg[I + b - 1] += 1
    ptr = leaf = deg.index(1)
    ia, ib = 0, J - 1  # the next unread row and column entries
    cells = []
    for _ in range(n - 2):
        deg[leaf] = 0
        if leaf < I:
            c = code[ib] - 1
            ib += 1
            cells.append(leaf * J + c)
            u = I + c
        else:
            u = code[ia] - 1
            ia += 1
            cells.append(u * J + leaf - I)
        deg[u] -= 1
        if deg[u] == 1 and u < ptr:
            leaf = u
        else:
            ptr = leaf = deg.index(1, ptr + 1)
    # one row and one column remain
    cells.append(deg.index(1) * J + deg.index(1, I) - I)
    cells.sort()
    return cells


@dataclass(frozen=True)
class MarginLemmaReport:
    """Outcome of the four margin conditions every saturated square
    fraction satisfies (necessary, not sufficient)."""

    square: bool
    saturated: bool
    mA: tuple[int, ...]
    mB: tuple[int, ...]
    sums_match: bool          # both margin sums equal I+J-1 (2I-1 when square)
    all_positive: bool        # every level used at least once
    unit_on_each_side: bool   # some row margin and some column margin equal 1
    unit_rows_in_heavy_columns: bool  # each margin-1 row's point sits in a margin->=2 column

    @property
    def conditions(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.sums_match,
            self.all_positive,
            self.unit_on_each_side,
            self.unit_rows_in_heavy_columns,
        )

    @property
    def all_pass(self) -> bool:
        return all(self.conditions)


def check_margin_lemma(points: Iterable[Point], I: int, J: int) -> MarginLemmaReport:
    """Evaluate the margin conditions on any fraction.

    Non-square or non-saturated input is flagged in the report rather
    than rejected; the conditions are still evaluated as stated, with
    I+J-1 in place of 2I-1 when the grid is rectangular.
    """
    f = fraction(points, I, J)
    mA, mB = margins(f, I, J)
    p = I + J - 1
    unit_rows_ok = all(mB[j - 1] >= 2 for i, j in f if mA[i - 1] == 1)
    return MarginLemmaReport(
        square=(I == J),
        saturated=is_saturated(f, I, J),
        mA=mA,
        mB=mB,
        sums_match=(sum(mA) == p and sum(mB) == p),
        all_positive=(min(mA) >= 1 and min(mB) >= 1),
        unit_on_each_side=(1 in mA and 1 in mB),
        unit_rows_in_heavy_columns=unit_rows_ok,
    )
