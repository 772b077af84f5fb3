"""Saturated fractions: certification, counting, enumeration, sampling.

A fraction of the I x J grid is saturated when it has exactly p = I+J-1
points and its restricted model matrix is non-singular, which happens
precisely when its incidence graph is cycle-free, i.e. a spanning tree
of the complete bipartite graph K_{I,J}.  The three views (cardinality
plus acyclicity, non-zero determinant, spanning tree) are implemented
through independent routes and cross-checked in the tests.
"""
from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Rational
from typing import Iterable, Iterator

from .cycles import contains_cycle
from .design import DEFAULT_CAP, CapExceeded, Point, Points, check_size, fraction, margins


def is_saturated(points: Iterable[Point], I: int, J: int) -> bool:
    """Cycle-side saturation test: p = I+J-1 points and no cycle."""
    f = fraction(points, I, J)
    return len(f) == I + J - 1 and not contains_cycle(f)


def _check_margin_vectors(mA, mB) -> tuple[tuple[int, ...], tuple[int, ...]]:
    mA, mB = tuple(mA), tuple(mB)
    I, J = len(mA), len(mB)
    check_size(I, J)
    for name, vec in (("mA", mA), ("mB", mB)):
        for x in vec:
            if type(x) is not int or x < 1:
                raise ValueError(f"{name} entry {x!r} invalid: margins must be integers >= 1")
    p = I + J - 1
    if sum(mA) != p or sum(mB) != p:
        raise ValueError(
            f"margin sums must both equal I+J-1 = {p}, got {sum(mA)} and {sum(mB)}"
        )
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


def generate_with_margins(mA: Iterable[int], mB: Iterable[int]) -> Iterator[Points]:
    """Yield every saturated fraction with exactly these margins, once each.

    Peel-off recursion: while columns are at least as numerous as rows,
    fix the first column whose margin is 1; its single point may sit in
    any row that still has margin >= 2 (a margin-1 partner would leave a
    disconnected edge, hence a cycle elsewhere).  Place it, drop the
    column, recurse; with more rows than columns the roles swap.  Margin
    vectors are taken in the order given, no sorting, so the emitted
    fractions wear the caller's labels; the stream is depth-first over
    the placement choices, smallest admissible level first.
    """
    mA, mB = _check_margin_vectors(mA, mB)
    I, J = len(mA), len(mB)
    rowm = {i: mA[i - 1] for i in range(1, I + 1)}
    colm = {j: mB[j - 1] for j in range(1, J + 1)}
    placed: list[Point] = []

    def peel(rows: tuple[int, ...], cols: tuple[int, ...]) -> Iterator[Points]:
        if len(rows) == 1 and len(cols) == 1:
            placed.append((rows[0], cols[0]))
            yield tuple(sorted(placed))
            placed.pop()
            return
        if len(cols) >= len(rows):
            j = next(c for c in cols if colm[c] == 1)
            rest = tuple(c for c in cols if c != j)
            for g in rows:
                if rowm[g] < 2:
                    continue
                rowm[g] -= 1
                placed.append((g, j))
                yield from peel(rows, rest)
                placed.pop()
                rowm[g] += 1
        else:
            i = next(r for r in rows if rowm[r] == 1)
            rest = tuple(r for r in rows if r != i)
            for h in cols:
                if colm[h] < 2:
                    continue
                colm[h] -= 1
                placed.append((i, h))
                yield from peel(rest, cols)
                placed.pop()
                colm[h] += 1

    return peel(tuple(range(1, I + 1)), tuple(range(1, J + 1)))


def _decode_tree(acode, bcode, I: int, J: int) -> Points:
    """Spanning tree of K_{I,J} from a code pair.

    Vertices 0..I-1 are rows, I..I+J-1 are columns.  Degrees are read off
    the codes (one plus the number of occurrences); the smallest current
    leaf is attached to the next unread entry of the opposite side's
    code.  Every code pair yields a distinct tree and the pair count
    I^(J-1) J^(I-1) equals the tree count, so this enumerates without
    deduplication.
    """
    n = I + J
    deg = [1] * n
    for a in acode:
        deg[a - 1] += 1
    for b in bcode:
        deg[I + b - 1] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    ia = ib = 0
    edges = []
    for _ in range(n - 2):
        v = heapq.heappop(leaves)
        if v < I:
            u = I + bcode[ib] - 1
            ib += 1
        else:
            u = acode[ia] - 1
            ia += 1
        edges.append((v, u) if v < I else (u, v))
        deg[v] = 0
        deg[u] -= 1
        if deg[u] == 1:
            heapq.heappush(leaves, u)
    last = [v for v in range(n) if deg[v] == 1]
    edges.append(tuple(sorted(last)))
    return tuple(sorted((r + 1, c - I + 1) for r, c in edges))


def enumerate_saturated(I: int, J: int, cap: int = DEFAULT_CAP) -> Iterator[Points]:
    """Stream every saturated fraction of the I x J grid exactly once.

    Runs over all spanning-tree codes of K_{I,J} in lexicographic order;
    refuses to start when the total count exceeds the cap.
    """
    check_size(I, J)
    total = count_saturated(I, J)
    if total > cap:
        raise CapExceeded(f"{total} saturated fractions exceed the cap of {cap}")

    def stream() -> Iterator[Points]:
        for acode in itertools.product(range(1, I + 1), repeat=J - 1):
            for bcode in itertools.product(range(1, J + 1), repeat=I - 1):
                yield _decode_tree(acode, bcode, I, J)

    return stream()


def sample_uniform_saturated(I: int, J: int, seed) -> Points:
    """One saturated fraction, exactly uniform over all of them.

    Wilson's algorithm: from each vertex not yet in the tree, run a
    random walk on K_{I,J} keeping only the latest exit pointer per
    vertex (implicit loop erasure), then commit the walked path.  The
    resulting spanning tree is uniform regardless of the root or scan
    order.  Pass an int seed for reproducible draws, or a
    random.Random instance to continue an existing stream.
    """
    check_size(I, J)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = I + J
    in_tree = [False] * n
    exit_to = [0] * n
    in_tree[0] = True
    for start in range(1, n):
        v = start
        while not in_tree[v]:
            exit_to[v] = I + rng.randrange(J) if v < I else rng.randrange(I)
            v = exit_to[v]
        v = start
        while not in_tree[v]:
            in_tree[v] = True
            v = exit_to[v]
    points = []
    for v in range(1, n):
        u = exit_to[v]
        r, c = (v, u) if v < I else (u, v)
        points.append((r + 1, c - I + 1))
    return tuple(sorted(points))


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
    heavy = [False] * (J + 1)
    for j in range(1, J + 1):
        heavy[j] = mB[j - 1] >= 2
    unit_rows_ok = all(
        heavy[j]
        for i, j in f
        if mA[i - 1] == 1
    )
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
