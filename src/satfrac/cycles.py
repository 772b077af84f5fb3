"""Cycles in the bipartite incidence graph of a fraction.

A fraction's points are edges between row vertices and column vertices.
A k-cycle is a set of 2k points using k row levels and k column levels,
every used level appearing in exactly two points.  Counting follows the
convention that a k-cycle comes with a chosen decomposition into two
disjoint one-replicate-per-level parts: for k <= 3 the decomposition is
unique, from k = 4 on a point set whose graph splits into several closed
loops admits 2^(loops-1) decompositions and is counted once per choice.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .design import Point, Points, check_size


class UnionFind:
    """Disjoint sets over hashable items, path compression + union by size."""

    def __init__(self):
        self.parent = {}
        self.size = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            self.size[x] = 1
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        """Merge the sets of a and b; returns False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def _cycle_point(pts: list[Point]) -> Optional[Point]:
    """The smallest of the sorted points pts lying on a cycle, or None."""
    uf = UnionFind()
    return min((q for q in reversed(pts) if not uf.union(("A", q[0]), ("B", q[1]))), default=None)


def contains_cycle(points: Iterable[Point]) -> bool:
    """Some point joins two already-connected vertices: find_cycle's pass."""
    return _cycle_point(sorted(set(points))) is not None


def _adjacency(points):
    adj = {}
    for i, j in points:
        adj.setdefault(("A", i), []).append(("B", j))
        adj.setdefault(("B", j), []).append(("A", i))
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def find_cycle(points: Iterable[Point]) -> Optional[Points]:
    """A k-cycle contained in the point set, or None if there is none.

    Deterministic: takes the smallest point lying on a cycle, then closes
    it through a shortest alternating path (breadth-first, smallest level
    first).  One union-find pass inserts the points in descending order;
    a point that fails to join two components lies on a cycle, and the
    smallest point on any cycle always fails (the rest of its cycle is
    larger, so already inserted), so the last failure is the smallest
    point on a cycle.
    """
    pts = sorted(set(points))
    p = _cycle_point(pts)
    if p is None:
        return None
    a, b = ("A", p[0]), ("B", p[1])
    rest = [q for q in pts if q != p]
    # p closes a cycle; recover the path a -> b avoiding p itself
    adj = _adjacency(rest)
    parent = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            break
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    cycle = [p]
    v = b
    while parent[v] is not None:
        u = parent[v]
        edge = (u[1], v[1]) if u[0] == "A" else (v[1], u[1])
        cycle.append(edge)
        v = u
    return tuple(sorted(cycle))


def _partner_maps(points):
    by_row = {}
    by_col = {}
    for p in points:
        by_row.setdefault(p[0], []).append(p)
        by_col.setdefault(p[1], []).append(p)
    return by_row, by_col


def decompose_cycle(points: Iterable[Point]) -> tuple[Points, Points]:
    """Split a k-cycle into its two one-replicate-per-level parts.

    Walks the cycle alternately: a point goes to the first part, the
    point sharing its row goes to the second, the point sharing that
    one's column goes to the first again, and so on; each closed loop is
    started from its smallest point.  Raises ValueError when the input
    is not a k-cycle.
    """
    pts = sorted(set(points))
    rows = Counter(i for i, _ in pts)
    cols = Counter(j for _, j in pts)
    if not pts or any(c != 2 for c in rows.values()) or any(c != 2 for c in cols.values()):
        raise ValueError("not a k-cycle: some used level is not replicated exactly twice")
    by_row, by_col = _partner_maps(pts)
    remaining = set(pts)
    first, second = [], []
    while remaining:
        cur = min(remaining)
        to_first = True
        while cur in remaining:
            remaining.discard(cur)
            (first if to_first else second).append(cur)
            mates = by_row[cur[0]] if to_first else by_col[cur[1]]
            cur = mates[0] if mates[1] == cur else mates[1]
            to_first = not to_first
    return tuple(sorted(first)), tuple(sorted(second))


def is_orthogonal_array(points: Iterable[Point], strength: int) -> bool:
    """Equal-frequency test over the levels actually present in the points.

    strength 1: every present row level appears equally often, same for
    column levels.  strength 2: every pair in the product of present row
    and column levels appears equally often.
    """
    pts = list(points)
    if type(strength) is not int or strength not in (1, 2):
        raise ValueError(f"strength must be the int 1 or 2, got {strength!r}")
    if not pts:
        raise ValueError("empty point set")
    rows = Counter(i for i, _ in pts)
    cols = Counter(j for _, j in pts)
    if strength == 1:
        return len(set(rows.values())) == 1 and len(set(cols.values())) == 1
    cells = Counter(pts)
    lam, rem = divmod(len(pts), len(rows) * len(cols))
    if rem:
        return False
    return all(cells[(i, j)] == lam for i in rows for j in cols)


def derangements(k: int) -> int:
    """Number of fixed-point-free permutations of k items, exact integer."""
    if type(k) is not int or k < 0:
        raise ValueError(f"derangements undefined for {k!r}")
    if k == 0:
        return 1
    prev2, prev1 = 1, 0  # !0, !1
    for n in range(2, k + 1):
        prev2, prev1 = prev1, (n - 1) * (prev1 + prev2)
    return prev1


def count_k_cycles(k: int) -> int:
    """k-cycles (with decomposition) on a k x k grid using all levels: k! !k / 2."""
    if type(k) is not int or k < 2:
        raise ValueError(f"k-cycles need k >= 2, got {k!r}")
    return math.factorial(k) * derangements(k) // 2


@dataclass(frozen=True)
class OAPair:
    """A k-cycle presented as its two disjoint one-replicate-per-level parts."""

    oa1: Points
    oa2: Points

    @property
    def k(self) -> int:
        return len(self.oa1)

    @property
    def points(self) -> Points:
        return tuple(sorted(self.oa1 + self.oa2))


def enumerate_k_cycles(I: int, J: int, k: int):
    """Yield every k-cycle of the I x J grid exactly once, as an OAPair.

    For each choice of k rows and k columns, the parts are two column
    assignments with no common position; the pair is emitted with its
    lexicographically smaller part first, so the total stream length is
    C(I,k) C(J,k) count_k_cycles(k).  Deterministic order.
    """
    check_size(I, J)
    if not (type(k) is int and 2 <= k <= min(I, J)):
        raise ValueError(f"k must satisfy 2 <= k <= min(I, J) = {min(I, J)}, got {k!r}")
    for rows in itertools.combinations(range(1, I + 1), k):
        for cols in itertools.combinations(range(1, J + 1), k):
            for p1 in itertools.permutations(cols):
                for p2 in itertools.permutations(cols):
                    if p1 > p2 or any(a == b for a, b in zip(p1, p2)):
                        continue
                    yield OAPair(
                        tuple(sorted(zip(rows, p1))),
                        tuple(sorted(zip(rows, p2))),
                    )
