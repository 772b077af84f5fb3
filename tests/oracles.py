"""Brute-force reference routes for the test suite.

Everything here is deliberately independent of the satfrac package: no
imports from it, no shared helpers, the dumbest correct algorithm that
will finish in test time.  Expected values frozen into the tests were
computed with these functions.
"""
from __future__ import annotations

import fractions
import heapq
import itertools
import json
import math
import random
from collections import deque


def compositions(total, parts):
    """All orderings of `total` into `parts` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _adjacency(points):
    """Incidence graph of a point set: row i -> node ('A', i), col j -> ('B', j)."""
    adj = {}
    for i, j in points:
        adj.setdefault(("A", i), []).append(("B", j))
        adj.setdefault(("B", j), []).append(("A", i))
    return adj


def _connected(edges, a, b):
    """Whether a and b are joined by the edges, by a fresh union-find."""
    parent = {}

    def root(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[root(u)] = root(v)
    return a in parent and b in parent and root(a) == root(b)


def slow_find_cycle(points):
    """The package's original O(p^2) cycle finder: for each point in
    lexicographic order, rebuild the graph without it and ask whether its
    ends are still connected; the first such point is closed through a
    breadth-first path over sorted neighbour lists."""
    pts = sorted(set(points))
    for p in pts:
        rest = [q for q in pts if q != p]
        a, b = ("A", p[0]), ("B", p[1])
        if not _connected([(("A", i), ("B", j)) for i, j in rest], a, b):
            continue
        adj = _adjacency(rest)
        for nbrs in adj.values():
            nbrs.sort()
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
            cycle.append((u[1], v[1]) if u[0] == "A" else (v[1], u[1]))
            v = u
        return tuple(sorted(cycle))
    return None


def slow_fraction(points, I, J):
    """The package's original fraction(): validate each point in order,
    refuse duplicates through a set, return the set sorted."""
    if not (type(I) is int and type(J) is int):
        raise ValueError("design size must be a pair of integers")
    if I < 2 or J < 2:
        raise ValueError(f"design size must be at least 2 x 2, got {I} x {J}")
    seen = set()
    for p in points:
        if not (isinstance(p, tuple) and len(p) == 2):
            raise ValueError(f"point {p!r} is not a pair")
        i, j = p
        if not (type(i) is int and type(j) is int):
            raise ValueError(f"point {p!r} has non-integer levels")
        if not (1 <= i <= I and 1 <= j <= J):
            raise ValueError(f"point ({i}, {j}) outside the {I} x {J} grid")
        if p in seen:
            raise ValueError(f"duplicate point ({i}, {j})")
        seen.add(p)
    return tuple(sorted(seen))


def slow_render_json(points, I, J):
    """The package's original JSON record: json.dumps of the canonical fraction."""
    f = slow_fraction(points, I, J)
    return json.dumps({"I": I, "J": J, "points": [[i, j] for i, j in f]})


def slow_render_grid(points, I, J, header=True):
    """The package's original grid text: a dense 0/1 table by one set
    lookup per cell, one line of digits per row."""
    f = set(slow_fraction(points, I, J))
    body = "".join(
        "".join("1" if (i, j) in f else "0" for j in range(1, J + 1)) + "\n"
        for i in range(1, I + 1)
    )
    return f"{I} {J}\n{body}" if header else body


def dense_table_text(table):
    """The package's original grid text of a 0/1 table: one line of digits per row."""
    return "".join("".join(map(str, row)) + "\n" for row in table)


def dense_move_text(move):
    """The package's original grid text of a move: one line of
    space-separated entries per row."""
    return "\n".join(" ".join(str(v) for v in row) for row in move) + "\n"


def dense_grid_json(grid):
    """The package's original JSON record of a table or move."""
    return json.dumps([list(row) for row in grid])


def dense_stream(grids, fmt, text):
    """A table or move stream's stdout from dense grids: one JSON record a
    line, or text(grid) blocks separated by one blank line."""
    if fmt == "json":
        return "".join(dense_grid_json(g) + "\n" for g in grids)
    return "\n".join(text(g) for g in grids)


def random_tree_fraction(I, J, rng):
    """A random spanning tree of K(I, J) as a sorted point set: one row and
    one column start it joined, then every other level, in shuffled
    order, joins a random already placed level of the other factor."""
    rows, cols = list(range(1, I + 1)), list(range(1, J + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    placed = {"A": [rows.pop()], "B": [cols.pop()]}
    points = [(placed["A"][0], placed["B"][0])]
    rest = [("A", i) for i in rows] + [("B", j) for j in cols]
    rng.shuffle(rest)
    for side, level in rest:
        mate = rng.choice(placed["B" if side == "A" else "A"])
        points.append((level, mate) if side == "A" else (mate, level))
        placed[side].append(level)
    return sorted(points)


def component_count(points):
    adj = _adjacency(points)
    seen = set()
    parts = 0
    for start in adj:
        if start in seen:
            continue
        parts += 1
        stack = [start]
        seen.add(start)
        while stack:
            for nbr in adj[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
    return parts


def is_tree_fraction(points, I, J):
    """Saturated test by the tree characterization: I+J-1 edges touching
    all I+J vertices and connected.  Uses neither determinants nor
    union-find, so it cross-checks both package routes."""
    if len(set(points)) != I + J - 1:
        return False
    adj = _adjacency(points)
    if len(adj) != I + J:
        return False
    return component_count(points) == 1


def margin_conditions(points, I, J):
    """The margin lemma's four conditions, read off the points one level
    at a time: I+J-1 points, every row and column used, some row and
    some column used once, and each once-used row's point lying in a
    column used at least twice."""
    rows = {r: [q for q in points if q[0] == r] for r in range(1, I + 1)}
    cols = {c: [q for q in points if q[1] == c] for c in range(1, J + 1)}
    counts = [len(v) for v in rows.values()] + [len(v) for v in cols.values()]
    lone = [rows[r][0] for r in rows if len(rows[r]) == 1]
    return (
        len(points) == I + J - 1,
        0 not in counts,
        any(len(v) == 1 for v in rows.values()) and any(len(v) == 1 for v in cols.values()),
        all(len(cols[j]) > 1 for _, j in lone),
    )


def heap_decode_tree(acode, bcode, I, J):
    """The package's original tree decoder: a spanning tree of K(I, J)
    from a (row code, column code) pair, with a heap of current leaves.
    Rows are vertices 0..I-1, columns I..I+J-1; the smallest leaf joins
    the next unread entry of the other side's code."""
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


def brute_saturated(I, J):
    """All saturated fractions of the I x J grid by exhaustive subset filter."""
    grid = [(i, j) for i in range(1, I + 1) for j in range(1, J + 1)]
    out = []
    for sub in itertools.combinations(grid, I + J - 1):
        if is_tree_fraction(sub, I, J):
            out.append(sub)
    return out


def two_per_level_sets(k):
    """Point sets on the k x k grid where every row and column is used
    exactly twice: each row picks 2 columns, column counts checked by
    backtracking."""
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    results = []
    counts = [0] * (k + 1)

    def place(row, chosen):
        if row > k:
            if all(c == 2 for c in counts[1:]):
                results.append(tuple(sorted(chosen)))
            return
        for a, b in pairs:
            if counts[a] < 2 and counts[b] < 2:
                counts[a] += 1
                counts[b] += 1
                place(row + 1, chosen + [(row, a), (row, b)])
                counts[a] -= 1
                counts[b] -= 1

    place(1, [])
    return results


def decomposed_cycle_count(k):
    """Number of k-cycles counted with a chosen two-part decomposition:
    a set with c cycle components splits in 2^(c-1) unordered ways."""
    return sum(2 ** (component_count(s) - 1) for s in two_per_level_sets(k))


def derangements_via_e(k):
    return math.floor(math.factorial(k) / math.e + 0.5)


def rank_of(matrix):
    """Rank by Gaussian elimination over exact rationals."""
    rows = [[fractions.Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def det_via_fractions(matrix):
    """Determinant by exact-rational LU, as a cross-check on integer code."""
    n = len(matrix)
    rows = [[fractions.Fraction(v) for v in row] for row in matrix]
    det = fractions.Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    assert det.denominator == 1
    return int(det)


def kirchhoff_count(I, J, det=det_via_fractions):
    """Spanning trees of K(I,J) by the matrix-tree theorem: det of the
    Laplacian (rows 0..I-1, then columns) without its first row and column."""
    n = I + J
    lap = [[0] * n for _ in range(n)]
    for i in range(I):
        for j in range(I, n):
            lap[i][j] = lap[j][i] = -1
            lap[i][i] += 1
            lap[j][j] += 1
    return det([row[1:] for row in lap[1:]])


def brute_fiber(mA, mB):
    """All 0/1 tables with the given margins, row by row with no pruning."""
    I, J = len(mA), len(mB)
    tables = []
    row_choices = [list(itertools.combinations(range(J), mA[i])) for i in range(I)]
    for pick in itertools.product(*row_choices):
        table = tuple(
            tuple(1 if j in pick[i] else 0 for j in range(J)) for i in range(I)
        )
        if all(sum(table[i][j] for i in range(I)) == mB[j] for j in range(J)):
            tables.append(table)
    return tables


def table_of(points, I, J):
    return tuple(
        tuple(1 if (i, j) in set(points) else 0 for j in range(1, J + 1))
        for i in range(1, I + 1)
    )


def transforms(table, square):
    """Orbit neighbours of a 0/1 table under row/column permutations and,
    for square tables, transposition."""
    I, J = len(table), len(table[0])
    out = []
    for perm in itertools.permutations(range(I)):
        for cperm in itertools.permutations(range(J)):
            out.append(tuple(tuple(table[perm[i]][cperm[j]] for j in range(J)) for i in range(I)))
    if square:
        out.extend(tuple(zip(*t)) for t in list(out))
    return out


def orbit_partition(tables):
    """Group tables into equivalence classes: transforms() walks the whole
    symmetry group, so one representative's image set is its full orbit."""
    pool = set(tables)
    classes = []
    for t in tables:
        if t not in pool:
            continue
        orbit = set(transforms(t, len(t) == len(t[0]))) & pool
        pool -= orbit
        classes.append(sorted(orbit))
    return classes


def dense_apply_move(table, move, sign):
    """table + sign*move cell by cell, or None when a cell leaves {0,1}."""
    out = []
    for trow, mrow in zip(table, move):
        row = []
        for t, m in zip(trow, mrow):
            v = t + sign * m
            if v not in (0, 1):
                return None
            row.append(v)
        out.append(tuple(row))
    return tuple(out)


def dense_walk(start, moves, steps, seed, target=None):
    """States of the stay-or-move chain on dense moves.  Draws from
    random.Random(seed), or from seed itself when it is a random.Random,
    with randrange in the order the package documents: the move index,
    the sign, then a uniform only when a Metropolis ratio is below 1."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    cur = tuple(tuple(row) for row in start)
    w_cur = 1.0 if target is None else target(cur)
    states = []
    for _ in range(steps):
        move = moves[rng.randrange(len(moves))]
        sign = 1 if rng.randrange(2) == 0 else -1
        nxt = dense_apply_move(cur, move, sign)
        if nxt is not None:
            if target is None:
                cur = nxt
            else:
                w_nxt = target(nxt)
                if w_nxt >= w_cur or rng.random() * w_cur < w_nxt:
                    cur, w_cur = nxt, w_nxt
        states.append(cur)
    return states


def dense_components(tables, moves):
    """Number of components of the move graph on a list of tables."""
    index = {t: n for n, t in enumerate(tables)}
    parent = list(range(len(tables)))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for t in tables:
        for move in moves:
            nxt = dense_apply_move(t, move, 1)
            if nxt is not None:
                parent[root(index[t])] = root(index[nxt])
    return len({root(n) for n in range(len(tables))})
