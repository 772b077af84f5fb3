"""Circuit Markov basis and fixed-margin walks on binary tables.

The moves come from circuits of K_{I,J}: closed alternating walks
through k distinct row levels and k distinct column levels, 2 <= k <=
min(I,J).  Writing the circuit as the edge sequence starting at its
smallest row level, edges in even position (0-indexed) get +1 and edges
in odd position get -1, which zeroes every row and column sum.  Adding
or subtracting a move keeps a table's margins, and the full set of
circuit moves connects every fiber, so the stay-or-move chain below has
the uniform distribution on the fiber as its stationary law.

Inside this module an I x J 0/1 table is its mask in the grid codec of
satfrac.design, an int with bit (i-1)*J + (j-1) set for each cell (i,
j) that holds 1, and a move is a (plus, minus) pair of such masks: the
cells it raises and the cells it lowers.  Every dense table and move
passes through that codec.
A move applies to t iff t & plus == 0 and t & minus == minus, and the
next table is t ^ (plus | minus); the opposite sign swaps plus and
minus.  markov_basis returns a read-only MoveBasis that holds only the
masks and the shape: two ints per move, about 80 bytes a move on the
6 x 6 full basis and 140 on the 20 x 20 degree-2 basis, where a dense
tuple grid takes 616 and 4,200 bytes.  It decodes dense Move grids on
indexing and iteration and compares equal to the tuple of those grids.
Dense tuples only at the API edge: walk states, apply_move results,
fiber_enumerate's tables and the tables a target weight function sees;
the command line renders the same codes as text.  A walk step decodes
only the rows its move touches and shares the others with the state
before.  The fiber's codes stream from one lazy map per two-row tail.
Table and move entries must be ints: True and 1.0 are refused.  A dense
move's row and column sums must be 0.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cycles import UnionFind
from .design import (DEFAULT_CAP, CapExceeded, Table, _draws, _encode, _row_decoder, _rows,
                     _tables, check_cap, check_margins, check_size, table_margins)

Move = Table  # I x J integer grid, entries in {-1, 0, +1}


@dataclass(frozen=True)
class Circuit:
    """Closed alternating walk, stored as its row and column sequences.

    rows = (i1..ik) and cols = (j1..jk) encode the edge sequence
    (i1,j1), (i2,j1), (i2,j2), (i3,j2), ..., (i1,jk): column jt links
    row it to row i(t+1), wrapping at the end.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        k = len(self.rows)
        if k < 2 or len(self.cols) != k:
            raise ValueError("circuit needs k >= 2 rows and as many columns")
        if not all(type(x) is int and x >= 1 for x in (*self.rows, *self.cols)):
            raise ValueError(f"circuit levels must be ints >= 1, got {self.rows} and {self.cols}")
        if len(set(self.rows)) != k or len(set(self.cols)) != k:
            raise ValueError("circuit rows and columns must be distinct")

    @property
    def k(self) -> int:
        return len(self.rows)

    def edge_sequence(self) -> tuple[tuple[int, int], ...]:
        """The 2k points in traversal order."""
        out = []
        k = self.k
        for t in range(k):
            out.append((self.rows[t], self.cols[t]))
            out.append((self.rows[(t + 1) % k], self.cols[t]))
        return tuple(out)


def circuit_to_move(circuit: Circuit, I: int, J: int) -> Move:
    """Signed incidence table of a circuit: +1 on even-position edges of edge_sequence()."""
    check_size(I, J)
    if max(circuit.rows) > I or max(circuit.cols) > J:
        raise ValueError(f"circuit does not fit a {I} x {J} grid")
    grid = [[0] * J for _ in range(I)]
    for t, (i, j) in enumerate(circuit.edge_sequence()):
        grid[i - 1][j - 1] = -1 if t % 2 else 1
    return tuple(tuple(row) for row in grid)


def _circuit_walks(I: int, J: int, k: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """(rows, cols_list) per row sequence of the degree-k circuits: each
    row sequence takes every column sequence of the one list, in order,
    which is circuits() order."""
    cols = [c for cs in itertools.combinations(range(1, J + 1), k)
            for c in itertools.permutations(cs) if c[0] < c[-1]]
    for first, *rest in itertools.combinations(range(1, I + 1), k):
        for tail in itertools.permutations(rest):
            yield (first,) + tail, cols


def circuits(I: int, J: int, k: int) -> Iterator[Circuit]:
    """All degree-k circuits of K_{I,J}, each exactly once.

    Canonical form: the traversal starts at the smallest row level and
    runs toward the smaller of its two neighbouring column levels, so
    the two orientations of a circuit collapse to one.  The C(J,k) k!/2
    column sequences are listed once, before the first circuit.
    """
    check_size(I, J)
    if type(k) is not int or not 2 <= k <= min(I, J):
        raise ValueError(f"circuit degree {k!r} is not an int in 2..min(I,J) = 2..{min(I, J)}")
    for rows, cols in _circuit_walks(I, J, k):
        for c in cols:
            yield Circuit(rows, c)


def _top_degree(I: int, J: int, max_degree: Optional[int]) -> int:
    check_size(I, J)
    if max_degree is None:
        return min(I, J)
    if type(max_degree) is not int or max_degree < 2:
        raise ValueError(
            f"max_degree must be at least 2: circuit degrees are ints in "
            f"2..min(I,J) = 2..{min(I, J)}, got {max_degree!r}"
        )
    return min(max_degree, I, J)


def basis_size(I: int, J: int, max_degree: Optional[int] = None) -> int:
    """Closed-form circuit count: sum over k of C(I,k) C(J,k) (k-1)! k! / 2."""
    top = _top_degree(I, J, max_degree)
    return sum(
        math.comb(I, k) * math.comb(J, k) * math.factorial(k - 1) * math.factorial(k) // 2
        for k in range(2, top + 1)
    )


class MoveBasis(abc.Sequence):
    """Read-only sequence of the moves of one I x J grid.

    Holds only the shape and each move's (plus, minus) masks.  Indexing
    and iteration decode dense Move grids through the basis's one cache
    of signed rows, keyed by (plus, minus) row slices, 0 or one bit in a
    circuit.  A slice is a MoveBasis.  Equals the tuple of its moves.
    """

    __slots__ = ("shape", "plus", "minus", "_row")

    def __init__(self, shape: tuple[int, int], plus: Sequence[int], minus: Sequence[int]):
        self.shape = shape
        self.plus = tuple(plus)
        self.minus = tuple(minus)
        row = _row_decoder(shape[1])
        self._row = functools.cache(lambda p, m: tuple(map(operator.sub, row(p), row(m))))

    def __reduce__(self):
        return MoveBasis, (self.shape, self.plus, self.minus)

    def __len__(self) -> int:
        return len(self.plus)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MoveBasis(self.shape, self.plus[index], self.minus[index])
        return _rows(*self.shape, self._row, self.plus[index], self.minus[index])

    def __iter__(self) -> Iterator[Move]:
        return _tables(*self.shape, self._row, self.plus, self.minus)

    def __eq__(self, other):
        if isinstance(other, MoveBasis):
            return (self.shape, self.plus, self.minus) == (other.shape, other.plus, other.minus)
        if isinstance(other, tuple):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<MoveBasis: {len(self)} moves on the {self.shape[0]} x {self.shape[1]} grid>"


def markov_basis(
    I: int, J: int, max_degree: Optional[int] = None, cap: int = DEFAULT_CAP
) -> MoveBasis:
    """One move per circuit of each degree from 2 up to min(I,J).

    max_degree truncates the basis (degree 2 alone gives the classical
    swap moves); below 2 it is refused.  Refuses to build more than cap
    moves, naming the size of the degree-2 basis when the refused one
    goes higher.  The moves come in circuits() order, degree by degree.
    """
    top = _top_degree(I, J, max_degree)
    check_cap(cap)
    total = basis_size(I, J, max_degree)
    if total > cap:
        hint = f"; max_degree=2 (--max-degree 2) gives {basis_size(I, J, 2)} swap moves"
        raise CapExceeded(f"basis would hold {total} moves, over the cap of {cap}"
                          + (hint if top > 2 else ""))
    # cell[i][j] is the bit of (i, j); a move's masks sum one bit per edge
    cell = [[0] * (J + 1)] + [
        [0] + [1 << ((i - 1) * J + j - 1) for j in range(1, J + 1)] for i in range(1, I + 1)
    ]
    masks, get = [], itertools.repeat(list.__getitem__)
    for k in range(2, top + 1):
        for rows, cols in _circuit_walks(I, J, k):
            up = [cell[i] for i in rows]
            pair = [map(sum, map(map, get, itertools.repeat(r), cols)) for r in (up, up[1:] + up[:1])]
            # a move's plus and minus ints are made side by side: a walk step reads both
            masks += itertools.chain.from_iterable(zip(*pair))
    return MoveBasis((I, J), masks[0::2], masks[1::2])


def _basis_masks(basis: Sequence[Move], I: int, J: int) -> tuple[Sequence[int], Sequence[int]]:
    """(plus, minus) masks of a basis for I x J tables.  Dense moves are
    encoded here, the one dense-move path: each must be I x J, with zero
    row and column sums."""
    if isinstance(basis, MoveBasis):
        if basis.shape != (I, J):
            raise ValueError(
                f"basis is for the {basis.shape[0]} x {basis.shape[1]} grid "
                f"but the table is {I} x {J}"
            )
        return basis.plus, basis.minus
    plus, minus = [], []
    for move in basis:
        mI, mJ, (p, m) = _encode(move, "move", (0, 1, -1))
        if (mI, mJ) != (I, J):
            raise ValueError(f"move is {mI} x {mJ} but the table is {I} x {J}")
        mA, mB = table_margins(move)
        if any(mA) or any(mB):
            raise ValueError(f"move changes the margins: row sums {mA}, column sums {mB}")
        plus.append(p)
        minus.append(m)
    return plus, minus


def apply_move(table: Sequence[Sequence[int]], move: Move, sign: int = 1) -> Optional[Table]:
    """table + sign*move when every entry stays in {0,1}, else None.

    table must be a 0/1 table and move a table of the same shape with
    entries in {-1, 0, 1} and zero row and column sums; anything else
    raises ValueError.
    """
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"sign must be the int +1 or -1, got {sign!r}")
    I, J, (code,) = _encode(table, "table")
    check_size(I, J)
    (plus,), (minus,) = _basis_masks((move,), I, J)
    if sign == -1:
        plus, minus = minus, plus
    if code & plus or code & minus != minus:
        return None
    return _rows(I, J, _row_decoder(J), code ^ plus ^ minus)


def _check_weight(target: Callable[[Table], float], table: Table) -> float:
    w = target(table)
    if not w > 0:
        raise ValueError(f"target weight must be positive, got {w!r}")
    return w


def walk_states(
    start: Sequence[Sequence[int]],
    basis: Sequence[Move],
    steps: int,
    seed,
    target: Optional[Callable[[Table], float]] = None,
) -> Iterator[Table]:
    """Iterator over the chain state after each of `steps` transitions.

    Proposal: one uniformly chosen basis move with a uniform sign.  The
    two are drawn as randrange(len(basis)) and then randrange(2) draw
    them, through rng.getrandbits word for word, so an int seed or a
    random.Random replays as before (a SystemRandom draws as before);
    no draw is made for a step not yet asked for.  A proposal leaving {0,1} is rejected
    and the state repeats (the lazy convention: rejections consume a
    step; the same tuple is yielded again).  With a target weight
    function the acceptance ratio is min(1, target(next)/target(cur));
    ratios >= 1 are accepted without drawing, so a constant target
    replays exactly the plain walk's trajectory for the same seed.

    basis is a MoveBasis or any sequence of dense moves; either is
    checked against the start's shape (and dense entries against the
    ints -1, 0, 1 and zero margins) when walk_states is called, before
    the first state, as are start and steps.
    An accepted state is a new tuple whose rows the move did not touch
    are the previous state's row tuples, the start's own rows included.
    """
    I, J, (code,) = _encode(start, "start")
    check_size(I, J)
    cur = tuple(map(tuple, start))
    return _walk_from(code, I, J, basis, steps, seed, _row_decoder(J), cur, target)[1]


def _walk_from(code, I, J, basis, steps, seed, row, cur=None, target=None):
    """(start, states) of the chain from the mask code on an I x J grid, each
    state's rows as row reads them; cur, when given, is the start's rows.
    The basis, steps and the start's weight are checked on the call."""
    if not basis:
        raise ValueError("empty move basis")
    if type(steps) is not int or steps < 0:
        raise ValueError(f"steps must be an int >= 0, got {steps!r}")
    plus, minus = _basis_masks(basis, I, J)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    cur = _rows(I, J, row, code) if cur is None else cur
    w_cur = _check_weight(target, cur) if target is not None else 1.0
    return cur, _walk(cur, code, w_cur, plus, minus, J, steps, rng, target, row)


def _walk(cur, code, w_cur, plus, minus, J, steps, rng, target, row) -> Iterator[tuple]:
    full = (1 << J) - 1
    # zip pulls the move, then the sign; islice stops before another pair
    for r, s in itertools.islice(zip(_draws(rng, len(plus)), _draws(rng, 2)), steps):
        if s == 0:
            up, down = plus[r], minus[r]
        else:
            up, down = minus[r], plus[r]
        if code & up == 0 and code & down == down:
            nxt_code, changed, rows = code ^ up ^ down, up | down, list(cur)
            while changed:  # re-read the highest touched row, then drop it from changed
                i = (changed.bit_length() - 1) // J
                rows[i] = row(nxt_code >> i * J & full)
                changed &= (1 << i * J) - 1
            nxt = tuple(rows)
            if target is None:
                cur, code = nxt, nxt_code
            else:
                w_nxt = _check_weight(target, nxt)
                if w_nxt >= w_cur or rng.random() * w_cur < w_nxt:
                    cur, code, w_cur = nxt, nxt_code, w_nxt
        yield cur


def random_walk(start, basis: Sequence[Move], steps: int, seed) -> Table:
    """Final state of the uniform stay-or-move chain."""
    return metropolis_walk(start, basis, None, steps, seed)


def metropolis_walk(start, basis: Sequence[Move], target, steps: int, seed) -> Table:
    """Final state of the weighted chain; stationary law proportional to
    target, uniform when target is None."""
    states = walk_states(start, basis, steps, seed, target=target)
    cur = tuple(map(tuple, start))
    for cur in states:
        pass
    return cur


def _fiber_count(mA, mB, cap: int) -> int:
    """Tables in the fiber, or cap + 1 once past cap, after Miller and
    Harrison (2013): row by row over sorted column remainders, t ones on s
    equal remainders in C(s, t) ways, on the transpose if its columns have
    fewer distinct sums.  Spreads are searched without recursion and kept
    only if the rows left can fill them (Gale-Ryser), so every state is
    live and the running total, a lower bound, stops the count past cap."""
    if len(set(mA)) < len(set(mB)):
        mA, mB = mB, mA
    fits = [[0] * (len(mB) + 1)]  # fits[-1 - i][k]: the most ones rows i.. put in k columns
    for a in reversed(mA):
        fits.append([f + min(a, k) for k, f in enumerate(fits[-1])])
    states = {tuple(sorted(mB, reverse=True)): 1}
    for a, fit in zip(mA, fits[-2::-1]):
        before, states, total = states, {}, 0
        for rem, n in before.items():
            groups = [(v, len(list(g))) for v, g in itertools.groupby(rem)]
            stack = [(0, a, (), 0, n)]  # next group, ones left, remainders so far, their sum, ways
            while stack:
                g, left, part, tot, ways = stack.pop()
                if g < len(groups):  # fit is concave: a prefix peaks over it at a group's end
                    v, s = groups[g]
                    k = len(part) + s
                    stack += [(g + 1, left - t, part + (v,) * (s - t) + (v - 1,) * t, tot + v * s - t,
                               ways * math.comb(s, t)) for t in range(min(s, left) + 1)
                              if tot + v * s - t <= fit[k]]
                elif left == 0:
                    states[part] = states.get(part, 0) + ways
                    total += ways
                    if total > cap:
                        return cap + 1
    return total


def _fiber_codes(mA, mB, cap: int) -> Iterator[Iterable[int]]:
    """The fiber's table codes in fiber_enumerate's order, as iterables to
    chain, CapExceeded past cap before the first: row i takes each column
    needing a 1 in every row left, the rest from any columns needing some.
    With two rows left, row I-2 takes need | x and row I-1 need | ones - x
    for x over combinations of the columns needing one 1: one lazy map."""
    n = _fiber_count(mA, mB, cap)
    if n > cap:
        raise CapExceeded(f"fiber holds more than the cap of {cap} tables")
    if not n:
        return
    I, J = max(len(mA), 2), len(mB)  # one row gains an all-0 row 2: the same code
    _, _, level = _encode((mB,), "mB", range(I + 1))  # level[k]: columns needing k ones
    level.insert(0, (1 << J) - 1 ^ sum(level))
    stack = [(0, 0, level)]
    while stack:
        i, code, level = stack.pop()
        need, s = level[I - i], i * J
        k = mA[i] - need.bit_count()
        free = [1 << j for j in range(J) if not (level[0] | need) >> j & 1]
        xs = map(sum, itertools.combinations(free, k)) if k >= 0 else ()
        if i == I - 2:
            base = code | need << s | (need | level[1]) << s + J
            yield map(base.__add__, map(((1 << s) - (1 << s + J)).__mul__, xs))
        else:
            stack += [(i + 1, code | m << s, [lo & ~m | hi & m for lo, hi in zip(level, level[1:])])
                      for m in reversed([need | x for x in xs])]


def _fiber_stream(mA, mB, cap: int) -> tuple[int, int, Iterator[int]]:
    """(I, J, codes): the fiber's shape and table codes in fiber_enumerate's
    order; margins and cap are checked on the call, CapExceeded comes first."""
    mA, mB = check_margins(mA, mB, 0)
    check_cap(cap)
    return len(mA), len(mB), itertools.chain.from_iterable(_fiber_codes(mA, mB, cap))


def fiber_enumerate(mA, mB, cap: int = DEFAULT_CAP) -> list[Table]:
    """Every 0/1 table with row sums mA and column sums mB, row by row in
    itertools.combinations order; equal rows share one tuple.  Over cap
    tables by the exact count raise CapExceeded before any is built."""
    I, J, codes = _fiber_stream(mA, mB, cap)
    return list(_tables(I, J, functools.cache(_row_decoder(J)), codes))


@dataclass(frozen=True)
class FiberReport:
    """Connectivity of the move graph over one enumerated fiber."""

    fiber_size: int
    components: int
    connected: bool

    def __bool__(self) -> bool:
        return self.connected


def verify_connectivity(mA, mB, basis: Optional[Sequence[Move]] = None,
                        cap: int = DEFAULT_CAP) -> FiberReport:
    """Enumerate the fiber and check the move graph has one component.

    An empty or singleton fiber counts as connected.  basis defaults to
    the full circuit basis of the len(mA) x len(mB) grid, or to no moves
    when that grid has one row or one column, whose fiber holds at most
    one table; a given basis is checked against that shape before the
    fiber is enumerated.  cap bounds the default basis and the fiber's
    tables.  The union-find runs over the tables' bit codes; no dense
    table is built.
    """
    I, J, codes = _fiber_stream(mA, mB, cap)
    if basis is None:
        basis = markov_basis(I, J, cap=cap) if min(I, J) > 1 else ()
    plus, minus = _basis_masks(basis, I, J)
    fiber, uf = set(codes), UnionFind()
    for c in fiber:
        for up, down in zip(plus, minus):
            if c & up == 0 and c & down == down and c ^ up ^ down in fiber:
                uf.union(c, c ^ up ^ down)
    components = len({uf.find(c) for c in fiber})
    return FiberReport(len(fiber), components, components <= 1)
