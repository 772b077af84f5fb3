"""Circuit moves, fibers, and the fixed-margin chain."""
import hashlib
import itertools
import math
import pickle
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from satfrac.cycles import (count_k_cycles, decompose_cycle, derangements, enumerate_k_cycles,
                            is_orthogonal_array)
from satfrac import markov
from satfrac.design import CapExceeded, _draws, from_table, table_margins
from satfrac.linalg import integer_determinant
from satfrac.markov import (
    Circuit,
    FiberReport,
    MoveBasis,
    apply_move,
    basis_size,
    circuit_to_move,
    circuits,
    fiber_enumerate,
    markov_basis,
    metropolis_walk,
    random_walk,
    verify_connectivity,
    walk_states,
)
from satfrac.saturation import count_with_margins, enumerate_saturated, is_saturated

RIGID_TABLE = ((1, 1, 1, 1), (1, 0, 0, 0), (1, 0, 0, 0))
THREE_TABLE_START = ((1, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1))
THREE_TABLE_FIBER = {
    ((1, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1)),
    ((1, 0, 1, 1), (1, 0, 0, 0), (1, 1, 0, 0)),
    ((1, 1, 0, 1), (1, 0, 0, 0), (1, 0, 1, 0)),
}


def test_circuit_validation():
    Circuit(rows=(1, 3), cols=(2, 4))
    with pytest.raises(ValueError):
        Circuit(rows=(1,), cols=(2,))
    with pytest.raises(ValueError):
        Circuit(rows=(1, 1), cols=(1, 2))
    with pytest.raises(ValueError):
        Circuit(rows=(0, 1), cols=(1, 2))
    with pytest.raises(ValueError):
        Circuit(rows=(1, 2), cols=(1, 2, 3))


def test_move_of_2_circuit():
    move = circuit_to_move(Circuit(rows=(1, 2), cols=(1, 2)), 3, 4)
    assert move == ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 0, 0))


def test_a_circuit_past_the_grid_has_no_move():
    with pytest.raises(ValueError) as exc:
        circuit_to_move(Circuit((1, 3), (1, 2)), 2, 2)
    assert str(exc.value) == "circuit does not fit a 2 x 2 grid"


def test_move_of_3_circuit():
    circuit = Circuit(rows=(1, 2, 3), cols=(1, 3, 2))
    move = circuit_to_move(circuit, 3, 4)
    assert move == ((1, -1, 0, 0), (-1, 0, 1, 0), (0, 1, -1, 0))
    edges = circuit.edge_sequence()
    assert edges == ((1, 1), (2, 1), (2, 3), (3, 3), (3, 2), (1, 2))
    assert [move[i - 1][j - 1] for i, j in edges] == [1, -1] * 3


def test_every_move_balances_and_splits_like_a_cycle():
    for move in markov_basis(4, 4):
        assert all(sum(row) == 0 for row in move)
        assert all(sum(col) == 0 for col in zip(*move))
        plus = tuple(
            sorted(
                (i + 1, j + 1)
                for i, row in enumerate(move)
                for j, v in enumerate(row)
                if v == 1
            )
        )
        minus = tuple(
            sorted(
                (i + 1, j + 1)
                for i, row in enumerate(move)
                for j, v in enumerate(row)
                if v == -1
            )
        )
        assert {decompose_cycle(plus + minus)[0], decompose_cycle(plus + minus)[1]} == {
            plus,
            minus,
        }


@pytest.mark.parametrize(
    "I,J,expected", [(2, 2, 1), (3, 3, 15), (3, 4, 42), (4, 4, 204)]
)
def test_basis_count(I, J, expected):
    moves = markov_basis(I, J)
    assert len(moves) == expected == basis_size(I, J)
    assert len(set(moves)) == len(moves)


def test_basis_degree_split_3x4():
    moves = markov_basis(3, 4)
    by_degree = Counter(sum(v == 1 for row in m for v in row) for m in moves)
    assert by_degree == {2: 18, 3: 24}


def test_basis_max_degree():
    assert len(markov_basis(3, 4, max_degree=2)) == 18 == basis_size(3, 4, max_degree=2)
    assert markov_basis(3, 4, max_degree=2) == markov_basis(3, 4)[:18]


def test_basis_rejects_max_degree_below_2():
    for degree in (1, 0, -3):
        with pytest.raises(ValueError, match=r"at least 2.*2\.\.3"):
            markov_basis(3, 4, max_degree=degree)
        with pytest.raises(ValueError, match=r"2\.\.3"):
            basis_size(4, 3, max_degree=degree)


@pytest.mark.parametrize(
    "I,J,max_degree",
    [(2, 2, None), (2, 5, None), (3, 4, None), (4, 3, None), (4, 5, None), (3, 4, 2), (5, 5, 3)],
)
def test_basis_decodes_to_circuit_moves_in_order(I, J, max_degree):
    top = min(I, J) if max_degree is None else max_degree
    want = [circuit_to_move(c, I, J) for k in range(2, top + 1) for c in circuits(I, J, k)]
    basis = markov_basis(I, J, max_degree)
    assert isinstance(basis, MoveBasis) and basis.shape == (I, J)
    assert list(basis) == want
    assert [basis[n] for n in range(len(basis))] == want
    assert basis[-1] == want[-1]
    assert basis == tuple(want) and tuple(want) == basis
    assert basis != tuple(want[:-1]) and basis != list(want)
    assert hash(basis) == hash(tuple(want))
    assert isinstance(basis[1:4], MoveBasis) and basis[1:4] == tuple(want[1:4])
    assert set(basis) == set(want)
    with pytest.raises(IndexError):
        basis[len(want)]


@pytest.mark.parametrize("I,J", [(4, 4), (3, 5)])
def test_basis_index_and_iteration_decode_every_circuit_move_alike(I, J):
    # both paths share the basis's one cache of signed rows
    want = [circuit_to_move(c, I, J) for k in range(2, min(I, J) + 1) for c in circuits(I, J, k)]
    basis = markov_basis(I, J)
    assert list(basis) == want and [basis[n] for n in range(len(basis))] == want
    for part in (slice(1, None, 3), slice(None, None, -2), slice(5, 40)):
        sub = basis[part]
        assert isinstance(sub, MoveBasis) and list(sub) == want[part]
        assert [sub[n] for n in range(len(sub))] == want[part]
    restored = pickle.loads(pickle.dumps(basis))
    assert restored == basis and list(restored) == want


@pytest.mark.parametrize(
    "I,J,max_degree,moves,plus,minus",
    [(6, 6, None, 113865,
      "753531cbf48c83e03a730437afa9c3e41f0a57859a6df6298971c4bfd91f7662",
      "8291b0e437459b031dcc808bf579b66a0c3a8dc41c4263d62ed8f7f39712c397"),
     (20, 20, 2, 36100,
      "d455b7a2499f18b30e196d68adfe831c96e8facfcf7d229c8568562a058d4b83",
      "6eb4f07507adf49a8a5db40f527ec16a53a7c26547413bccb44ef9f9ac3739bb")],
    ids=["6x6-full", "20x20-degree-2"],
)
def test_basis_masks_are_pinned_on_the_walk_shapes(I, J, max_degree, moves, plus, minus):
    basis = markov_basis(I, J, max_degree)
    assert len(basis) == moves
    assert hashlib.sha256(repr(basis.plus).encode()).hexdigest() == plus
    assert hashlib.sha256(repr(basis.minus).encode()).hexdigest() == minus


def test_basis_cap():
    with pytest.raises(CapExceeded):
        markov_basis(6, 6, cap=10)


def test_basis_cap_message_names_the_swap_basis_above_degree_2():
    hint = "; max_degree=2 (--max-degree 2) gives 225 swap moves"
    with pytest.raises(CapExceeded) as exc:
        markov_basis(6, 6, max_degree=3, cap=300)
    assert str(exc.value) == "basis would hold 2625 moves, over the cap of 300" + hint
    with pytest.raises(CapExceeded) as exc:
        markov_basis(6, 6, max_degree=2, cap=10)
    assert str(exc.value) == "basis would hold 225 moves, over the cap of 10"


def test_basis_matches_connected_cycle_counts_when_narrow():
    # per degree: one move per circuit, circuits counted by row/column choice
    for I, J in [(2, 5), (3, 3), (3, 6)]:
        for k in range(2, min(I, J) + 1):
            got = sum(1 for _ in circuits(I, J, k))
            combos = math.comb(I, k) * math.comb(J, k)
            per_combo = math.factorial(k) * math.factorial(k - 1) // 2
            assert got == combos * per_combo
            if k <= 3:
                # degree <= 3 circuits coincide with decomposed cycles
                assert per_combo == count_k_cycles(k)


def test_apply_move_example():
    table = ((1, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 0))
    move = ((0, 0, 0, 0), (0, 1, -1, 0), (0, -1, 1, 0))
    result = apply_move(table, move, 1)
    assert result == ((1, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 0))
    assert is_saturated(from_table(table), 3, 4)
    assert not is_saturated(from_table(result), 3, 4)
    assert table_margins(result) == table_margins(table)


def test_apply_move_returns_none_when_leaving_binary_range():
    table = ((1, 0), (0, 1))
    move = ((1, -1), (-1, 1))
    assert apply_move(table, move, 1) is None
    assert apply_move(table, move, -1) == ((0, 1), (1, 0))


def test_apply_move_involution():
    table = THREE_TABLE_START
    for move in markov_basis(3, 4):
        for sign in (1, -1):
            nxt = apply_move(table, move, sign)
            if nxt is not None:
                assert apply_move(nxt, move, -sign) == table


def test_apply_move_validates_input():
    with pytest.raises(ValueError):
        apply_move(((1, 0), (0, 1)), ((1, -1), (-1, 1)), 2)
    with pytest.raises(ValueError):
        apply_move(((1, 0),), ((1, -1), (-1, 1)), 1)
    # a grid with rows but no columns is refused by its size, on the call
    with pytest.raises(ValueError, match="at least 2 x 2, got 2 x 0"):
        apply_move(((), ()), ((), ()))
    with pytest.raises(ValueError, match="at least 2 x 2, got 2 x 0"):
        walk_states(((), ()), [((), ())], 2, 1)


def test_apply_move_rejects_non_binary_input():
    with pytest.raises(ValueError, match="0/1"):
        apply_move(((2, 0), (0, 1)), ((1, -1), (-1, 1)), -1)
    with pytest.raises(ValueError, match=r"\{-1, 0, 1\}"):
        apply_move(((1, 0), (0, 1)), ((2, -2), (-2, 2)), -1)
    with pytest.raises(ValueError, match="ragged"):
        apply_move(((1, 0), (0,)), ((1, -1), (-1, 1)), 1)


def test_non_int_entries_are_refused():
    # True == 1 and 1.0 == 1, so a value test alone lets them in
    for table in (((True, 0), (0, 1)), ((1, 0.0), (0, 1)), ((1.0, 0), (0, 1))):
        with pytest.raises(ValueError, match="0/1"):
            apply_move(table, ((1, -1), (-1, 1)), -1)
        with pytest.raises(ValueError, match="0/1"):
            walk_states(table, markov_basis(2, 2), 3, 1)
    for move in (((True, -1), (-1, 1)), ((1.0, -1), (-1, 1)), ((1, -1.0), (-1, 1))):
        with pytest.raises(ValueError, match=r"\{-1, 0, 1\}"):
            apply_move(((1, 0), (0, 1)), move, -1)
        with pytest.raises(ValueError, match=r"\{-1, 0, 1\}"):
            walk_states(((1, 0), (0, 1)), [move], 3, 1)
        with pytest.raises(ValueError, match=r"\{-1, 0, 1\}"):
            verify_connectivity((1, 1), (1, 1), basis=[move])


def test_dense_moves_must_keep_the_margins():
    # a move with a non-zero row or column sum would carry the walk out of its fiber
    for move in (((1, 0), (0, 0)), ((1, -1), (0, 0)), ((1, 0), (-1, 0)), ((1, -1), (1, -1))):
        with pytest.raises(ValueError, match="move changes the margins"):
            walk_states(((0, 1), (1, 0)), [move], 3, 1)
        with pytest.raises(ValueError, match="move changes the margins"):
            apply_move(((0, 1), (1, 0)), move, 1)
        with pytest.raises(ValueError, match="move changes the margins"):
            verify_connectivity((1, 1), (1, 1), basis=[((1, -1), (-1, 1)), move])
    # the entries are checked first
    with pytest.raises(ValueError, match=r"\{-1, 0, 1\}"):
        apply_move(((0, 1), (1, 0)), ((2, 0), (0, 0)), 1)


def test_a_flat_grid_is_refused_by_name():
    with pytest.raises(ValueError, match="table is not a sequence of rows"):
        apply_move((1, 0), ((1, -1), (-1, 1)))
    with pytest.raises(ValueError, match="move is not a sequence of rows"):
        apply_move(((1, 0), (0, 1)), (1, -1, -1, 1))
    with pytest.raises(ValueError, match="start is not a sequence of rows"):
        walk_states((1, 0, 0, 1), markov_basis(2, 2), 3, 1)


def test_bad_entries_are_named_by_row_and_column():
    with pytest.raises(ValueError, match="table entries .* 2 at row 2, column 1"):
        apply_move(((1, 0), (2, 1)), ((1, -1), (-1, 1)))
    with pytest.raises(ValueError, match=r"move entries .* True at row 1, column 2"):
        apply_move(((1, 0), (0, 1)), ((1, True), (-1, 1)))
    with pytest.raises(ValueError, match="start entries .* 1.0 at row 3, column 4"):
        walk_states(((1, 1, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1.0)), markov_basis(3, 4), 3, 1)


def test_rigid_table_admits_no_move():
    moves = markov_basis(3, 4)
    assert all(
        apply_move(RIGID_TABLE, m, s) is None for m in moves for s in (1, -1)
    )


def test_fiber_enumerate_examples():
    assert fiber_enumerate((4, 1, 1), (3, 1, 1, 1)) == [RIGID_TABLE]
    assert set(fiber_enumerate((3, 1, 2), (3, 1, 1, 1))) == THREE_TABLE_FIBER
    assert len(fiber_enumerate((1, 1), (1, 1))) == 2


@pytest.mark.parametrize(
    "mA,mB",
    [((2, 1), (1, 1, 1)), ((2, 2, 1), (2, 2, 1)), ((3, 1, 2), (3, 1, 1, 1)),
     ((2, 0), (1, 1)), ((3, 2, 1), (2, 2, 1, 1))],
)
def test_fiber_matches_brute_force(mA, mB):
    assert sorted(fiber_enumerate(mA, mB)) == sorted(oracles.brute_fiber(mA, mB))


def test_fiber_rejects_bad_margins():
    with pytest.raises(ValueError):
        fiber_enumerate((2, 1), (1, 1))  # sums differ
    with pytest.raises(ValueError):
        fiber_enumerate((-1, 3), (1, 1))


def test_fiber_margins_refuse_booleans():
    # True == 1, but a boolean is not a margin
    with pytest.raises(ValueError, match="True"):
        fiber_enumerate((True, 1), (1, True))
    with pytest.raises(ValueError, match="True"):
        verify_connectivity((True, 1), (1, True))


def test_fiber_cap():
    with pytest.raises(CapExceeded):
        fiber_enumerate((3, 3, 3, 3), (3, 3, 3, 3), cap=5)


def test_fiber_stream_checks_margins_on_the_call_and_the_cap_before_the_first_code():
    with pytest.raises(ValueError, match="margin sums differ"):
        markov._fiber_stream((2, 1), (1, 1), 5)
    _, _, codes = markov._fiber_stream((3, 3, 3, 3), (3, 3, 3, 3), cap=5)
    with pytest.raises(CapExceeded, match="more than the cap of 5 tables"):
        next(codes)
    I, J, codes = markov._fiber_stream((3, 1, 2), (3, 1, 1, 1), cap=3)
    assert (I, J) == (3, 4)
    # bit i*J + j of a code is cell (i, j), 0-based
    tables = [tuple(tuple(c >> i * J + j & 1 for j in range(J)) for i in range(I)) for c in codes]
    assert tables == fiber_enumerate((3, 1, 2), (3, 1, 1, 1))
    assert tables == oracles.brute_fiber((3, 1, 2), (3, 1, 1, 1))


def _all_fibers(I, J, sorted_only=False):
    # every margin pair of an I x J grid with equal sums, zero margins and
    # empty fibers included; sorted_only keeps the non-increasing ones
    vectors = (itertools.combinations_with_replacement if sorted_only
               else lambda levels, n: itertools.product(levels, repeat=n))
    for mA in vectors(range(J, -1, -1), I):
        for mB in vectors(range(I, -1, -1), J):
            if sum(mA) == sum(mB):
                yield mA, mB


def test_fiber_equals_brute_force_in_order_and_cap_counts_tables_on_every_3x4_fiber():
    fibers = 0
    for mA, mB in _all_fibers(3, 4):
        fibers += 1
        tables = oracles.brute_fiber(mA, mB)
        n = len(tables)
        assert fiber_enumerate(mA, mB, cap=n) == tables
        with pytest.raises(CapExceeded, match=f"more than the cap of {n - 1} tables"):
            fiber_enumerate(mA, mB, cap=n - 1)
        with pytest.raises(CapExceeded):
            verify_connectivity(mA, mB, basis=markov_basis(3, 4, 2), cap=n - 1)
    assert fibers == 3752


@pytest.mark.parametrize("I,J,fibers", [(1, 4, 16), (2, 4, 301), (4, 2, 301), (4, 3, 3752)])
def test_fiber_equals_brute_force_in_order_where_the_root_has_one_or_two_rows_left(I, J, fibers):
    # one-row fibers, and fibers whose root is already the two-row tail,
    # with the tail two rows below the root on 4-row grids
    seen = 0
    for mA, mB in _all_fibers(I, J):
        seen += 1
        tables = oracles.brute_fiber(mA, mB)
        n = len(tables)
        assert fiber_enumerate(mA, mB, cap=n) == tables
        with pytest.raises(CapExceeded, match=f"more than the cap of {n - 1} tables"):
            fiber_enumerate(mA, mB, cap=n - 1)
    assert seen == fibers


def test_fiber_count_matches_known_square_fibers():
    # OEIS A058527: 2n x 2n 0/1 tables with every row and column sum n
    known = [2, 90, 297200, 116963796250, 6736218287430460752,
             64051375889927380035549804336]
    for n, size in enumerate(known, start=1):
        m = (n,) * (2 * n)
        assert markov._fiber_count(m, m, cap=10**40) == size
        assert markov._fiber_count(m, m, cap=size - 1) == size  # cap + 1: past the cap
        assert markov._fiber_count(m, m, cap=size) == size


def test_fiber_past_the_placement_bound_streams_under_the_default_cap():
    # 15**6 = 11,390,625 row placements, but 67,950 tables
    tables = fiber_enumerate((2,) * 6, (2,) * 6)
    assert len(tables) == 67950 and len(set(tables)) == 67950
    assert len({id(row) for t in tables for row in t}) <= 15  # one tuple per row mask
    assert all(table_margins(t) == ((2,) * 6, (2,) * 6) for t in tables[::97])
    assert len(fiber_enumerate((3,) * 6, (3,) * 6)) == 297200


def test_fiber_enumerate_shares_equal_rows_past_the_stream_window():
    # 70 distinct rows of 8 columns, more than the 64 a stream keeps; the
    # list keeps one tuple per distinct row however wide the grid is
    tables = fiber_enumerate((4,) * 4, (2,) * 8)
    assert len(tables) == 44730
    assert len({id(row) for t in tables for row in t}) == math.comb(8, 4)


@pytest.mark.parametrize("mA, mB, seconds", [
    ((10,) * 20, (10,) * 20, 0.5),
    ((15,) * 31, tuple(range(1, 31)), 0.5),  # 30 distinct column sums: C(30, 15) spreads of row 0
    ((20,) * 41, tuple(range(1, 41)), 0.5),
    ((500,) * 999 + (0,), tuple(range(1000)), 2.0),  # 1,000 distinct column sums
    (tuple(range(39, 19, -1)) * 3, tuple(range(39, 19, -1)) * 3, 2.0),  # stopped inside a row
], ids=["20x20", "31x30", "41x40", "1000x1000", "60x60"])
def test_fiber_far_over_the_cap_is_refused_fast(mA, mB, seconds):
    t0 = time.perf_counter()
    for rows, cols in ((mA, mB), (mB, mA)):
        with pytest.raises(CapExceeded, match="more than the cap of 10000000 tables"):
            fiber_enumerate(rows, cols)
    assert time.perf_counter() - t0 < seconds


def test_fiber_with_hundreds_of_rows_is_enumerated():
    # a recursion per row would overflow the stack at 1,000 rows
    assert fiber_enumerate((1,) + (0,) * 999, (1,)) == [((1,),) + ((0,),) * 999]
    # the staircase fiber holds one table, where row i meets column j iff i + j > 300
    stair = tuple(range(1, 301))
    assert markov._fiber_count(stair, stair, cap=1) == 1
    table = tuple(tuple(int(i + j > 300) for j in stair) for i in stair)
    assert fiber_enumerate(stair, stair) == [table]


def test_fiber_is_empty_when_a_margin_exceeds_the_other_side():
    # a column sum over the row count, or a row sum over the column count:
    # the engine must not start on a fiber the count finds empty
    for mA, mB in (((3,), (3,)), ((2, 2), (3, 1)), ((3, 1), (2, 2))):
        assert markov._fiber_count(mA, mB, cap=10) == 0
        assert fiber_enumerate(mA, mB) == []


def test_walk_stays_on_margins_and_is_deterministic():
    basis = markov_basis(3, 4)
    states = list(walk_states(THREE_TABLE_START, basis, 300, seed=9))
    assert len(states) == 300
    assert all(table_margins(s) == table_margins(THREE_TABLE_START) for s in states)
    again = list(walk_states(THREE_TABLE_START, basis, 300, seed=9))
    assert states == again


def test_walk_checks_basis_before_the_first_state():
    dead = [((2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 0, 0))]
    for basis, message in (
        (markov_basis(3, 3), "3 x 3 grid"),
        (list(markov_basis(3, 3)), "3 x 3 but"),
        (dead, r"\{-1, 0, 1\}"),
    ):
        with pytest.raises(ValueError, match=message):
            walk_states(THREE_TABLE_START, basis, 0, seed=1)
        with pytest.raises(ValueError, match=message):
            verify_connectivity((3, 1, 2), (3, 1, 1, 1), basis=basis)
    # an empty fiber does not skip the check
    assert fiber_enumerate((4, 0, 0), (0, 2, 2, 0)) == []
    with pytest.raises(ValueError, match="3 x 3 grid"):
        verify_connectivity((4, 0, 0), (0, 2, 2, 0), basis=markov_basis(3, 3))


def _dense_basis(I, J, max_degree=None):
    """The basis as plain nested tuples; equal rows are shared to keep
    the 6 x 6 list small."""
    rows = {}
    return [tuple(rows.setdefault(r, r) for r in m) for m in markov_basis(I, J, max_degree)]


@pytest.mark.parametrize(
    "I,J,max_degree,steps",
    [(2, 3, None, 2000), (3, 4, None, 2000), (4, 4, None, 3000), (6, 6, None, 20000),
     (10, 10, 2, 5000), (12, 12, 2, 5000)],
)
def test_walk_matches_dense_oracle(I, J, max_degree, steps):
    basis = markov_basis(I, J, max_degree)
    moves = _dense_basis(I, J, max_degree)

    def target(t):
        return 2.0 ** sum(t[i][i] for i in range(min(I, J)))

    # a checkerboard start admits every degree-2 move; a random one may
    # admit none
    checkerboard = tuple(tuple((i + j) % 2 for j in range(J)) for i in range(I))
    rng = random.Random(I * J)
    noise = tuple(tuple(rng.randrange(2) for _ in range(J)) for _ in range(I))
    for seed, start in ((0, checkerboard), (1, checkerboard), (2, noise)):
        for weight in (None, target):
            want = oracles.dense_walk(start, moves, steps, seed, weight)
            assert start is noise or len(set(want)) > 1
            assert list(walk_states(start, basis, steps, seed, target=weight)) == want
        if len(moves) < 1000:
            assert list(walk_states(start, moves, steps, seed)) == oracles.dense_walk(
                start, moves, steps, seed
            )


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 2**16, 36_100, 2**32 + 1])
def test_draws_are_randrange_draw_for_draw(n):
    # 2**32 + 1 takes two 32-bit words a draw
    for seed in (0, 1, 2):
        ours, ref = random.Random(seed), random.Random(seed)
        assert list(itertools.islice(_draws(ours, n), 300)) == [ref.randrange(n) for _ in range(300)]
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("weighted", [False, True])
def test_walk_leaves_a_caller_rng_where_the_randrange_oracle_does(weighted):
    # a Metropolis ratio below 1 draws random() between the steps' draws
    target = (lambda t: 2.0 ** sum(t[i][i] for i in range(4))) if weighted else None
    basis, moves = markov_basis(4, 4), _dense_basis(4, 4)
    start = tuple(tuple((i + j) % 2 for j in range(4)) for i in range(4))
    for seed in (3, 4):
        ours, ref = random.Random(seed), random.Random(seed)
        want = oracles.dense_walk(start, moves, 400, ref, target)
        assert list(walk_states(start, basis, 400, ours, target)) == want
        assert ours.getstate() == ref.getstate() and len(set(want)) > 1
        # a caller that stops after step 17 leaves no draw of step 18 taken
        ours, ref = random.Random(seed), random.Random(seed)
        states = walk_states(start, basis, 400, ours, target)
        assert list(itertools.islice(states, 17)) == oracles.dense_walk(start, moves, 17, ref, target)
        assert ours.getstate() == ref.getstate()


def test_walk_repeats_the_same_object_on_rejection():
    states = list(walk_states(THREE_TABLE_START, markov_basis(3, 4), 300, seed=9))
    for prev, cur in zip(states, states[1:]):
        assert cur is prev or cur != prev


@pytest.mark.parametrize("n,max_degree,steps", [(20, 2, 5000), (6, None, 20000)])
def test_walk_shares_the_rows_a_move_does_not_touch(n, max_degree, steps):
    # a circuit move changes every row it touches, so a row is untouched
    # exactly when the oracle's row is unchanged; the start's rows count
    start = tuple(tuple(int((j - i) % n < n // 2) for j in range(n)) for i in range(n))
    want = oracles.dense_walk(start, _dense_basis(n, n, max_degree), steps, 5)
    states = list(walk_states(start, markov_basis(n, n, max_degree), steps, 5))
    assert states == want
    accepted = 0
    for prev, cur, old, new in zip([start] + states, states, [start] + want, want):
        accepted += old != new
        for a, b, x, y in zip(prev, cur, old, new):
            assert (b is a) == (x == y) and type(b) is tuple
            assert all(type(v) is int for v in b)
    assert accepted > 100


def test_walk_zero_steps_returns_start():
    basis = markov_basis(3, 4)
    assert random_walk(THREE_TABLE_START, basis, 0, seed=1) == THREE_TABLE_START


def test_walk_requires_moves_and_sane_steps():
    with pytest.raises(ValueError):
        random_walk(THREE_TABLE_START, [], 10, seed=1)
    with pytest.raises(ValueError):
        random_walk(THREE_TABLE_START, markov_basis(3, 4), -1, seed=1)
    with pytest.raises(ValueError):
        random_walk(((2, 0), (0, 2)), markov_basis(2, 2), 1, seed=1)


@pytest.mark.parametrize("steps", [2.5, True, "3", None])
def test_walk_steps_must_be_an_int_on_the_call(steps):
    basis = markov_basis(3, 4)
    with pytest.raises(ValueError, match="steps must be an int"):
        walk_states(THREE_TABLE_START, basis, steps, seed=1)
    with pytest.raises(ValueError, match="steps must be an int"):
        random_walk(THREE_TABLE_START, basis, steps, seed=1)
    with pytest.raises(ValueError, match="steps must be an int"):
        metropolis_walk(THREE_TABLE_START, basis, lambda t: 1.0, steps, seed=1)


# Every count, level, degree, sign and margin entry is an int: type(x) is int.
INT_ARGUMENTS = [
    pytest.param(lambda x: markov_basis(4, 4, max_degree=x), 2.5, id="markov_basis-max_degree"),
    pytest.param(lambda x: basis_size(4, 4, max_degree=x), "3", id="basis_size-max_degree"),
    pytest.param(lambda x: next(circuits(3, 3, x)), 2.5, id="circuits-k-float"),
    pytest.param(lambda x: next(circuits(3, 3, x)), None, id="circuits-k-none"),
    pytest.param(lambda x: Circuit((x, 2), (1, 2)), True, id="Circuit-row"),
    pytest.param(lambda x: Circuit((1, 2), (2, x)), 2.5, id="Circuit-column"),
    pytest.param(lambda x: apply_move(((1, 0), (0, 1)), ((1, -1), (-1, 1)), x), True,
                 id="apply_move-sign"),
    pytest.param(derangements, True, id="derangements-k"),
    pytest.param(count_k_cycles, True, id="count_k_cycles-k"),
    pytest.param(lambda x: next(enumerate_k_cycles(3, 3, x)), True, id="enumerate_k_cycles-k"),
    pytest.param(lambda x: is_orthogonal_array([(1, 1)], x), True,
                 id="is_orthogonal_array-strength"),
    pytest.param(lambda x: integer_determinant([[x]]), True, id="integer_determinant-entry"),
    pytest.param(lambda x: count_with_margins((3, x, 2), (3, 1, 1, 1)), True,
                 id="count_with_margins-entry"),
    pytest.param(lambda x: fiber_enumerate((x, 1), (1, 1)), True, id="fiber_enumerate-entry"),
    # caps the work fits under, so an unchecked cap would be accepted
    pytest.param(lambda x: enumerate_saturated(2, 2, cap=x), 1e7, id="enumerate_saturated-cap"),
    pytest.param(lambda x: enumerate_saturated(2, 2, cap=x), "x", id="enumerate_saturated-cap-str"),
    pytest.param(lambda x: markov_basis(2, 2, cap=x), True, id="markov_basis-cap"),
    pytest.param(lambda x: markov._fiber_stream((1, 1), (1, 1), cap=x), 2.5, id="fiber_stream-cap"),
    pytest.param(lambda x: fiber_enumerate((1, 1), (1, 1), cap=x), None, id="fiber_enumerate-cap"),
    pytest.param(lambda x: verify_connectivity((1, 1), (1, 1), cap=x), 2.0,
                 id="verify_connectivity-cap"),
]


@pytest.mark.parametrize("call, bad", INT_ARGUMENTS)
def test_int_arguments_refuse_bools_floats_strings_and_none_by_name(call, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        call(bad)


def test_walk_covers_the_three_table_fiber():
    basis = markov_basis(3, 4)
    visited = set(walk_states(THREE_TABLE_START, basis, 2000, seed=0))
    assert visited == THREE_TABLE_FIBER


def test_walk_never_leaves_the_fiber():
    fiber = set(fiber_enumerate((3, 2, 1), (2, 2, 1, 1)))
    start = next(iter(fiber))
    visited = set(walk_states(start, markov_basis(3, 4), 3000, seed=4))
    assert visited <= fiber
    assert visited == fiber  # 8 tables, 3000 steps: reaches everything


def test_metropolis_constant_target_matches_plain_walk():
    basis = markov_basis(3, 4)
    plain = list(walk_states(THREE_TABLE_START, basis, 500, seed=21))
    flat = list(walk_states(THREE_TABLE_START, basis, 500, seed=21, target=lambda t: 3.5))
    assert plain == flat
    assert metropolis_walk(
        THREE_TABLE_START, basis, lambda t: 1.0, 500, seed=21
    ) == random_walk(THREE_TABLE_START, basis, 500, seed=21)


def test_metropolis_single_table_fiber():
    basis = markov_basis(3, 4)
    assert metropolis_walk(RIGID_TABLE, basis, lambda t: 2.0, 100, seed=3) == RIGID_TABLE


def test_metropolis_rejects_non_positive_weight():
    basis = markov_basis(3, 4)
    with pytest.raises(ValueError):
        metropolis_walk(THREE_TABLE_START, basis, lambda t: 0.0, 10, seed=1)


def test_metropolis_two_to_one_visit_odds():
    # fiber holding 6 saturated and 2 non-saturated tables; weight doubles
    # on the saturated ones, so per-table visits should settle near 2:1
    mA, mB = (3, 2, 1), (2, 2, 1, 1)
    fiber = fiber_enumerate(mA, mB)
    flag = {t: is_saturated(from_table(t), 3, 4) for t in fiber}
    assert sum(flag.values()) == 6 and len(fiber) == 8
    counts = Counter(
        walk_states(
            fiber[0],
            markov_basis(3, 4),
            200000,
            seed=7,
            target=lambda t: 2.0 if flag[t] else 1.0,
        )
    )
    per_sat = sum(counts[t] for t in fiber if flag[t]) / 6
    per_non = sum(counts[t] for t in fiber if not flag[t]) / 2
    assert 1.8 < per_sat / per_non < 2.2


def test_verify_connectivity_examples():
    report = verify_connectivity((3, 1, 2), (3, 1, 1, 1))
    assert isinstance(report, FiberReport)
    assert report.fiber_size == 3 and report.components == 1
    assert report.connected and bool(report)
    singleton = verify_connectivity((4, 1, 1), (3, 1, 1, 1))
    assert singleton.connected and singleton.fiber_size == 1


def test_verify_connectivity_takes_one_row_and_one_column_fibers():
    # such a fiber holds at most one table: connected with no moves at all
    for mA, mB, size in (((1,), (1,), 1), ((3,), (1, 1, 1), 1), ((1, 0, 1), (2,), 1),
                         ((3,), (2, 1), 0), ((0,), (0, 0), 1)):
        assert verify_connectivity(mA, mB) == FiberReport(size, size, True), (mA, mB)
        assert verify_connectivity(mA, mB, basis=()) == FiberReport(size, size, True)


def test_all_positive_margin_3x4_fibers_connect():
    basis = markov_basis(3, 4)
    for mA in oracles.compositions(6, 3):
        for mB in oracles.compositions(6, 4):
            assert verify_connectivity(mA, mB, basis=basis).connected


def test_connectivity_matches_dense_oracle_on_3x4_fibers():
    # every 3 x 4 fiber with positive margins, under the full and the
    # degree-2 basis
    for max_degree in (None, 2):
        basis = markov_basis(3, 4, max_degree)
        moves = list(basis)
        for total in range(4, 13):
            for mA in oracles.compositions(total, 3):
                if max(mA) > 4:
                    continue
                for mB in oracles.compositions(total, 4):
                    if max(mB) > 3:
                        continue
                    tables = oracles.brute_fiber(mA, mB)
                    report = verify_connectivity(mA, mB, basis=basis)
                    assert report.fiber_size == len(tables)
                    assert report.components == oracles.dense_components(tables, moves)


def test_degree_2_moves_witness_scan():
    # Ryser's interchange theorem: degree-2 swaps connect every fiber of
    # 0/1 tables with fixed margins; checked on every sorted-margin fiber
    # of 3x4, 4x4 and 4x5, zero margins and empty fibers included
    fibers = 0
    for I, J in ((3, 4), (4, 4), (4, 5)):
        reduced = markov_basis(I, J, max_degree=2)
        for mA, mB in _all_fibers(I, J, sorted_only=True):
            fibers += 1
            assert verify_connectivity(mA, mB, basis=reduced).connected, (mA, mB)
    assert fibers == 1579
    reduced = markov_basis(3, 4, max_degree=2)
    for mA in oracles.compositions(6, 3):
        for mB in oracles.compositions(6, 4):
            assert verify_connectivity(mA, mB, basis=reduced).connected


@given(st.integers(0, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_walk_state_count_matches_steps(steps, seed):
    basis = markov_basis(2, 3)
    states = list(walk_states(((1, 1, 0), (0, 1, 1)), basis, steps, seed=seed))
    assert len(states) == steps
