"""Model matrix of the simple-effect model and exact integer determinants.

A model-matrix row holds at most three non-zeros, all 1, so
integer_determinant eliminates sparsely on +-1 pivots: one scan of the
remaining rows per column, O(p^2) dict lookups in all, plus the entries
each pivot row changes in the rows that hold its column.  Dense Bareiss
elimination, O(p^3) big-int operations, runs only on what is left at a
column without a +-1 entry, which happens for general int matrices; no
model matrix in the test suite reaches it.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .design import DEFAULT_CAP, CapExceeded, Point, check_size, fraction, full_grid

Matrix = tuple[tuple[int, ...], ...]


def _model_row(i: int, j: int, I: int, J: int) -> tuple[int, ...]:
    row = [0] * (I + J - 1)
    row[0] = 1
    if i < I:
        row[i] = 1
    if j < J:
        row[I - 1 + j] = 1
    return tuple(row)


def full_model_matrix(I: int, J: int) -> Matrix:
    """IJ x (I+J-1) matrix of the model mu + alpha_i + beta_j.

    Columns: grand mean, then indicators of rows 1..I-1, then indicators
    of columns 1..J-1 (the last level of each factor is the reference).
    Rows follow lexicographic point order.  A matrix of more than
    DEFAULT_CAP entries is refused before any row is built.
    """
    check_size(I, J)
    entries = I * J * (I + J - 1)
    if entries > DEFAULT_CAP:
        raise CapExceeded(f"{entries} model-matrix entries exceed the cap of {DEFAULT_CAP}")
    return tuple(_model_row(i, j, I, J) for i, j in full_grid(I, J))


def restrict(X: Matrix, points: Iterable[Point], I: int, J: int) -> Matrix:
    """Rows of X for the given points, in canonical point order."""
    f = fraction(points, I, J)
    if len(X) != I * J:
        raise ValueError(f"matrix has {len(X)} rows, expected {I * J}")
    return tuple(X[(i - 1) * J + (j - 1)] for i, j in f)


def model_matrix(points: Iterable[Point], I: int, J: int) -> Matrix:
    """Model-matrix rows of the fraction's points, in canonical point order."""
    return tuple(_model_row(i, j, I, J) for i, j in fraction(points, I, J))


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square int matrix, in Python ints throughout.

    Each row is held as a dict of its non-zero entries.  Column by column,
    the sparsest remaining row with a +-1 in the column is the pivot, and
    only the remaining rows that hold the column are eliminated; since
    1/pivot = pivot, every step is exact.  A column no remaining row
    holds gives 0.  At the first column where no remaining row holds a
    +-1, the remaining Schur complement goes to Bareiss fraction-free
    elimination, whose divisions are exact too.
    """
    n = len(matrix)
    live = []  # rows not yet used as pivots, in their permuted order
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"non-square matrix: {n} rows but a row of length {len(row)}")
        for x in row:
            if type(x) is not int:
                raise ValueError(f"non-integer entry {x!r}")
        live.append({j: x for j, x in enumerate(row) if x})
    sign = 1
    for k in range(n):
        best = None
        for i, row in enumerate(live):
            if row.get(k) in (1, -1) and (best is None or len(row) < len(live[best])):
                best = i
        if best is None:
            if any(k in row for row in live):
                return sign * _bareiss([[row.get(j, 0) for j in range(k, n)] for row in live])
            return 0
        prow = live.pop(best)
        piv = prow[k]
        # moving the pivot row up past best others is a permutation of sign (-1)**best
        sign *= -piv if best % 2 else piv
        for row in live:
            f = row.get(k)
            if f:
                f *= piv
                for j, v in prow.items():
                    x = row.get(j, 0) - f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
    return sign


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of a non-empty square int matrix by Bareiss (1968)
    fraction-free elimination; m is overwritten."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: division by the previous pivot is exact
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_saturated_by_determinant(points: Iterable[Point], I: int, J: int) -> bool:
    """Saturation test on the algebra side: p = I+J-1 points and det(X_F) != 0."""
    X = model_matrix(points, I, J)
    return len(X) == I + J - 1 and integer_determinant(X) != 0
