"""Model matrix of the simple-effect model and exact integer determinants."""
from __future__ import annotations

from typing import Iterable, Sequence

from .design import Point, fraction, full_grid

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
    Rows follow lexicographic point order.
    """
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
    """Exact determinant by Bareiss fraction-free elimination.

    All arithmetic stays in Python integers; every division performed is
    exact, so the result is the true determinant with no rounding anywhere.
    """
    n = len(matrix)
    m = []
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"non-square matrix: {n} rows but a row of length {len(row)}")
        for x in row:
            if type(x) is not int:
                raise ValueError(f"non-integer entry {x!r}")
        m.append(list(row))
    if n == 0:
        return 1
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
