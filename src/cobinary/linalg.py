"""Small exact linear algebra kernel for integer matrices.

Matrices are immutable tuples of row tuples.  Everything here is exact and
fraction-free (Bareiss): determinants come from integer-preserving
elimination, and an inverse from one Gauss-Jordan elimination on [M | I]
that leaves det(M) * M^{-1} in the right-hand block, followed by explicit
divisibility checks, so a non-integral inverse is detected rather than
rounded.  Both run in O(n^3) integer operations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import NonIntegralResult, SingularV

IntMatrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def as_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m: IntMatrix, v: Sequence) -> tuple:
    if m and len(m[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def vec_mat(v: Sequence, m: IntMatrix) -> tuple:
    if len(v) != len(m):
        raise ValueError("shape mismatch")
    cols = transpose(m)
    return tuple(sum(x * y for x, y in zip(v, col)) for col in cols)


def dot(a: Sequence, b: Sequence) -> int | Fraction:
    if len(a) != len(b):
        raise ValueError("shape mismatch")
    return sum(x * y for x, y in zip(a, b))



def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse_integer(m: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix, required to be integral.

    Fraction-free Gauss-Jordan elimination takes [M | I] to [d I | d M^{-1}],
    d = +-det(M).  Raises SingularV when det is 0 and NonIntegralResult when
    the inverse exists over the rationals but has a non-integer entry.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                raise SingularV("matrix is singular")
        pivot_row, pivot = a[k], a[k][k]
        for i in range(n):
            if i != k:  # exact: every entry is a minor of [M | I]
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    for row in a:
        for x in row[n:]:
            if x % prev:
                raise NonIntegralResult(
                    f"inverse has non-integer entry {Fraction(x, prev)}"
                )
    return tuple(tuple(x // prev for x in row[n:]) for row in a)


def is_skew_symmetric(m: IntMatrix) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == -m[j][i] for i in range(n) for j in range(i, n)
    )
