"""Small exact linear algebra kernel for integer matrices.

Matrices are immutable tuples of row tuples.  Everything here is exact and
fraction-free: one Gauss-Jordan elimination with Bareiss's integer update
gives the determinant as its last pivot and, run on [M | I], leaves
det(M) * M^{-1} in the right-hand block; explicit divisibility checks
then detect a non-integral inverse rather than round it.  Both run in
O(n^3) integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add
from typing import ClassVar, Iterable, Sequence

from .errors import NonIntegralResult, SingularV

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


def as_ints(values: Iterable) -> IntVector:
    """The values as a tuple of ints, the library's one integer reader: a
    float, Fraction, string or bool raises ValueError.  Nothing is rounded."""
    out = tuple(values)
    for x in out:
        if type(x) is not int:
            raise ValueError(f"expected an integer, got {x!r}")
    return out


@dataclass(frozen=True)
class ColumnMatrix:
    """Square integer matrix kept as its columns, each read by as_ints."""

    columns: IntMatrix
    kind: ClassVar[str] = "column matrix"  # names the type in the square check

    def __post_init__(self) -> None:
        cols = tuple(map(as_ints, self.columns))
        object.__setattr__(self, "columns", cols)
        if any(len(col) != len(cols) for col in cols):
            raise ValueError(f"{self.kind} must be square")

    @property
    def rows(self) -> IntMatrix:
        return transpose(self.columns)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def as_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    m = tuple(map(as_ints, rows))
    if len(set(map(len, m))) > 1:
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


def _eliminate(a: list[list[int]], n: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan on the first n columns of the rows `a`, in
    place; every entry stays a minor, so each division is exact.  Returns
    (d, swap_sign): the first n columns end as d * I and their determinant
    is swap_sign * d, with d = 0 at the first pivot no row swap can fill."""
    prev, sign = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0, sign
        pivot_row, pivot = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    return prev, sign


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    d, sign = _eliminate([list(as_ints(row)) for row in m], n)
    return sign * d


def inverse_integer(m: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix, required to be integral.

    Fraction-free Gauss-Jordan elimination takes [M | I] to [d I | d M^{-1}],
    d = +-det(M).  Raises SingularV when det is 0 and NonIntegralResult when
    the inverse exists over the rationals but has a non-integer entry.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    a = [list(as_ints(row)) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    d, _ = _eliminate(a, n)
    if d == 0:
        raise SingularV("matrix is singular")
    for row in a:
        for x in row[n:]:
            if x % d:
                raise NonIntegralResult(
                    f"inverse has non-integer entry {Fraction(x, d)}"
                )
    return tuple(tuple(x // d for x in row[n:]) for row in a)


def is_skew_symmetric(m: IntMatrix) -> bool:
    """Whether m is square and m + m^t is zero."""
    return set(map(len, m)) <= {len(m)} and not any(map(add, chain(*m), chain(*zip(*m))))
