"""Euler matrices, exchange matrices, and Fomin-Zelevinsky matrix mutation.

The sign sequence orients an A_{n-1} quiver on vertices 1..n-1: the arrow
between i and i+1 points left when the (i+1)-th sign is +1 and right when
it is -1 (the first and last signs are ignored).  Its Euler matrix E has
unit diagonal and a -1 in entry (i, j) per arrow i -> j; the bilinear form
a^t E b computes dim Hom - dim Ext on dimension vectors.

A tree's exchange matrix stacks B = C^t X C on top of its c-matrix C,
where X = E - E^t.  Mutating the tree at edge k and mutating the stacked
matrix in direction k by the Fomin-Zelevinsky rules give the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from . import linalg
from .linalg import IntVector
from .regions import c_matrix
from .trees import MixedCobinaryTree, SignSequence, as_sign_sequence


@dataclass(frozen=True)
class ExchangeMatrix:
    """Stacked 2m x m integer matrix; the top block must be skew-symmetric."""

    b_rows: linalg.IntMatrix
    c_rows: linalg.IntMatrix

    def __post_init__(self) -> None:
        b = linalg.as_matrix(self.b_rows)
        c = linalg.as_matrix(self.c_rows)
        object.__setattr__(self, "b_rows", b)
        object.__setattr__(self, "c_rows", c)
        if not linalg.is_skew_symmetric(b):
            raise ValueError("principal part must be skew-symmetric")
        if len(c) != len(b) or (b and len(c[0]) != len(b)):
            raise ValueError("bottom block must be square of the same size")

    @property
    def size(self) -> int:
        return len(self.b_rows)

    @property
    def c_columns(self) -> tuple[tuple[int, ...], ...]:
        return linalg.transpose(self.c_rows)


@lru_cache(maxsize=None)
def _arrow_counts(eps: SignSequence) -> tuple[IntVector, IntVector]:
    """Prefix counts of the arrows pointing right and left, the one rule for
    how the signs orient the quiver: entry m counts the arrows between
    vertices i and i + 1 for i < m, each oriented by node i + 1's sign (+1
    points left)."""
    right = (0, 0, *accumulate(int(s == -1) for s in eps[1:-1]))
    left = (0, 0, *accumulate(int(s == 1) for s in eps[1:-1]))
    return right, left


def _path(eps: SignSequence, i: int, j: int) -> bool:
    """Whether a path runs from vertex i to vertex j (0-based, so vertices
    i + 1 and j + 1 of the arrow counts): every arrow between them points
    from i towards j."""
    lo, hi = min(i, j) + 1, max(i, j) + 1
    arrows = _arrow_counts(eps)[0 if i < j else 1]
    return arrows[hi] - arrows[lo] == hi - lo


@lru_cache(maxsize=None)
def _euler_cached(eps: SignSequence) -> tuple[linalg.IntMatrix, linalg.IntMatrix]:
    m = range(len(eps) - 1)
    paths = tuple(tuple(int(_path(eps, i, j)) for j in m) for i in m)  # E^{-1}
    e = tuple(  # E = I - A: a -1 for each arrow i -> j
        tuple(int(i == j) - (abs(i - j) == 1 and paths[i][j]) for j in m) for i in m
    )
    return e, paths


def _euler_pair(epsilon: Sequence[int]) -> tuple[linalg.IntMatrix, linalg.IntMatrix]:
    eps = as_sign_sequence(epsilon)
    if len(eps) < 2:
        raise ValueError("the quiver needs n >= 2")
    return _euler_cached(eps)


def euler_matrix(epsilon: Sequence[int]) -> linalg.IntMatrix:
    """Euler matrix of the quiver oriented by the inner signs of epsilon."""
    return _euler_pair(epsilon)[0]


def euler_inverse(epsilon: Sequence[int]) -> linalg.IntMatrix:
    """Exact integer inverse of the Euler matrix E = I - A, A the arrows of
    an acyclic quiver: E^{-1} = I + A + A^2 + ... counts the paths i -> j."""
    return _euler_pair(epsilon)[1]


@lru_cache(maxsize=None)
def _euler_columns(eps: SignSequence) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero entries (i, E_ij) of each column j of E: at most three."""
    columns = zip(*euler_matrix(eps))
    return tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in columns)


def _times_euler(vectors: Sequence[Sequence], eps: SignSequence) -> tuple[tuple, ...]:
    """v^t E for each vector v, in O(n) per vector: the one product with E."""
    e = _euler_columns(eps)
    return tuple(tuple([sum([v[i] * x for i, x in col]) for col in e]) for v in vectors)


def f_lift(y: Sequence) -> tuple:
    """The preimage of y under f_map with first coordinate 0: its prefix sums."""
    return tuple(accumulate(y, initial=0))


def x_matrix(epsilon: Sequence[int]) -> linalg.IntMatrix:
    """E - E^t: skew-symmetric with the inner signs on the superdiagonal."""
    e = euler_matrix(epsilon)
    return linalg.mat_sub(e, linalg.transpose(e))


@lru_cache(maxsize=None)
def _x_prefix(eps: SignSequence) -> linalg.IntMatrix:
    """2-D prefix sums of X = E - E^t: entry (i, j) sums X over the rows
    below i and the columns below j, so any block of X costs four reads."""
    x = x_matrix(eps)
    s = [[0] * (len(x) + 1)]
    for row in x:
        s.append([a + b for a, b in zip(s[-1], f_lift(row))])
    return tuple(map(tuple, s))


def exchange_matrix(tree: MixedCobinaryTree) -> ExchangeMatrix:
    """[C^t X C ; C] for the tree's c-matrix C.  Empty for a single node.

    Column k of C is s_k times the indicator of [p_k, q_k), so entry (k, j)
    of C^t X C is s_k s_j times the sum of X over that block pair: O(1) per
    entry from the prefix table of X."""
    if tree.n == 1:
        return ExchangeMatrix((), ())
    s = _x_prefix(tree.epsilon)
    triples = tuple(tree.edge_triples())
    b = []
    for pk, qk, sk in triples:
        top, bottom = s[pk - 1], s[qk - 1]
        b.append(tuple(
            sk * sj * (bottom[qj - 1] - top[qj - 1] - bottom[pj - 1] + top[pj - 1])
            for pj, qj, sj in triples
        ))
    return ExchangeMatrix(tuple(b), c_matrix(tree).rows)


def fz_mutate(btilde: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Fomin-Zelevinsky mutation of the stacked matrix in direction k.

    Entries in row or column k flip sign; entry (i, j) elsewhere gains
    b_ik * |b_kj| when b_ik and b_kj share a sign, with b_kj read from the
    principal part.  Rows of the bottom block never act as pivot rows.
    """
    linalg.as_ints((k,))
    m = btilde.size
    if not 1 <= k <= m:
        raise IndexError(f"direction {k} out of range 1..{m}")
    col = k - 1
    pivot_row = btilde.b_rows[col]
    out = []
    for i, row in enumerate(btilde.b_rows + btilde.c_rows):
        bik = row[col]
        if i == col:
            out.append(tuple(-x for x in row))
        elif bik == 0:
            out.append(row)  # FZ changes no entry of a row with b_ik = 0
        else:
            new_row = [x + bik * abs(y) if bik * y > 0 else x for x, y in zip(row, pivot_row)]
            new_row[col] = -bik  # column k flips sign
            out.append(tuple(new_row))
    return ExchangeMatrix(tuple(out[:m]), tuple(out[m:]))
