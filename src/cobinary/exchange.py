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
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Sequence

from . import linalg
from .linalg import IntVector
from .regions import c_matrix
from .roots import Root, positive_roots, root_from_vector
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


_QUIVERS = 64  # sign sequences whose tables stay cached at once


class Quiver:
    """Q_eps and every table read off it, each built on first use; the rows
    and bitmasks per root, as a cluster reads only n - 1 of them.  Reach it
    through quiver(eps), so that an eps keeps or drops its tables together."""

    def __init__(self, eps: SignSequence) -> None:
        self.eps = eps
        self._rows: list = [None] * (len(eps) * (len(eps) + 1) // 2 - 1)
        self._compatibility: list = [None] * len(self._rows)

    @cached_property
    def arrow_counts(self) -> tuple[IntVector, IntVector]:
        """Prefix counts of the arrows pointing right and left, the one rule
        for how the signs orient the quiver: entry m counts the arrows
        between vertices i and i + 1 for i < m (node i + 1's sign, +1 left)."""
        inner = self.eps[1:-1]
        right = (0, 0, *accumulate(int(s == -1) for s in inner))
        left = (0, 0, *accumulate(int(s == 1) for s in inner))
        return right, left

    @cached_property
    def euler_inverse(self) -> linalg.IntMatrix:
        """E^{-1} = I + A + A^2 + ... for E = I - A: entry (i, j) is 1 when a
        path runs from i to j, that is when every arrow between vertices
        i + 1 and j + 1 of the arrow counts points from i towards j."""
        m = range(len(self.eps) - 1)

        def path(i: int, j: int) -> int:
            lo, hi = min(i, j) + 1, max(i, j) + 1
            arrows = self.arrow_counts[0 if i < j else 1]
            return int(arrows[hi] - arrows[lo] == hi - lo)

        return tuple(tuple(path(i, j) for j in m) for i in m)

    @cached_property
    def euler(self) -> linalg.IntMatrix:
        """E = I - A: a -1 for each arrow i -> j, a path between neighbours."""
        paths, m = self.euler_inverse, range(len(self.eps) - 1)
        return tuple(
            tuple(int(i == j) - (abs(i - j) == 1 and paths[i][j]) for j in m) for i in m
        )

    @cached_property
    def euler_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero entries (i, E_ij) of each column j of E: at most three."""
        return tuple(tuple((i, x) for i, x in enumerate(c) if x) for c in zip(*self.euler))

    @cached_property
    def x_prefix(self) -> linalg.IntMatrix:
        """2-D prefix sums of X = E - E^t: entry (i, j) sums X over the rows
        below i and the columns below j, so any block of X costs four reads."""
        s = [[0] * len(self.eps)]
        for row in x_matrix(self.eps):
            s.append([a + b for a, b in zip(s[-1], f_lift(row))])
        return tuple(map(tuple, s))

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        """The one table of almost positive roots: the positive roots in
        (p, q) order, then the negated rows of E^{-1} in vertex order."""
        projective = (-root_from_vector(row) for row in self.euler_inverse)
        return (*positive_roots(len(self.eps)), *projective)

    @cached_property
    def positions(self) -> dict[IntVector, int]:
        """Each almost positive root's vector and its position in the table."""
        return {r.vector(len(self.eps)): at for at, r in enumerate(self.roots)}

    @cached_property
    def inverse_column_roots(self) -> tuple[Root, ...]:
        """The columns of E^{-1}, each a root: the vertices with a path to j."""
        return tuple(map(root_from_vector, zip(*self.euler_inverse)))

    def euler_row(self, at: int) -> tuple[IntVector, IntVector]:
        """For v = roots[at]: the row v^t E and its lift L, the prefix sums
        (0, ...) of v^t E shifted to minimum 0, so that v^t E (e_p + ... +
        e_{q-1}) = L[q-1] - L[p-1].  The decoder reads L as a cut indicator."""
        found = self._rows[at]
        if found is None:
            (row,) = _times_euler((self.roots[at].vector(len(self.eps)),), self.eps)
            lift = f_lift(row)
            low = min(lift)
            found = self._rows[at] = row, tuple(x - low for x in lift)
        return found

    def compatibility(self, at: int) -> int:
        """The directed-compatibility row of u = roots[at], the one home of
        the compatibility rule: bit b is set when root v_b is negative or
        u^t E v_b >= 0."""
        found = self._compatibility[at]
        if found is None:
            lift = self.euler_row(at)[1]
            found = self._compatibility[at] = sum(
                1 << b for b, v in enumerate(self.roots)
                if v.sign == -1 or lift[v.q - 1] >= lift[v.p - 1]
            )
        return found


@lru_cache(maxsize=_QUIVERS)
def quiver(eps: SignSequence) -> Quiver:
    """The tables of Q_eps for a checked eps: the library's one, bounded cache."""
    if len(eps) < 2:
        raise ValueError("the quiver needs n >= 2")
    return Quiver(eps)


def euler_matrix(epsilon: Sequence[int]) -> linalg.IntMatrix:
    """Euler matrix of the quiver oriented by the inner signs of epsilon."""
    return quiver(as_sign_sequence(epsilon)).euler


def euler_inverse(epsilon: Sequence[int]) -> linalg.IntMatrix:
    """Exact integer inverse of the Euler matrix: it counts the paths i -> j."""
    return quiver(as_sign_sequence(epsilon)).euler_inverse


def _times_euler(vectors: Sequence[Sequence], eps: SignSequence) -> tuple[tuple, ...]:
    """v^t E for each vector v, in O(n) per vector: the one product with E."""
    e = quiver(eps).euler_columns
    return tuple(tuple([sum([v[i] * x for i, x in col]) for col in e]) for v in vectors)


def f_lift(y: Sequence) -> tuple:
    """The preimage of y under f_map with first coordinate 0: its prefix sums."""
    return tuple(accumulate(y, initial=0))


def x_matrix(epsilon: Sequence[int]) -> linalg.IntMatrix:
    """E - E^t: skew-symmetric with the inner signs on the superdiagonal."""
    e = euler_matrix(epsilon)
    return linalg.mat_sub(e, linalg.transpose(e))


def exchange_matrix(tree: MixedCobinaryTree) -> ExchangeMatrix:
    """[C^t X C ; C] for the tree's c-matrix C.  Empty for a single node.

    Column k of C is s_k times the indicator of [p_k, q_k), so entry (k, j)
    of C^t X C is s_k s_j times the sum of X over that block pair: O(1) per
    entry from the prefix table of X."""
    if tree.n == 1:
        return ExchangeMatrix((), ())
    s = quiver(tree.epsilon).x_prefix
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
