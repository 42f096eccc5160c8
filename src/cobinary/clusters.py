"""Almost positive roots, cluster matrices, and stability domains.

The indecomposable representations of the oriented A_{n-1} quiver are the
interval modules with dimension vectors the positive roots; the projective
ones have the rows of the inverse Euler matrix as dimension vectors.  An
almost positive root is a positive root or a negated projective row.

A cluster is a set of n-1 distinct almost positive roots v_i such that
v_i^t E v_j >= 0 whenever v_j is positive (the exact criterion for
extension groups to vanish in both directions).  Packed as the columns of
a matrix V, the compatibility reads: every entry of V^t E W is nonnegative,
W the submatrix of positive columns.  Each cluster matrix is unimodular
and determines a classical c-matrix C by V^t E C = I.

The stability domain of a positive root b collects the weight vectors v
with v^t E b = 0 and v^t E b' <= 0 for every proper subroot b'; subroots
of an interval are read off the signs at the interval's interior cut
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from . import linalg
from .errors import NotACluster, NotARoot, VerificationFailed
from .exchange import euler_inverse, euler_matrix
from .regions import CMatrix
from .roots import Root, is_root_vector, positive_roots, root_from_vector
from .trees import SignSequence, as_sign_sequence

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class AlmostPositiveRoot:
    """A positive root beta_pq, or minus the i-th projective root."""

    vector: IntVector
    root: Root | None = None
    projective: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", tuple(int(x) for x in self.vector))
        if (self.root is None) == (self.projective is None):
            raise ValueError("exactly one of root/projective must be set")

    @property
    def is_positive(self) -> bool:
        return self.root is not None


def projective_roots(epsilon: Sequence[int]) -> tuple[IntVector, ...]:
    """Rows of the inverse Euler matrix; all entries are nonnegative."""
    rows = euler_inverse(epsilon)
    if any(x < 0 for row in rows for x in row):
        raise VerificationFailed(f"inverse Euler matrix {rows} has a negative entry")
    return rows


def almost_positive_roots(epsilon: Sequence[int]) -> list[AlmostPositiveRoot]:
    """All positive roots in (p, q) order, then the negated projectives."""
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    out = [
        AlmostPositiveRoot(r.vector(n), root=r) for r in positive_roots(n)
    ]
    for i, row in enumerate(projective_roots(eps), start=1):
        out.append(
            AlmostPositiveRoot(tuple(-x for x in row), projective=i)
        )
    return out


def euler_form(epsilon: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    """a^t E b, the Hom-minus-Ext pairing on dimension vectors."""
    e = euler_matrix(epsilon)
    if len(a) != len(e) or len(b) != len(e):
        raise ValueError(
            f"vectors must have length {len(e)}, got {len(a)} and {len(b)}"
        )
    return linalg.dot(a, linalg.mat_vec(e, b))


def subroots(epsilon: Sequence[int], beta: Root) -> list[Root]:
    """Proper subroots of a positive root: the intervals [a, b) inside
    [p, q) whose module embeds, i.e. a == p or sign(a) == -1, and b == q
    or sign(b) == +1 — excluding beta itself."""
    eps = as_sign_sequence(epsilon)
    if beta.sign != 1:
        raise NotARoot(f"subroots are defined for positive roots, got {beta}")
    if beta.q > len(eps):
        raise ValueError(f"{beta} does not fit a quiver on {len(eps)} nodes")
    out = []
    for a in range(beta.p, beta.q):
        if a != beta.p and eps[a - 1] != -1:
            continue
        for b in range(a + 1, beta.q + 1):
            if (a, b) == (beta.p, beta.q):
                continue
            if b != beta.q and eps[b - 1] != 1:
                continue
            out.append(Root(a, b, 1))
    return out


@dataclass(frozen=True)
class ClusterMatrix:
    """Ordered tuple of almost-positive-root columns.

    Column order is preserved (it pairs with the classical c-matrix); the
    unordered cluster identity is the sorted column tuple.
    """

    columns: tuple[IntVector, ...]

    def __post_init__(self) -> None:
        cols = tuple(tuple(int(x) for x in col) for col in self.columns)
        object.__setattr__(self, "columns", cols)
        if any(len(col) != len(cols) for col in cols):
            raise ValueError("cluster matrix must be square")

    @property
    def rows(self) -> linalg.IntMatrix:
        return linalg.transpose(self.columns)

    def key(self) -> tuple[IntVector, ...]:
        """Order-insensitive identity of the cluster."""
        return tuple(sorted(self.columns))


@lru_cache(maxsize=None)
def _arrow_counts(eps: SignSequence) -> tuple[IntVector, IntVector]:
    """Prefix counts of the arrows pointing right and left: entry m counts
    those between vertices i and i + 1 for i < m, each oriented by the sign
    of node i + 1 (+1 points left)."""
    right = (0, 0, *accumulate(int(s == -1) for s in eps[1:-1]))
    left = (0, 0, *accumulate(int(s == 1) for s in eps[1:-1]))
    return right, left


def _root_euler(counts: tuple[IntVector, IntVector], a: Root, b: Root) -> int:
    """a^t E b for two roots, in O(1) from the arrow counts of E.  For
    positive roots, the vertices [p, q) the two intervals share minus the
    arrows from a vertex of a to a vertex of b."""
    right, left = counts
    shared = max(0, min(a.q, b.q) - max(a.p, b.p))
    lo, hi = max(a.p, b.p - 1), min(a.q - 1, b.q - 2)  # i -> i + 1
    forward = right[hi + 1] - right[lo] if lo <= hi else 0
    lo, hi = max(a.p - 1, b.p), min(a.q - 2, b.q - 1)  # i + 1 -> i
    backward = left[hi + 1] - left[lo] if lo <= hi else 0
    return a.sign * b.sign * (shared - forward - backward)


@lru_cache(maxsize=None)
def _projective_intervals(eps: SignSequence) -> frozenset[tuple[int, int]]:
    """The (p, q) of every projective root."""
    return frozenset((r.p, r.q) for r in map(root_from_vector, projective_roots(eps)))


def cluster_violation(
    candidate: ClusterMatrix | Sequence[Sequence[int]],
    epsilon: Sequence[int],
) -> str | None:
    """None when the columns form a cluster matrix, else a diagnostic."""
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    cols = (
        candidate.columns
        if isinstance(candidate, ClusterMatrix)
        else tuple(tuple(int(x) for x in c) for c in candidate)
    )
    if n == 1:
        return None if cols == () else "a single node admits only the empty cluster"
    if len(cols) != n - 1:
        return f"expected {n - 1} columns, got {len(cols)}"
    if any(len(col) != n - 1 for col in cols):
        return "column of wrong length"
    if len(set(cols)) != len(cols):
        return "columns are not distinct"
    projective = _projective_intervals(eps)
    counts = _arrow_counts(eps)
    roots = []
    for col in cols:
        try:
            root = root_from_vector(col)
        except NotARoot:
            root = None
        if root is None or (root.sign == -1 and (root.p, root.q) not in projective):
            return f"column {col} is not an almost positive root"
        roots.append(root)
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            if b.sign == 1 and _root_euler(counts, a, b) < 0:
                return (
                    f"columns {i + 1} and {j + 1} are incompatible: "
                    f"v_{i + 1}^t E v_{j + 1} < 0"
                )
    return None


def is_cluster_matrix(
    candidate: ClusterMatrix | Sequence[Sequence[int]],
    epsilon: Sequence[int],
) -> bool:
    return cluster_violation(candidate, epsilon) is None


def initial_cluster(epsilon: Sequence[int]) -> ClusterMatrix:
    """Columns are the projective roots: the inverse transposed Euler matrix."""
    return ClusterMatrix(projective_roots(epsilon))


def _compatible(counts: tuple[IntVector, IntVector], u: Root, v: Root) -> bool:
    return (v.sign == -1 or _root_euler(counts, u, v) >= 0) and (
        u.sign == -1 or _root_euler(counts, v, u) >= 0
    )


def enumerate_clusters(epsilon: Sequence[int]) -> list[ClusterMatrix]:
    """All clusters, as column-sorted matrices in lexicographic order.

    Compatibility is a pairwise condition, so the clusters are exactly the
    (n-1)-cliques of the compatibility graph on the almost positive roots.
    Each clique grows from the later roots compatible with all its members.
    """
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    if n == 1:
        return [ClusterMatrix(())]
    roots = [*positive_roots(n), *(Root(p, q, -1) for p, q in _projective_intervals(eps))]
    vectors = [r.vector(n) for r in roots]
    counts = _arrow_counts(eps)
    compatible = [[_compatible(counts, u, v) for v in roots] for u in roots]
    found: list[ClusterMatrix] = []

    def grow(clique: list[int], candidates: list[int]) -> None:
        need = n - 1 - len(clique)
        if need == 0:
            found.append(ClusterMatrix(tuple(sorted(vectors[i] for i in clique))))
            return
        for at, c in enumerate(candidates[: len(candidates) - need + 1]):
            grow(clique + [c], [d for d in candidates[at + 1 :] if compatible[c][d]])

    grow([], list(range(len(roots))))
    found.sort(key=lambda v: v.columns)
    return found


def classical_c_matrix(
    cluster: ClusterMatrix, epsilon: Sequence[int]
) -> CMatrix:
    """The unique integer C with V^t E C = I, as E^{-1} (V^t)^{-1}.

    Every column of the result is plus or minus a root, and permuting the
    cluster's columns permutes the c-matrix's columns the same way.
    """
    eps = as_sign_sequence(epsilon)
    if len(eps) == 1:
        return CMatrix(())
    vt = linalg.as_matrix(cluster.columns)  # rows of V^t are the columns of V
    vt_e = linalg.mat_mul(vt, euler_matrix(eps))
    c_rows = linalg.inverse_integer(vt_e)
    if linalg.mat_mul(vt_e, c_rows) != linalg.identity(len(vt)):
        raise NotACluster("V^t E C = I failed after exact inversion")
    cmat = CMatrix(linalg.transpose(c_rows))
    for col in cmat.columns:
        if not is_root_vector(col):
            raise NotACluster(f"classical c-vector {col} is not a root")
    return cmat


def stability_domain_contains(
    epsilon: Sequence[int], beta: Root, v: Sequence
) -> bool:
    """Whether v lies in the stability domain of the positive root beta:
    v^t E beta = 0 and v^t E beta' <= 0 on every proper subroot beta'."""
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    if len(v) != n - 1:
        raise ValueError(f"weight vector must have length {n - 1}, got {len(v)}")
    e = euler_matrix(eps)
    left = linalg.vec_mat(tuple(v), e)
    if linalg.dot(left, beta.vector(n)) != 0:
        return False
    return all(
        linalg.dot(left, sub.vector(n)) <= 0 for sub in subroots(eps, beta)
    )
