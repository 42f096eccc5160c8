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
points.  Like every pairing of a row with a root in the library, the
test reads a lift L of the row y = v^t E (its prefix sums, up to a
shift): y meets e_a + ... + e_{b-1} as L[b-1] - L[a-1].
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .errors import NotACluster, NotARoot, VerificationFailed
from .exchange import _times_euler, euler_inverse, euler_matrix, f_lift, quiver
from .linalg import IntVector
from .regions import CMatrix, as_region_point
from .roots import Root, is_root_vector
from .trees import SignSequence, as_sign_sequence


def projective_roots(epsilon: Sequence[int]) -> tuple[IntVector, ...]:
    """Rows of the inverse Euler matrix; all entries are nonnegative."""
    rows = euler_inverse(epsilon)
    if any(x < 0 for row in rows for x in row):
        raise VerificationFailed(f"inverse Euler matrix {rows} has a negative entry")
    return rows


def almost_positive_roots(epsilon: Sequence[int]) -> tuple[Root, ...]:
    """All positive roots in (p, q) order, then the negated projectives."""
    return quiver(as_sign_sequence(epsilon)).roots


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


class ClusterMatrix(linalg.ColumnMatrix):
    """Ordered tuple of almost-positive-root columns.

    Column order is preserved (it pairs with the classical c-matrix); the
    unordered cluster identity is the sorted column tuple.
    """

    kind = "cluster matrix"

    def key(self) -> tuple[IntVector, ...]:
        """Order-insensitive identity of the cluster."""
        return tuple(sorted(self.columns))


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
        else tuple(linalg.as_ints(c) for c in candidate)
    )
    if n == 1:
        return None if cols == () else "a single node admits only the empty cluster"
    if len(cols) != n - 1:
        return f"expected {n - 1} columns, got {len(cols)}"
    if any(len(col) != n - 1 for col in cols):
        return "column of wrong length"
    if len(set(cols)) != len(cols):
        return "columns are not distinct"
    tables = quiver(eps)
    picked = []
    for col in cols:
        at = tables.positions.get(col)
        if at is None:
            return f"column {col} is not an almost positive root"
        picked.append(at)
    for i, a in enumerate(picked):
        row = tables.compatibility(a)
        for j, b in enumerate(picked):
            if not row >> b & 1:
                return (
                    f"columns {i + 1} and {j + 1} are incompatible: "
                    f"v_{i + 1}^t E v_{j + 1} < 0"
                )
    return None


def initial_cluster(epsilon: Sequence[int]) -> ClusterMatrix:
    """Columns are the projective roots: the inverse transposed Euler matrix."""
    return ClusterMatrix(projective_roots(epsilon))


def enumerate_clusters(epsilon: Sequence[int]) -> list[ClusterMatrix]:
    """All clusters, as column-sorted matrices in lexicographic order.

    Compatibility is a pairwise condition, so the clusters are exactly the
    (n-1)-cliques of the compatibility graph on the almost positive roots.
    The roots are ranked by vector, and each clique grows only by later
    roots compatible with all its members, smallest first.  So every clique
    lists its columns in ascending order, and the walk meets the cliques in
    lexicographic order: they come out already sorted.
    """
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    if n == 1:
        return [ClusterMatrix(())]
    tables = quiver(eps)
    vectors = sorted(tables.positions)
    at = [tables.positions[v] for v in vectors]
    rows = [tables.compatibility(a) for a in at]
    later = [  # bit j > i of row i when roots i and j are compatible both ways
        sum(1 << j for j in range(i + 1, len(at)) if row >> at[j] & rows[j] >> at[i] & 1)
        for i, row in enumerate(rows)
    ]
    found: list[ClusterMatrix] = []
    stack = [((), (1 << len(vectors)) - 1)]  # (clique, its candidates)
    while stack:
        clique, candidates = stack.pop()
        if len(clique) == n - 1:
            found.append(ClusterMatrix(tuple(vectors[i] for i in clique)))
        elif candidates.bit_count() >= n - 1 - len(clique):
            c = (candidates & -candidates).bit_length() - 1  # the smallest
            stack.append((clique, candidates ^ 1 << c))  # cliques without c: later
            stack.append((clique + (c,), candidates & later[c]))  # with c: next
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
    if beta.sign != 1:
        raise NotARoot(f"stability domains are defined for positive roots, got {beta}")
    n = len(eps)
    point = as_region_point(v)
    if len(point) != n - 1:
        raise ValueError(f"weight vector must have length {n - 1}, got {len(point)}")
    if beta.q > n:
        raise ValueError(f"root ({beta.p},{beta.q}) does not fit in n={n}")
    lift = f_lift(_times_euler((point,), eps)[0])
    return _in_stability_domain(eps, beta, lift)


def _in_stability_domain(eps: SignSequence, beta: Root, lift: Sequence) -> bool:
    """Whether the row y with lift L (y_i = L[i] - L[i-1]) lies in the
    stability domain of beta: y . beta = 0 and y . beta' <= 0 on every
    proper subroot beta', each read as L[b-1] - L[a-1]."""
    if lift[beta.q - 1] != lift[beta.p - 1]:
        return False
    return all(lift[sub.q - 1] <= lift[sub.p - 1] for sub in subroots(eps, beta))
