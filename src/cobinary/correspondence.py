"""The bijection between clusters and mixed cobinary trees.

The consecutive-difference map F sends a height vector in R^n to R^{n-1};
its kernel is the diagonal line.  A cluster matrix V spans the cone of
weight vectors E^t V a (a >= 0), and pulling that cone back through F
yields the closed region of exactly one tree.  Constructively: lift each
row of V^t E to a height vector, sum the lifts, rank the sum into a
permutation, and rebuild the tree from that permutation; the pairing is
certified by V^t E C(T) = I, which also forces the classical c-vectors of
the cluster to equal the tree's c-vectors column by column.

Every wall of a tree's region maps into a stability domain: identifying
the two endpoint heights of one edge and keeping every other comparison
strict produces a point whose image satisfies the degeneracy equation and
all subroot inequalities of that edge's root.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations, product
from typing import Iterator, Sequence

from . import linalg
from .clusters import (
    ClusterMatrix,
    cluster_violation,
    enumerate_clusters,
    stability_domain_contains,
)
from .errors import (
    NonIntegralResult,
    NotACluster,
    NotARoot,
    SingularV,
    VerificationFailed,
)
from .exchange import euler_inverse, euler_matrix
from .regions import CMatrix, RegionPoint, as_region_point, c_matrix
from .roots import Root, root_from_vector
from .trees import (
    MixedCobinaryTree,
    Permutation,
    as_sign_sequence,
    smallest_first_order,
    tree_from_permutation,
)


def f_map(x: Sequence) -> tuple:
    """Consecutive differences (x_2 - x_1, ..., x_n - x_{n-1})."""
    if len(x) < 2:
        return ()
    return tuple(x[i + 1] - x[i] for i in range(len(x) - 1))


def f_lift(y: Sequence) -> tuple:
    """The preimage of y under f_map with first coordinate 0."""
    out = [0]
    for v in y:
        out.append(out[-1] + v)
    return tuple(out)


def _shift_to_min_zero(row: Sequence) -> tuple:
    """Translate along the diagonal so the smallest entry becomes 0."""
    low = min(row)
    return tuple(v - low for v in row)


def _rankings_with_tie_breaks(x: Sequence) -> Iterator[Permutation]:
    """Permutations ranking x, ascending-index tie-break first, then every
    other linear extension of the tied groups."""
    n = len(x)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(x[i], []).append(i)
    pools = [tuple(groups[v]) for v in sorted(groups)]
    for choice in product(*(tuple(permutations(pool)) for pool in pools)):
        sigma = [0] * n
        rank = 1
        for block in choice:
            for i in block:
                sigma[i] = rank
                rank += 1
        yield tuple(sigma)


@dataclass(frozen=True)
class BijectionWork:
    """Intermediate values of the cluster-to-tree construction."""

    epsilon: tuple[int, ...]
    cluster: ClusterMatrix
    vt_e_rows: linalg.IntMatrix
    lifted_rows: tuple[tuple[int, ...], ...]
    sum_vector: tuple[int, ...]
    ranking: Permutation
    tied_rankings: tuple[Permutation, ...]
    c_matrix: CMatrix
    tree: MixedCobinaryTree


def _decode(
    cluster: ClusterMatrix,
    eps: tuple[int, ...],
    vt_e: linalg.IntMatrix,
    c_rows: linalg.IntMatrix,
) -> BijectionWork:
    """The decode of :func:`cluster_to_tree_work`, from V^t E and C's rows."""
    lifted = tuple(_shift_to_min_zero(f_lift(row)) for row in vt_e)
    total = tuple(sum(col) for col in zip(*lifted))
    expected = CMatrix(linalg.transpose(c_rows))
    expected_triples = []
    for col in expected.columns:
        try:
            root = root_from_vector(col)
        except NotARoot as exc:
            raise VerificationFailed(
                f"(V^t E)^{{-1}} has a non-root column: {exc}"
            ) from exc
        expected_triples.append((root.p, root.q, root.sign))
    rankings = _rankings_with_tie_breaks(total)
    tied = tuple(islice(_rankings_with_tie_breaks(total), 24))
    for sigma in rankings:
        tree = tree_from_permutation(sigma, eps)
        if sorted(tree.triples) == sorted(expected_triples):
            tree = tree.relabelled(expected_triples)
            return BijectionWork(
                eps, cluster, vt_e, lifted, total, sigma, tied, expected, tree
            )
    raise VerificationFailed(
        "no tie-break of the rank vector reconstructs the decoded c-matrix; "
        "the input is not a cluster matrix"
    )


def cluster_to_tree_work(
    cluster: ClusterMatrix, epsilon: Sequence[int]
) -> BijectionWork:
    """Run the constructive correspondence and keep the work shown.

    V^t E is inverted exactly into C, the tree's c-matrix.  The decode that
    follows is shared with :func:`tree_to_cluster`: each row of V^t E is
    lifted through f_lift and shifted to have minimum 0; the rows are summed
    and the sum is ranked (ascending index on ties) into the permutation
    that rebuilds the tree, whose edges must be the columns of C.  If the
    first ranking fails, every other tie-break is tried, and the edge labels
    are taken from the matched columns.
    """
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    if n == 1:
        if cluster.columns:
            raise VerificationFailed("a single node pairs with the empty cluster")
        tree = tree_from_permutation((1,), eps)
        return BijectionWork(
            eps, cluster, (), (), (1,), (1,), ((1,),), CMatrix(()), tree
        )
    vt_e = linalg.mat_mul(linalg.as_matrix(cluster.columns), euler_matrix(eps))
    try:
        c_rows = linalg.inverse_integer(vt_e)
    except (SingularV, NonIntegralResult) as exc:
        raise VerificationFailed(f"V^t E is not invertible over Z: {exc}") from exc
    return _decode(cluster, eps, vt_e, c_rows)


def cluster_to_tree(
    cluster: ClusterMatrix, epsilon: Sequence[int]
) -> MixedCobinaryTree:
    """The unique tree whose region is spanned by the cluster's weight cone.

    Edge k of the result carries the c-vector inverse to column k of the
    cluster, so c_matrix(result) is exactly (V^t E)^{-1}.
    """
    return cluster_to_tree_work(cluster, epsilon).tree


def tree_to_cluster(tree: MixedCobinaryTree) -> ClusterMatrix:
    """The cluster matrix V = (C(T)^{-1} E^{-1})^t paired with the tree.

    Column k pairs with edge k.  The result must pass the cluster test and
    decode back to the tree; V^t E is C(T)^{-1}, so the decode reuses both
    matrices without inverting again.  Failures indicate corrupted input.
    """
    eps = tree.epsilon
    if tree.n == 1:
        return ClusterMatrix(())
    cmat = c_matrix(tree)
    c_inv = linalg.inverse_integer(cmat.rows)
    m = linalg.mat_mul(c_inv, euler_inverse(eps))  # V^t, exactly
    cluster = ClusterMatrix(m)
    problem = cluster_violation(cluster, eps)
    if problem is not None:
        raise NotACluster(f"derived columns fail the cluster test: {problem}")
    if _decode(cluster, eps, c_inv, cmat.rows).tree != tree:
        raise NotACluster("derived cluster does not reconstruct the tree")
    return cluster


def verify_pairing_identity(
    tree: MixedCobinaryTree, cluster: ClusterMatrix
) -> bool:
    """Whether V^t E C(T) is the identity under the column-to-edge pairing."""
    if tree.n == 1:
        return cluster.columns == ()
    vt = linalg.as_matrix(cluster.columns)
    e = euler_matrix(tree.epsilon)
    product = linalg.mat_mul(linalg.mat_mul(vt, e), c_matrix(tree).rows)
    return product == linalg.identity(tree.n - 1)


def wall_point(tree: MixedCobinaryTree, k: int) -> RegionPoint:
    """A relative-interior point of the k-th wall of the tree's region.

    Heights come from a linear extension of the slope order with the two
    endpoints of edge k identified; every other comparison stays strict.
    """
    edge = tree.edge(k)
    merged = {v: v for v in range(1, tree.n + 1)}
    merged[edge.q] = edge.p
    order = smallest_first_order(
        (v for v in merged if v != edge.q),
        ((merged[e.lower], merged[e.upper]) for e in tree.edges if e.index != k),
    )
    height = {v: level for level, v in enumerate(order, start=1)}
    return as_region_point(tuple(height[merged[v]] for v in range(1, tree.n + 1)))


def wall_stability_point(
    tree: MixedCobinaryTree, k: int
) -> tuple[RegionPoint, bool]:
    """Wall point for edge k plus its stability verdict.

    The image y of the point under f_map satisfies y . root(k) = 0 and
    y . sub <= 0 on the subroots; equivalently the weight coordinates
    (E^t)^{-1} y lie in the stability domain of |c_k|.
    """
    x = wall_point(tree, k)
    edge = tree.edge(k)
    y = f_map(x)
    weight = linalg.mat_vec(linalg.transpose(euler_inverse(tree.epsilon)), y)
    ok = stability_domain_contains(tree.epsilon, Root(edge.p, edge.q, 1), weight)
    return x, ok


def bijection_report(epsilon: Sequence[int]) -> list[dict]:
    """Pair every cluster with its tree and certify the pairing."""
    eps = as_sign_sequence(epsilon)
    report = []
    for cluster in enumerate_clusters(eps):
        work = cluster_to_tree_work(cluster, eps)
        paired = tree_to_cluster(work.tree)
        ok = (
            verify_pairing_identity(work.tree, paired)
            and paired.key() == cluster.key()
        )
        report.append(
            {
                "cluster": cluster,
                "tree": work.tree,
                "c_matrix": work.c_matrix,  # equals classical_c_matrix(cluster, eps)
                "verified": ok,
            }
        )
    return report
