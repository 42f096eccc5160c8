"""The bijection between clusters and mixed cobinary trees.

The consecutive-difference map F sends a height vector in R^n to R^{n-1};
its kernel is the diagonal line.  A cluster matrix V spans the cone of
weight vectors E^t V a (a >= 0), and pulling that cone back through F
yields the closed region of exactly one tree.

Both directions read the tree's cuts.  Delete edge k and let U_k be the
part holding its upper endpoint: row k of C(T)^{-1} is F(1_{U_k}), as
against column j of C(T) it telescopes to
slope_j * (1_{U_k}(q_j) - 1_{U_k}(p_j)) = [j = k].  So V^t = C(T)^{-1} E^{-1}
needs no inversion.  Rows of V^t E lift back to the indicators 1_{U_k},
whose sum rises by exactly 1 along every edge: its first ranking rebuilds
the tree, and edge k is the edge crossing cut k.  The same sums certify
V^t E C(T) = I in O(n^2) integer comparisons, once per (tree, cluster)
pair; only a failed certificate inverts V^t E, to name the failure.  The
tree then re-encodes to its cluster exactly.  `clusters.classical_c_matrix`
keeps the Gauss-Jordan route as the independent oracle.

Every wall of a tree's region maps into a stability domain: identifying
the two endpoint heights of one edge and keeping every other comparison
strict produces a point whose image satisfies the degeneracy equation and
all subroot inequalities of that edge's root.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations, product
from typing import NoReturn, Sequence

from . import linalg
from .clusters import ClusterMatrix, _in_stability_domain, cluster_violation, enumerate_clusters
from .errors import (
    NonIntegralResult,
    NotACluster,
    NotARoot,
    SingularV,
    VerificationFailed,
)
from .exchange import _times_euler, f_lift, quiver
from .regions import CMatrix, RegionPoint, as_region_point, c_matrix
from .roots import Root, root_from_vector
from .trees import (
    MixedCobinaryTree,
    Permutation,
    _ranking,
    _tree_from_order,
    as_sign_sequence,
    initial_tree,
    smallest_first_order,
)


def f_map(x: Sequence) -> tuple:
    """Consecutive differences (x_2 - x_1, ..., x_n - x_{n-1})."""
    return tuple(x[i + 1] - x[i] for i in range(len(x) - 1))


def _tied_rankings(x: Sequence, limit: int) -> tuple[Permutation, ...]:
    """The first `limit` permutations ranking x: ascending index on ties
    first, then the other orders of the tied groups, the last group turning
    fastest.  None of them needs more than `limit` orders of one group."""
    groups: dict = {}
    for i, v in enumerate(x):
        groups.setdefault(v, []).append(i)
    pools = [tuple(islice(permutations(groups[v]), limit)) for v in sorted(groups)]
    return tuple(
        _ranking([i for block in choice for i in block])
        for choice in islice(product(*pools), limit)
    )


@dataclass(frozen=True)
class BijectionWork:
    """Intermediate values of the cluster-to-tree construction."""

    vt_e_rows: linalg.IntMatrix
    lifted_rows: tuple[tuple[int, ...], ...]
    sum_vector: tuple[int, ...]
    ranking: Permutation
    tree: MixedCobinaryTree

    @property
    def c_matrix(self) -> CMatrix:
        """(V^t E)^{-1}: the tree's c-matrix."""
        return c_matrix(self.tree)

    @property
    def tied_rankings(self) -> tuple[Permutation, ...]:
        """Up to 24 rankings of the sum vector; every one rebuilds the tree."""
        return _tied_rankings(self.sum_vector, 24)


def _cut_sides(tree: MixedCobinaryTree) -> list[tuple[int, ...]]:
    """1_{U_k} on nodes 1..n for each edge k: U_k is the part of the tree
    holding edge k's upper endpoint once edge k is deleted."""
    pairs = list(tree.height_pairs())
    neighbours: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, tree.n + 1)}
    for j, (lower, upper) in enumerate(pairs):
        neighbours[lower].append((upper, j))
        neighbours[upper].append((lower, j))
    sides = []
    for j, (_, upper) in enumerate(pairs):
        side, stack = [0] * tree.n, [upper]
        side[upper - 1] = 1
        while stack:
            for u, k in neighbours[stack.pop()]:
                if k != j and not side[u - 1]:
                    side[u - 1] = 1
                    stack.append(u)
        sides.append(tuple(side))
    return sides


def _telescopes(lifts: Sequence[Sequence[int]], tree: MixedCobinaryTree) -> bool:
    """Whether V^t E C(T) = I, from the lifts L_k of the rows of V^t E (up to
    a shift): entry (k, j) telescopes to slope_j * (L_k(q_j) - L_k(p_j))."""
    triples = list(tree.edge_triples())
    for k, lift in enumerate(lifts):
        for j, (p, q, slope) in enumerate(triples):
            if slope * (lift[q - 1] - lift[p - 1]) != (j == k):
                return False
    return True


def _name_failure(vt_e: linalg.IntMatrix) -> NoReturn:
    """Raise why no tree pairs with V^t E, found the Gauss-Jordan way."""
    try:
        c_rows = linalg.inverse_integer(vt_e)
    except (SingularV, NonIntegralResult) as exc:
        raise VerificationFailed(f"V^t E is not invertible over Z: {exc}") from exc
    try:
        for col in zip(*c_rows):
            root_from_vector(col)
    except NotARoot as exc:
        raise VerificationFailed(f"(V^t E)^{{-1}} has a non-root column: {exc}") from exc
    raise VerificationFailed(
        "no tie-break of the rank vector reconstructs the decoded c-matrix; "
        "the input is not a cluster matrix"
    )


def _rebuild(
    lifts: Sequence[Sequence[int]], eps: tuple[int, ...]
) -> tuple[tuple[int, ...], Permutation, MixedCobinaryTree]:
    """The sum of the lifts, its first ranking, and the tree it realizes."""
    total = tuple(map(sum, zip(*lifts)))
    # A stable sort ranks ties by ascending index: _tied_rankings(total, 1)[0].
    order = sorted(range(len(total)), key=total.__getitem__)
    return total, _ranking(order), _tree_from_order(order, eps)


def cluster_to_tree_work(
    cluster: ClusterMatrix, epsilon: Sequence[int]
) -> BijectionWork:
    """Run the constructive correspondence and keep the work shown.

    Each column is looked up in the sign sequence's table of almost
    positive roots (exchange.quiver), which holds its row of V^t E and
    that row's lift through f_lift shifted to minimum 0 (a cut indicator);
    a column outside the table is no cluster's.  The lifts are summed (to
    (0,) at n = 1) and the sum is sorted, ascending index on ties, into the
    order that rebuilds the tree.
    Edge k is the one edge that crosses cut k, and V^t E C(T) = I is
    certified by telescoping.
    """
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    if n == 1:
        if cluster.columns:
            raise VerificationFailed("a single node pairs with the empty cluster")
        return BijectionWork((), (), (0,), (1,), initial_tree(eps))
    if len(cluster.columns) != n - 1:
        raise ValueError(f"{n} nodes pair with clusters of {n - 1} columns")
    tables = quiver(eps)
    ats = [tables.positions.get(col) for col in cluster.columns]
    if None in ats:  # not a cluster: no tree pairs with these columns
        _name_failure(_times_euler(cluster.columns, eps))
    vt_e, lifted = map(tuple, zip(*[tables.euler_row(at) for at in ats]))
    total, ranking, tree = _rebuild(lifted, eps)
    triples = list(tree.edge_triples())
    crossing = [  # per lift, the first edge whose endpoints it tells apart
        next((j for j, (p, q, _) in enumerate(triples) if lift[p - 1] != lift[q - 1]), -1)
        for lift in lifted
    ]
    if sorted(crossing) == list(range(len(triples))):
        tree = tree.relabelled([triples[j] for j in crossing])
        if _telescopes(lifted, tree):
            return BijectionWork(vt_e, lifted, total, ranking, tree)
    _name_failure(vt_e)


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

    Column j of E^{-1} is a root (p, q), so entry (k, j) of V^t telescopes
    to 1_{U_k}(q) - 1_{U_k}(p).  Column k pairs with edge k.  The result
    must pass the cluster test (a corrupted tree fails it) and its cut
    indicators must rebuild the tree; the pairing itself is certified
    once, when :func:`cluster_to_tree` decodes the cluster.  The rebuild
    check fires only through a fault in the cut rule: columns that pass
    the cluster test decode to a tree with the same cut indicators, and a
    tree's cuts fix its edges, because two nodes are adjacent exactly when
    one cut separates them.
    """
    eps = tree.epsilon
    if tree.n == 1:
        return ClusterMatrix(())
    sides = _cut_sides(tree)
    roots = quiver(eps).inverse_column_roots
    cluster = ClusterMatrix(
        tuple(tuple(s[r.q - 1] - s[r.p - 1] for r in roots) for s in sides)
    )
    problem = cluster_violation(cluster, eps)
    if problem is not None:
        raise NotACluster(f"derived columns fail the cluster test: {problem}")
    if _rebuild(sides, eps)[2] != tree:
        raise NotACluster("derived cluster does not reconstruct the tree")
    return cluster


def verify_pairing_identity(
    tree: MixedCobinaryTree, cluster: ClusterMatrix
) -> bool:
    """Whether V^t E C(T) is the identity under the column-to-edge pairing."""
    if tree.n == 1 or len(cluster.columns) != tree.n - 1:
        return tree.n == 1 and cluster.columns == ()
    rows = _times_euler(cluster.columns, tree.epsilon)
    return _telescopes(tuple(map(f_lift, rows)), tree)


def wall_point(tree: MixedCobinaryTree, k: int) -> RegionPoint:
    """A relative-interior point of the k-th wall of the tree's region.

    Heights come from a linear extension of the slope order with the two
    endpoints of edge k identified; every other comparison stays strict.
    """
    p, q, _ = tree.edge_triple(k)
    merged = {v: v for v in range(1, tree.n + 1)}
    merged[q] = p
    order = smallest_first_order(
        (v for v in merged if v != q),
        (
            (merged[lower], merged[upper])
            for j, (lower, upper) in enumerate(tree.height_pairs(), 1)
            if j != k
        ),
    )
    height = {v: level for level, v in enumerate(order, start=1)}
    return as_region_point(tuple(height[merged[v]] for v in range(1, tree.n + 1)))


def wall_stability_point(
    tree: MixedCobinaryTree, k: int
) -> tuple[RegionPoint, bool]:
    """Wall point x for edge k plus its stability verdict: whether the row
    y = f_map(x) passes the stability test of |c_k| on y = v^t E, that is
    y . root(k) = 0 and y . sub <= 0 on every subroot.  The heights x are a
    lift of y, so they go straight into the test."""
    x = wall_point(tree, k)
    p, q, _ = tree.edge_triple(k)
    return x, _in_stability_domain(tree.epsilon, Root(p, q, 1), x)


def bijection_report(epsilon: Sequence[int]) -> list[dict]:
    """Pair every cluster with its tree and certify the pairing: one entry
    per cluster, holding the cluster, its tree and the verdict."""
    eps = as_sign_sequence(epsilon)
    report = []
    for cluster in enumerate_clusters(eps):
        work = cluster_to_tree_work(cluster, eps)
        report.append(
            {
                "cluster": cluster,
                "tree": work.tree,
                "verified": tree_to_cluster(work.tree) == cluster,
            }
        )
    return report
