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
from functools import lru_cache
from itertools import accumulate, islice, permutations, product
from typing import NoReturn, Sequence

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
    return tuple(accumulate(y, initial=0))


def _tied_rankings(x: Sequence, limit: int) -> tuple[Permutation, ...]:
    """The first `limit` permutations ranking x: ascending index on ties
    first, then the other orders of the tied groups, the last group turning
    fastest.  None of them needs more than `limit` orders of one group."""
    groups: dict = {}
    for i, v in enumerate(x):
        groups.setdefault(v, []).append(i)
    pools = [tuple(islice(permutations(groups[v]), limit)) for v in sorted(groups)]
    out = []
    for choice in islice(product(*pools), limit):
        sigma = [0] * len(x)
        for rank, i in enumerate((i for block in choice for i in block), start=1):
            sigma[i] = rank
        out.append(tuple(sigma))
    return tuple(out)


@dataclass(frozen=True)
class BijectionWork:
    """Intermediate values of the cluster-to-tree construction."""

    epsilon: tuple[int, ...]
    cluster: ClusterMatrix
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


@lru_cache(maxsize=None)
def _euler_columns(eps: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero entries (i, E_ij) of each column j of E: at most three."""
    columns = zip(*euler_matrix(eps))
    return tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in columns)


@lru_cache(maxsize=None)
def _euler_inverse_roots(eps: tuple[int, ...]) -> tuple[Root, ...]:
    """The columns of E^{-1}, each a root: the vertices with a path to j."""
    return tuple(map(root_from_vector, zip(*euler_inverse(eps))))


def _times_euler(columns: Sequence, eps: tuple[int, ...]) -> linalg.IntMatrix:
    """V^t E from the columns of V, in O(n^2)."""
    e = _euler_columns(eps)
    return tuple(tuple([sum([v[i] * x for i, x in col]) for col in e]) for v in columns)


def _cut_sides(tree: MixedCobinaryTree) -> list[tuple[int, ...]]:
    """1_{U_k} on nodes 1..n for each edge k: U_k is the part of the tree
    holding edge k's upper endpoint once edge k is deleted."""
    neighbours: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, tree.n + 1)}
    for e in tree.edges:
        neighbours[e.p].append((e.q, e.index))
        neighbours[e.q].append((e.p, e.index))
    sides = []
    for e in tree.edges:
        side, stack = [0] * tree.n, [e.upper]
        side[e.upper - 1] = 1
        while stack:
            for u, k in neighbours[stack.pop()]:
                if k != e.index and not side[u - 1]:
                    side[u - 1] = 1
                    stack.append(u)
        sides.append(tuple(side))
    return sides


def _telescopes(lifts: Sequence[Sequence[int]], tree: MixedCobinaryTree) -> bool:
    """Whether V^t E C(T) = I, from the lifts L_k of the rows of V^t E (up to
    a shift): entry (k, j) telescopes to slope_j * (L_k(q_j) - L_k(p_j))."""
    for k, lift in enumerate(lifts, start=1):
        for e in tree.edges:
            if e.slope * (lift[e.q - 1] - lift[e.p - 1]) != (e.index == k):
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
    (ranking,) = _tied_rankings(total, 1)
    return total, ranking, tree_from_permutation(ranking, eps)


def cluster_to_tree_work(
    cluster: ClusterMatrix, epsilon: Sequence[int]
) -> BijectionWork:
    """Run the constructive correspondence and keep the work shown.

    V^t E takes O(n^2): a column of E has at most three nonzero entries.
    Each of its rows is lifted through f_lift and shifted to minimum 0 (a
    cut indicator); the lifts are summed and the sum is ranked, ascending
    index on ties, into the permutation that rebuilds the tree.  Edge k is
    the one edge that crosses cut k, and V^t E C(T) = I is certified by
    telescoping.
    """
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    if n == 1:
        if cluster.columns:
            raise VerificationFailed("a single node pairs with the empty cluster")
        tree = tree_from_permutation((1,), eps)
        return BijectionWork(eps, cluster, (), (), (1,), (1,), tree)
    if len(cluster.columns) != n - 1:
        raise ValueError(f"{n} nodes pair with clusters of {n - 1} columns")
    vt_e = _times_euler(cluster.columns, eps)
    lifts = tuple(map(f_lift, vt_e))
    lifted = tuple(tuple(v - m for v in row) for row, m in zip(lifts, map(min, lifts)))
    total, ranking, tree = _rebuild(lifted, eps)
    edges = tree.edges
    crossing = [  # per lift, the first edge whose endpoints it tells apart
        next((j for j, e in enumerate(edges) if lift[e.p - 1] != lift[e.q - 1]), -1)
        for lift in lifted
    ]
    if sorted(crossing) == list(range(len(edges))):
        tree = tree.relabelled([edges[j].triple for j in crossing])
        if _telescopes(lifted, tree):
            return BijectionWork(eps, cluster, vt_e, lifted, total, ranking, tree)
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
    must pass the cluster test and its cut indicators must rebuild the
    tree (failures indicate corrupted input); the pairing itself is
    certified once, when :func:`cluster_to_tree` decodes the cluster.
    """
    eps = tree.epsilon
    if tree.n == 1:
        return ClusterMatrix(())
    sides = _cut_sides(tree)
    roots = _euler_inverse_roots(eps)
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
        report.append(
            {
                "cluster": cluster,
                "tree": work.tree,
                "c_matrix": work.c_matrix,  # equals classical_c_matrix(cluster, eps)
                "verified": tree_to_cluster(work.tree) == cluster,
            }
        )
    return report
