"""Slow reference implementations that the tests cross-check the library
against.  They follow the definitions literally and are not part of the
public API."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import lcm
from typing import Iterator, Sequence

from cobinary import (
    BinaryTree,
    CMatrix,
    ClusterMatrix,
    ExchangeMatrix,
    MixedCobinaryTree,
    Root,
    SignedEdge,
    almost_positive_roots,
    as_region_point,
    as_sign_sequence,
    c_matrix,
    cluster_violation,
    euler_matrix,
    is_root_vector,
    linalg,
    projective_roots,
    rank_permutation,
    root_from_vector,
    subroots,
)
from cobinary.trees import _find, _tree_from_flat, as_permutation


def enumerate_clusters_bruteforce(epsilon: Sequence[int]) -> list[ClusterMatrix]:
    """Filter every (n-1)-subset of almost positive roots through the full
    cluster definition."""
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    if n == 1:
        return [ClusterMatrix(())]
    vectors = [r.vector(n) for r in almost_positive_roots(eps)]
    found = []
    for subset in combinations(sorted(vectors), n - 1):
        if cluster_violation(subset, eps) is None:
            found.append(ClusterMatrix(subset))
    found.sort(key=lambda v: v.columns)
    return found


def euler_matrix_by_arrows(epsilon: Sequence[int]) -> linalg.IntMatrix:
    """E = I - A from the definition: the arrow between vertices a and a + 1
    points left when sign a + 1 is +1 and right when it is -1."""
    m = len(epsilon) - 1
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for a in range(1, m):
        if epsilon[a] == 1:
            rows[a][a - 1] = -1
        else:
            rows[a - 1][a] = -1
    return tuple(map(tuple, rows))


def euler_form(epsilon: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    """a^t E b, the Hom-minus-Ext pairing on dimension vectors, as a dense
    product with E."""
    e = euler_matrix(epsilon)
    a, b = linalg.as_ints(a), linalg.as_ints(b)
    if len(a) != len(e) or len(b) != len(e):
        raise ValueError(
            f"vectors must have length {len(e)}, got {len(a)} and {len(b)}"
        )
    return linalg.dot(a, linalg.mat_vec(e, b))


def root_euler(counts: tuple[linalg.IntVector, linalg.IntVector], a: Root, b: Root) -> int:
    """a^t E b for two roots, in O(1) from the arrow counts of E: for
    positive roots, the vertices [p, q) the two intervals share minus the
    arrows from a vertex of a to a vertex of b."""
    right, left = counts
    shared = max(0, min(a.q, b.q) - max(a.p, b.p))
    lo, hi = max(a.p, b.p - 1), min(a.q - 1, b.q - 2)  # i -> i + 1
    forward = right[hi + 1] - right[lo] if lo <= hi else 0
    lo, hi = max(a.p - 1, b.p), min(a.q - 2, b.q - 1)  # i + 1 -> i
    backward = left[hi + 1] - left[lo] if lo <= hi else 0
    return a.sign * b.sign * (shared - forward - backward)


def region_contains_by_gaps(
    tree: MixedCobinaryTree, x: Sequence, strict: bool = True
) -> bool:
    """The region's defining inequalities as written: slope*(x_q - x_p) > 0
    on every edge (>= 0 when strict is False)."""
    gaps = [e.slope * (x[e.q - 1] - x[e.p - 1]) for e in tree.edges]
    return all(g > 0 if strict else g >= 0 for g in gaps)


def tree_from_permutation_by_segments(
    sigma: Sequence[int], epsilon: Sequence[int]
) -> MixedCobinaryTree:
    """The tree realized by the height order sigma, built segment by segment.

    Inserts the nodes from the lowest up.  The fork-down nodes not yet
    placed cut 1..n into segments, and each segment holds the partial tree
    on its placed nodes: the left-to-right list of open parent slots (by
    owning node) and the sorted positions of its walls.  A fork-up node k
    attaches its child edge to the one open parent slot between the walls
    bracketing position k, and opens a parent slot on each side of its own
    wall.  A fork-down node k joins the segments on its left and right: its
    children take the rightmost open parent slot on the left and the
    leftmost on the right, and its own parent slot opens between them.
    Edges are labelled in (p, q) order.
    """
    eps = as_sign_sequence(epsilon)
    perm = as_permutation(sigma)
    n = len(perm)
    if n != len(eps):
        raise ValueError("permutation and sign sequence must have equal length")
    # Union-find onto the first unplaced fork-down position >= v (or n + 1),
    # which names the segment holding v.
    cut = [v + 1 if 1 <= v <= n and eps[v - 1] == -1 else v for v in range(n + 2)]
    segments = {v: ([], []) for v in range(1, n + 2) if cut[v] == v}
    triples = []
    for k in sorted(range(1, n + 1), key=lambda v: perm[v - 1]):
        if eps[k - 1] == 1:
            slots_l, walls_l = segments.pop(k)
            cut[k] = k + 1
            slots, walls = segments[_find(cut, k)]
            if slots_l:
                triples.append((slots_l.pop(), k, 1))
            if slots:
                triples.append((k, slots[0], -1))
            slots[0:1] = slots_l + [k]
            walls[0:0] = walls_l
        else:
            slots, walls = segments[_find(cut, k)]
            at = bisect_left(walls, k)
            if slots:
                owner = slots[at]
                triples.append((owner, k, 1) if owner < k else (k, owner, -1))
            slots[at : at + 1] = [k, k]
            walls.insert(at, k)
    return _tree_from_flat(eps, chain.from_iterable(sorted(triples)))


def locate_by_fractions(x: Sequence, epsilon: Sequence[int]) -> MixedCobinaryTree:
    """The tree whose ranking is taken on the point's bare Fractions, without
    locate_tree's certificate, built by the segment oracle."""
    return tree_from_permutation_by_segments(
        rank_permutation(as_region_point(x)), epsilon
    )


def exchange_matrix_by_products(tree: MixedCobinaryTree) -> linalg.IntMatrix:
    """The principal part C^t X C, X = E - E^t, by two dense products."""
    if tree.n == 1:
        return ()
    e = euler_matrix(tree.epsilon)
    cmat = c_matrix(tree)
    x = linalg.mat_sub(e, linalg.transpose(e))
    return linalg.mat_mul(linalg.mat_mul(cmat.columns, x), cmat.rows)


def fz_mutate_dense(btilde: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Fomin-Zelevinsky mutation entry by entry over the whole stacked
    matrix: entries in row or column k flip sign, and entry (i, j) elsewhere
    gains b_ik * |b_kj| when b_ik and b_kj share a sign."""
    m = btilde.size
    stacked = btilde.b_rows + btilde.c_rows
    pivot_row = btilde.b_rows[k - 1]
    out = []
    for i, row in enumerate(stacked):
        new_row = []
        for j in range(m):
            if i == k - 1 or j == k - 1:
                new_row.append(-row[j])
            elif row[k - 1] * pivot_row[j] > 0:
                new_row.append(row[j] + row[k - 1] * abs(pivot_row[j]))
            else:
                new_row.append(row[j])
        out.append(tuple(new_row))
    return ExchangeMatrix(tuple(out[:m]), tuple(out[m:]))


def c_matrix_by_roots(tree: MixedCobinaryTree) -> CMatrix:
    """The c-matrix with column k read off edge k as a Root, coordinate by
    coordinate."""
    roots = [Root(*t) for t in tree.edge_triples()]
    return CMatrix(
        tuple(tuple(r.sign if r.p <= i < r.q else 0 for i in range(1, tree.n)) for r in roots)
    )


def _moved_edges(
    tree: MixedCobinaryTree, edge: SignedEdge
) -> tuple[SignedEdge | None, SignedEdge | None]:
    """The edges that mutation at `edge`, from its lower endpoint a up to b,
    moves, as (down, up), read from the slot definitions.  Down is the edge
    on b's parent side: b's parent if b forks down, else its parent on a's
    side.  Up is the edge on a's child side: a's child if a forks up, else
    its child on b's side."""
    a, b = edge.lower, edge.upper
    down = up = None
    for e in tree.edges:
        if e.lower == b and (tree.epsilon[b - 1] == 1 or (e.upper < b) == (a < b)):
            down = e
        elif e.upper == a and (tree.epsilon[a - 1] == -1 or (e.lower < a) == (b < a)):
            up = e
    return down, up


def mutate_c_columns(tree: MixedCobinaryTree, k: int) -> CMatrix:
    """Column recipe for mutation at k: add column k to the columns of the
    moved edges, then negate column k."""
    moved = {e.index for e in _moved_edges(tree, tree.edges[k - 1]) if e is not None}
    cmat = c_matrix(tree)
    ck = cmat.column(k)
    cols = []
    for j, col in enumerate(cmat.columns, start=1):
        if j == k:
            cols.append(tuple(-x for x in col))
        elif j in moved:
            cols.append(tuple(a + b for a, b in zip(col, ck)))
        else:
            cols.append(col)
    return CMatrix(tuple(cols))


def cluster_violation_by_matrix(
    candidate: Sequence[Sequence[int]], epsilon: Sequence[int]
) -> str | None:
    """The cluster test with the Euler form as a matrix product and the
    projective roots found by scanning the rows of E^{-1}."""
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    cols = tuple(tuple(int(x) for x in c) for c in candidate)
    if n == 1:
        return None if cols == () else "a single node admits only the empty cluster"
    if len(cols) != n - 1:
        return f"expected {n - 1} columns, got {len(cols)}"
    if any(len(col) != n - 1 for col in cols):
        return "column of wrong length"
    if len(set(cols)) != len(cols):
        return "columns are not distinct"
    positive = []
    for col in cols:
        if is_root_vector(col) and root_from_vector(col).sign == 1:
            positive.append(True)
        elif tuple(-x for x in col) in projective_roots(eps):
            positive.append(False)
        else:
            return f"column {col} is not an almost positive root"
    e = euler_matrix(eps)
    for i, vi in enumerate(cols):
        row = linalg.vec_mat(vi, e)
        for j, vj in enumerate(cols):
            if positive[j] and linalg.dot(row, vj) < 0:
                return (
                    f"columns {i + 1} and {j + 1} are incompatible: "
                    f"v_{i + 1}^t E v_{j + 1} < 0"
                )
    return None


def pairing_by_product(tree: MixedCobinaryTree, cluster: ClusterMatrix) -> bool:
    """Whether V^t E C(T) = I, by two dense matrix products."""
    if tree.n == 1:
        return cluster.columns == ()
    vt_e = linalg.mat_mul(linalg.as_matrix(cluster.columns), euler_matrix(tree.epsilon))
    return linalg.mat_mul(vt_e, c_matrix(tree).rows) == linalg.identity(tree.n - 1)


def rankings_with_tie_breaks(x: Sequence) -> Iterator[tuple[int, ...]]:
    """Every permutation ranking x: ascending index on ties first, then every
    other order of the tied groups, the last group turning fastest."""
    groups: dict = {}
    for i, v in enumerate(x):
        groups.setdefault(v, []).append(i)
    pools = [tuple(groups[v]) for v in sorted(groups)]
    for choice in product(*(tuple(permutations(pool)) for pool in pools)):
        sigma = [0] * len(x)
        rank = 1
        for block in choice:
            for i in block:
                sigma[i] = rank
                rank += 1
        yield tuple(sigma)


def stability_by_products(epsilon: Sequence[int], beta: Root, v: Sequence) -> bool:
    """The stability-domain test as dense products: v^t E from the Euler
    matrix, then its dot product with beta and with each subroot's vector."""
    n = len(epsilon)
    left = linalg.vec_mat(v, euler_matrix(epsilon))
    if linalg.dot(left, beta.vector(n)) != 0:
        return False
    return all(linalg.dot(left, sub.vector(n)) <= 0 for sub in subroots(epsilon, beta))


def missing_by_lcm(masks: dict, x: Sequence[Fraction]) -> int:
    """The trees whose open region misses x, found on the integer point
    lcm(denominators) * x, which lies in the same regions because they are
    cones."""
    scale = lcm(*(c.denominator for c in x))
    scaled = [c.numerator * (scale // c.denominator) for c in x]
    out = 0
    for (p, q, slope), mask in masks.items():
        if slope * (scaled[q - 1] - scaled[p - 1]) <= 0:
            out |= mask
    return out


def binary_trees_by_recursion(n: int) -> list[BinaryTree | None]:
    """All full binary trees with n internal nodes, by the recursive
    definition: a root over every left subtree of size i and every right
    subtree of size n - 1 - i, the sub-lists rebuilt for each pair."""
    if n == 0:
        return [None]
    return [
        BinaryTree(left, right)
        for i in range(n)
        for left in binary_trees_by_recursion(i)
        for right in binary_trees_by_recursion(n - 1 - i)
    ]
