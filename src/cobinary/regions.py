"""c-vectors, the regions cut out by a tree, point location, and mutation.

Each labelled edge of a tree contributes the c-vector
slope * (e_p + ... + e_{q-1}) in Z^{n-1}; the square matrix of c-vectors
(column k for edge k) determines the tree.  A height vector x in R^n
realizes the tree exactly when slope * (x_q - x_p) > 0 on every edge, so
the closed regions tile R^n with one open cell per tree.

Mutation at edge k crosses the wall x_p = x_q of cell k: the edge's slope
flips, and at most two neighbouring edges re-attach — the edge into the
upper node's leftmost parent slot moves down to the lower node, and the
edge into the lower node's rightmost child slot moves up.  On c-matrices
this is "add column k to the re-attached columns, then negate column k".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import TiedCoordinates, VerificationFailed
from .roots import Root, root_from_vector
from .trees import (
    MixedCobinaryTree,
    SignedEdge,
    make_tree,
    reverse_tree,
    tree_from_permutation,
)

RegionPoint = tuple[Fraction, ...]


def as_region_point(coords: Sequence) -> RegionPoint:
    return tuple(Fraction(c) for c in coords)


@dataclass(frozen=True)
class CMatrix:
    """Square integer matrix whose column k is the c-vector of edge k."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cols = tuple(tuple(int(x) for x in col) for col in self.columns)
        object.__setattr__(self, "columns", cols)
        if any(len(col) != len(cols) for col in cols):
            raise ValueError("c-matrix must be square")

    @property
    def rows(self) -> linalg.IntMatrix:
        return linalg.transpose(self.columns)

    def column(self, k: int) -> tuple[int, ...]:
        return self.columns[k - 1]

    def det(self) -> int:
        return linalg.det(self.rows)


def c_vector(tree: MixedCobinaryTree, k: int) -> tuple[int, ...]:
    """slope * (e_p + ... + e_{q-1}) for edge k."""
    e = tree.edge(k)
    return Root(e.p, e.q, e.slope).vector(tree.n)


def c_matrix(tree: MixedCobinaryTree) -> CMatrix:
    return CMatrix(tuple(c_vector(tree, k) for k in range(1, tree.n)))


def tree_from_c_matrix(
    cmat: CMatrix, epsilon: Sequence[int]
) -> MixedCobinaryTree:
    """Decode each column to a signed edge and validate the resulting tree.

    Column k must be plus or minus a consecutive block of ones; edge k keeps
    the column's label, so the round trip through :func:`c_matrix` is exact.
    """
    edges = []
    for k, col in enumerate(cmat.columns, start=1):
        root = root_from_vector(col)
        edges.append(SignedEdge(k, root.p, root.q, root.sign))
    tree = make_tree(epsilon, edges)
    if c_matrix(tree).columns != cmat.columns:
        raise VerificationFailed(f"c-matrix {cmat.columns} does not rebuild its tree")
    return tree


def region_contains(
    tree: MixedCobinaryTree, x: Sequence, strict: bool = True
) -> bool:
    """Whether x satisfies every edge inequality slope*(x_q - x_p) > 0
    (>= 0 for the closed region when strict is False)."""
    if len(x) != tree.n:
        raise ValueError(f"point has length {len(x)}, tree has {tree.n} nodes")
    for e in tree.edges:
        gap = e.slope * (x[e.q - 1] - x[e.p - 1])
        if gap < 0 or (strict and gap == 0):
            return False
    return True


def rank_permutation(x: Sequence) -> tuple[int, ...]:
    """sigma with sigma(i) the position of x_i in increasing order.

    Raises TiedCoordinates when two coordinates are equal.
    """
    order = sorted(range(len(x)), key=lambda i: x[i])
    for a, b in zip(order, order[1:]):
        if x[a] == x[b]:
            raise TiedCoordinates(
                f"coordinates {a + 1} and {b + 1} are equal; the point lies on a wall"
            )
    sigma = [0] * len(x)
    for rank, i in enumerate(order, start=1):
        sigma[i] = rank
    return tuple(sigma)


def locate_tree(x: Sequence, epsilon: Sequence[int]) -> MixedCobinaryTree:
    """The unique tree whose open region contains x."""
    point = as_region_point(x)
    if len(point) != len(epsilon):
        raise ValueError("point and sign sequence must have equal length")
    tree = tree_from_permutation(rank_permutation(point), epsilon)
    if not region_contains(tree, point, strict=True):
        raise VerificationFailed(f"tree located for x={tuple(x)} misses x")
    return tree


def _leftmost_parent_edge(tree: MixedCobinaryTree, v: int) -> SignedEdge | None:
    """The internal edge in node v's leftmost parent slot, if any.

    A fork-up node has one parent slot per side, so leftmost means the
    parent left of v; a fork-down node has a single parent slot.
    """
    parents = [e for e in tree.edges if v in (e.p, e.q) and e.lower == v]
    if tree.epsilon[v - 1] == 1:
        return parents[0] if parents else None
    for e in parents:
        if (e.p if e.q == v else e.q) < v:
            return e
    return None


def _rightmost_child_edge(tree: MixedCobinaryTree, v: int) -> SignedEdge | None:
    """The internal edge in node v's rightmost child slot, if any."""
    children = [e for e in tree.edges if v in (e.p, e.q) and e.upper == v]
    if tree.epsilon[v - 1] == -1:
        return children[0] if children else None
    for e in children:
        if (e.p if e.q == v else e.q) > v:
            return e
    return None


def _attach_above(index: int, node: int, upper: int) -> SignedEdge:
    """Edge labelled `index` joining `node` to `upper` sitting above it."""
    if upper < node:
        return SignedEdge(index, upper, node, -1)
    return SignedEdge(index, node, upper, 1)


def _attach_below(index: int, node: int, lower: int) -> SignedEdge:
    if lower < node:
        return SignedEdge(index, lower, node, 1)
    return SignedEdge(index, node, lower, -1)


def mutate(tree: MixedCobinaryTree, k: int) -> MixedCobinaryTree:
    """Cross the wall of edge k.

    For an upward edge k from p to q: q's leftmost parent (if internal)
    re-attaches to p, p's rightmost child (if internal) re-attaches to q,
    and edge k's slope flips.  A downward edge is handled through the
    vertical-mirror symmetry, which commutes with mutation.  Edge labels
    are preserved, and mutating twice at the same label is the identity.
    """
    edge = tree.edge(k)
    if edge.slope == -1:
        return reverse_tree(mutate(reverse_tree(tree), k))
    p, q = edge.p, edge.q
    moved_to_p = _leftmost_parent_edge(tree, q)
    moved_to_q = _rightmost_child_edge(tree, p)
    new_edges = []
    for e in tree.edges:
        if e.index == k:
            new_edges.append(SignedEdge(k, p, q, -1))
        elif moved_to_p is not None and e.index == moved_to_p.index:
            other = e.p if e.q == q else e.q
            new_edges.append(_attach_above(e.index, p, other))
        elif moved_to_q is not None and e.index == moved_to_q.index:
            other = e.p if e.q == p else e.q
            new_edges.append(_attach_below(e.index, q, other))
        else:
            new_edges.append(e)
    return MixedCobinaryTree(tree.n, tree.epsilon, tuple(new_edges))


def mutate_c_columns(tree: MixedCobinaryTree, k: int) -> CMatrix:
    """Column recipe for mutation at k: add column k to the columns of the
    re-attached edges, then negate column k.  Independent consistency route
    for :func:`mutate`."""
    edge = tree.edge(k)
    if edge.slope == -1:
        flipped = mutate_c_columns(reverse_tree(tree), k)
        return CMatrix(
            tuple(tuple(reversed([-x for x in col])) for col in flipped.columns)
        )
    moved = {
        e.index
        for e in (
            _leftmost_parent_edge(tree, edge.q),
            _rightmost_child_edge(tree, edge.p),
        )
        if e is not None
    }
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


def mutation_sequence(
    tree: MixedCobinaryTree, ks: Sequence[int]
) -> MixedCobinaryTree:
    """Left-to-right composition of mutations."""
    for k in ks:
        tree = mutate(tree, k)
    return tree
