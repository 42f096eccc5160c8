"""c-vectors, the regions cut out by a tree, point location, and mutation.

Each labelled edge of a tree contributes the c-vector
slope * (e_p + ... + e_{q-1}) in Z^{n-1}; the square matrix of c-vectors
(column k for edge k) determines the tree.  A height vector x in R^n
realizes the tree exactly when slope * (x_q - x_p) > 0 on every edge, an
order condition on the coordinates.  The closed regions are cones (x and k*x,
k > 0, lie in the same ones) and tile R^n with one open cell per tree.

Mutation at edge k crosses the wall x_p = x_q of cell k.  Let edge k run
from its lower endpoint a up to b.  The edge in b's parent slot on a's side
moves down to a, the edge in a's child slot on b's side moves up to b, and
edge k's slope flips; every edge keeps its label.  On c-matrices this is
"add column k to the moved columns, then negate column k".
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
    slot_name,
    tree_from_permutation,
)

RegionPoint = tuple[Fraction, ...]


def _rational(c) -> Fraction:
    try:
        if type(c) is str:
            return Fraction(c)
        (k,) = linalg.as_ints((c,))
        return Fraction(k)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot read exact rational coordinate {c!r}") from exc


def as_region_point(coords: Sequence) -> RegionPoint:
    """The library's one rational reader: an int that is not a bool, a
    Fraction (kept as it is) or an "a/b" string.  A float, a bool or an
    unreadable string raises ValueError; nothing is rounded."""
    return tuple(c if type(c) is Fraction else _rational(c) for c in coords)


@dataclass(frozen=True)
class CMatrix:
    """Square integer matrix whose column k is the c-vector of edge k."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cols = tuple(linalg.as_ints(col) for col in self.columns)
        object.__setattr__(self, "columns", cols)
        if any(len(col) != len(cols) for col in cols):
            raise ValueError("c-matrix must be square")

    @property
    def rows(self) -> linalg.IntMatrix:
        return linalg.transpose(self.columns)

    def column(self, k: int) -> tuple[int, ...]:
        linalg.as_ints((k,))
        if not 1 <= k <= len(self.columns):
            raise IndexError(f"column {k} out of range 1..{len(self.columns)}")
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
    (>= 0 for the closed region when strict is False), tested by comparing
    the coordinates of each edge's lower and upper endpoints."""
    if len(x) != tree.n:
        raise ValueError(f"point has length {len(x)}, tree has {tree.n} nodes")
    for e in tree.edges:
        low, high = x[e.p - 1], x[e.q - 1]
        if e.slope == -1:
            low, high = high, low
        if high < low or (strict and high == low):
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


def _edge(index: int, lower: int, upper: int) -> SignedEdge:
    """Edge labelled `index` from node `lower` up to node `upper`."""
    if lower < upper:
        return SignedEdge(index, lower, upper, 1)
    return SignedEdge(index, upper, lower, -1)


def _moved_edges(
    tree: MixedCobinaryTree, edge: SignedEdge
) -> tuple[SignedEdge | None, SignedEdge | None]:
    """The edges that mutation at `edge` moves, as (down, up).

    With a the lower and b the upper endpoint of `edge`, down fills b's
    parent slot on a's side and up fills a's child slot on b's side.
    """
    a, b = edge.lower, edge.upper
    sign_a, sign_b = tree.epsilon[a - 1], tree.epsilon[b - 1]
    down_slot = slot_name(sign_b, b, a, True)
    up_slot = slot_name(sign_a, a, b, False)
    down = up = None
    for e in tree.edges:
        if e.lower == b and slot_name(sign_b, b, e.upper, True) == down_slot:
            down = e
        elif e.upper == a and slot_name(sign_a, a, e.lower, False) == up_slot:
            up = e
    return down, up


def mutate(tree: MixedCobinaryTree, k: int) -> MixedCobinaryTree:
    """Cross the wall of edge k.

    With a the lower and b the upper endpoint of edge k: the edge in b's
    parent slot on a's side (if any) moves down to a, the edge in a's child
    slot on b's side (if any) moves up to b, and edge k's slope flips.  Edge
    labels are preserved, and mutating twice at the same label is the
    identity.
    """
    edge = tree.edge(k)
    down, up = _moved_edges(tree, edge)
    moved = {k: _edge(k, edge.upper, edge.lower)}
    if down is not None:
        moved[down.index] = _edge(down.index, edge.lower, down.upper)
    if up is not None:
        moved[up.index] = _edge(up.index, up.lower, edge.upper)
    new_edges = tuple(moved.get(e.index, e) for e in tree.edges)
    return MixedCobinaryTree(tree.n, tree.epsilon, new_edges)


def mutation_sequence(
    tree: MixedCobinaryTree, ks: Sequence[int]
) -> MixedCobinaryTree:
    """Left-to-right composition of mutations."""
    for k in ks:
        tree = mutate(tree, k)
    return tree
