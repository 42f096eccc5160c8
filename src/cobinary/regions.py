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

from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import TiedCoordinates, VerificationFailed
from .roots import _block_vector, root_from_vector
from .trees import (
    MixedCobinaryTree,
    SignedEdge,
    _ranking,
    _tree_from_flat,
    _tree_from_order,
    as_sign_sequence,
    make_tree,
    slot_name,
)

RegionPoint = tuple[Fraction, ...]
# _floors scales by 2**_KEY_BITS before taking the floor.  A plain floor
# would leave every coordinate of a point in [0, 1) tied on its integer
# part, and a tie sends the whole point to the slower (int, Fraction) pairs.
_KEY_BITS = 64


def _read_fraction(text: str) -> Fraction:
    """Fraction(text), save that an underscore anywhere or whitespace inside
    the string raises ValueError with Python 3.10's message on every
    version: 3.11 began to read "1_0" and 3.12 "1 / 2", which 3.10 refuses.
    Whitespace around the whole string stays allowed, as on every version."""
    if "_" in text or len(text.split()) > 1:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    return Fraction(text)


def _rational(c) -> Fraction:
    try:
        if type(c) is str:
            return _read_fraction(c)
        (k,) = linalg.as_ints((c,))
        return Fraction(k)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot read exact rational coordinate {c!r}") from exc


def as_region_point(coords: Sequence) -> RegionPoint:
    """The library's one rational reader: an int that is not a bool, a
    Fraction (kept as it is) or an "a/b" string.  A float, a bool or an
    unreadable string raises ValueError; nothing is rounded."""
    point = tuple(coords)
    if {Fraction}.issuperset(map(type, point)):
        return point
    return tuple(c if type(c) is Fraction else _rational(c) for c in point)


class CMatrix(linalg.ColumnMatrix):
    """Square integer matrix whose column k is the c-vector of edge k."""

    kind = "c-matrix"

    def column(self, k: int) -> tuple[int, ...]:
        linalg.as_ints((k,))
        if not 1 <= k <= len(self.columns):
            raise IndexError(f"column {k} out of range 1..{len(self.columns)}")
        return self.columns[k - 1]

    def det(self) -> int:
        return linalg.det(self.rows)


def c_matrix(tree: MixedCobinaryTree) -> CMatrix:
    """Column k is edge k's c-vector slope * (e_p + ... + e_{q-1}), read
    straight off the tree's edge triples, which the tree validated when it
    was built."""
    return CMatrix(tuple(_block_vector(tree.n, *t) for t in tree.edge_triples()))


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
    (>= 0 for the closed region when strict is False).  The point is read
    through :func:`as_region_point`, so a float, a bool or a string that is
    not a rational raises ValueError."""
    if len(x) != tree.n:
        raise ValueError(f"point has length {len(x)}, tree has {tree.n} nodes")
    return _contains(tree, as_region_point(x), strict)


def _contains(tree: MixedCobinaryTree, x: Sequence, strict: bool = True) -> bool:
    """region_contains on an exact point of the right length, tested by
    comparing the coordinates of each edge's lower and upper endpoints."""
    for p, q, slope in tree.edge_triples():
        low, high = x[p - 1], x[q - 1]
        if slope == -1:
            low, high = high, low
        if high < low or (strict and high == low):
            return False
    return True


def _height_order(keys: Sequence, distinct: bool = False) -> list[int]:
    """The positions 0..n-1 of keys listed from the lowest up: the one sort
    of a point, shared by :func:`rank_permutation` and :func:`locate_tree`.
    Each adjacent pair of the order is scanned for a tie, which raises
    TiedCoordinates, unless the caller has shown the keys pairwise
    distinct already (`distinct`)."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if not distinct:
        for a, b in zip(order, order[1:]):
            if keys[a] == keys[b]:
                raise TiedCoordinates(
                    f"coordinates {a + 1} and {b + 1} are equal; the point lies on a wall"
                )
    return order


def rank_permutation(x: Sequence) -> tuple[int, ...]:
    """sigma with sigma(i) the position of x_i in increasing order.

    x may hold any mutually comparable values.  Raises TiedCoordinates when
    two coordinates are equal.
    """
    return _ranking(_height_order(x))


def _floors(point: Sequence[Fraction]) -> list[int]:
    """floor(2**64 * x_i) of each coordinate of a point of Fractions, read
    through one as_integer_ratio call per coordinate."""
    return [(a << _KEY_BITS) // b for a, b in map(Fraction.as_integer_ratio, point)]


def _sort_keys(point: Sequence[Fraction]) -> Sequence:
    """The point's sort keys: the floors (:func:`_floors`) as a list when
    they are pairwise distinct, else the pairs (floor(2**64 * x_i), x_i) as
    a tuple.  The floor of an increasing map is monotone, so distinct floors
    order the point exactly as x does, and the pairs compare and tie exactly
    as the x_i do.  A Fraction is compared or hashed only when two floors
    tie; either way the keys are distinct exactly when the x_i are.
    Nothing is rounded."""
    floors = _floors(point)
    if len(set(floors)) == len(floors):
        return floors
    return tuple(zip(floors, point))


def locate_tree(x: Sequence, epsilon: Sequence[int]) -> MixedCobinaryTree:
    """The unique tree whose open region contains x, built from one sort of
    the point's sort keys (:func:`_sort_keys`), the bare floors unless two
    of them tie, and certified on those keys.  Only the pairs are scanned
    for a tie: distinct floors already show distinct coordinates.  Error
    messages are built from the Fractions."""
    point = as_region_point(x)
    if len(point) != len(epsilon):
        raise ValueError("point and sign sequence must have equal length")
    keyed = _sort_keys(point)
    order = _height_order(keyed, distinct=type(keyed) is list)
    tree = _tree_from_order(order, as_sign_sequence(epsilon))
    if not _contains(tree, keyed):
        k, p, q, slope = next(
            (k, p, q, slope)
            for k, (p, q, slope) in enumerate(tree.edge_triples(), 1)
            if slope * (point[q - 1] - point[p - 1]) <= 0
        )
        raise VerificationFailed(
            f"tree located for x={tuple(x)} misses x: edge {k} (p={p}, q={q}, "
            f"slope={slope}) has slope*(x_q - x_p) <= 0"
        )
    return tree


def _moved(
    tree: MixedCobinaryTree, a: int, b: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """(label, far endpoint) of the edges that crossing the wall of an edge
    from its lower endpoint a up to b moves, as (down, up); label 0 where
    there is none.

    Down fills b's parent slot on a's side and up fills a's child slot on
    b's side.
    """
    sign_a, sign_b = tree.epsilon[a - 1], tree.epsilon[b - 1]
    down_slot = slot_name(sign_b, b, a, True)
    up_slot = slot_name(sign_a, a, b, False)
    down = up = (0, 0)
    for label, (p, q, slope) in enumerate(tree.edge_triples(), 1):
        lower, upper = (p, q) if slope == 1 else (q, p)
        if lower == b and slot_name(sign_b, b, upper, True) == down_slot:
            down = (label, upper)
        elif upper == a and slot_name(sign_a, a, lower, False) == up_slot:
            up = (label, lower)
    return down, up


def mutate(tree: MixedCobinaryTree, k: int) -> MixedCobinaryTree:
    """Cross the wall of edge k.

    With a the lower and b the upper endpoint of edge k: the edge in b's
    parent slot on a's side (if any) moves down to a, the edge in a's child
    slot on b's side (if any) moves up to b, and edge k's slope flips.  Edge
    labels are preserved, and mutating twice at the same label is the
    identity.
    """
    p, q, slope = tree.edge_triple(k)
    a, b = (p, q) if slope == 1 else (q, p)
    (down, top), (up, bottom) = _moved(tree, a, b)
    flat = list(tree.flat)
    flat[3 * k - 1] = -slope
    for j, lower, upper in ((down, a, top), (up, bottom, b)):
        if j:
            flat[3 * j - 3 : 3 * j] = (
                (lower, upper, 1) if lower < upper else (upper, lower, -1)
            )
    return _tree_from_flat(tree.epsilon, flat)


def mutation_sequence(
    tree: MixedCobinaryTree, ks: Sequence[int]
) -> MixedCobinaryTree:
    """Left-to-right composition of mutations."""
    for k in ks:
        tree = mutate(tree, k)
    return tree
