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
    make_tree,
    slot_name,
    tree_from_permutation,
)

RegionPoint = tuple[Fraction, ...]
_EXACT_TYPES = frozenset((int, Fraction))
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
    return tuple(c if type(c) is Fraction else _rational(c) for c in coords)


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


def c_vector(tree: MixedCobinaryTree, k: int) -> tuple[int, ...]:
    """slope * (e_p + ... + e_{q-1}) for edge k."""
    return _block_vector(tree.n, *tree.edge_triple(k))


def c_matrix(tree: MixedCobinaryTree) -> CMatrix:
    """Column k is c_vector(tree, k), read straight off the tree's edge
    triples, which the tree validated when it was built."""
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
    (>= 0 for the closed region when strict is False).  A coordinate that
    is not an int or a Fraction is read through :func:`as_region_point`, so
    a float, a bool or a string that is not a rational raises ValueError."""
    if len(x) != tree.n:
        raise ValueError(f"point has length {len(x)}, tree has {tree.n} nodes")
    # Ints and Fractions are exact as they are; converting ints to Fractions
    # would only make each comparison slower.
    if not _EXACT_TYPES.issuperset(map(type, x)):
        x = as_region_point(x)
    return _contains(tree, x, strict)


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


def rank_permutation(x: Sequence) -> tuple[int, ...]:
    """sigma with sigma(i) the position of x_i in increasing order.

    x may hold any mutually comparable values; :func:`locate_tree` passes
    the point's sort keys (:func:`_sort_keys`), which sort exactly as x does.
    Raises TiedCoordinates when two coordinates are equal.
    """
    order = sorted(range(len(x)), key=x.__getitem__)
    for a, b in zip(order, order[1:]):
        if x[a] == x[b]:
            raise TiedCoordinates(
                f"coordinates {a + 1} and {b + 1} are equal; the point lies on a wall"
            )
    return _ranking(order)


def _floors(point: Sequence[Fraction]) -> list[int]:
    """floor(2**64 * x_i) of each coordinate of a point of Fractions, read
    through one as_integer_ratio call per coordinate."""
    return [(a << _KEY_BITS) // b for a, b in map(Fraction.as_integer_ratio, point)]


def _keys(point: Sequence[Fraction]) -> tuple[tuple[int, Fraction], ...]:
    """The pairs (floor(2**64 * x_i), x_i) of a point of Fractions, the one
    key by which rational coordinates are compared.  The floor of an
    increasing map is monotone, so the pairs compare exactly as the x_i do
    and are equal exactly when the x_i are.  Coordinates at least 2**-64
    apart are told apart by the integers alone; only closer ones compare
    their Fractions.  Nothing is rounded."""
    return tuple(zip(_floors(point), point))


def _sort_keys(point: Sequence[Fraction]) -> Sequence:
    """The floors (:func:`_floors`) when they are pairwise distinct, else the
    pairs (:func:`_keys`).  Distinct floors already order the point exactly
    as its coordinates, so a Fraction is compared or hashed only when two
    floors tie.  Either way the keys are distinct exactly when the x_i are."""
    floors = _floors(point)
    if len(set(floors)) == len(floors):
        return floors
    return tuple(zip(floors, point))


def locate_tree(x: Sequence, epsilon: Sequence[int]) -> MixedCobinaryTree:
    """The unique tree whose open region contains x, ranked and certified on
    the point's sort keys (:func:`_sort_keys`), the bare floors unless two
    of them tie.  Error messages are built from the Fractions."""
    point = as_region_point(x)
    if len(point) != len(epsilon):
        raise ValueError("point and sign sequence must have equal length")
    keyed = _sort_keys(point)
    tree = tree_from_permutation(rank_permutation(keyed), epsilon)
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
