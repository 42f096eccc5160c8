"""Mixed cobinary trees: validation, reconstruction, and enumeration.

A mixed cobinary tree has n internal nodes at x-positions 1..n.  Node i is
either a fork-down node (two children, one parent; sign +1) or a fork-up
node (one child, two parents; sign -1), recorded in the sign sequence
epsilon.  The n-1 internal edges carry a stable label 1..n-1, store their
endpoints p < q, and a slope sign: +1 means node p sits below node q.
A tree stores its edges as one flat int tuple, (p, q, slope) per edge in
label order, checked by one routine however the tree is built; the
SignedEdge values it hands out are views built from that tuple on demand.

Two facts drive everything in this module:

* The edge slopes order the nodes by height, and every linear extension of
  that order realizes the tree.  Conversely each permutation of heights is
  realized by exactly one tree, and the reconstruction is effective:
  insert the nodes from the lowest up on one sorted list of the walls that
  cross the current height (the vertical walls hanging from the fork-down
  nodes not yet placed and rising from the fork-up nodes already placed).
  Each cell between two walls holds one open parent slot, so the pass in
  height order places each node by one bisection and one list edit: O(log n)
  comparisons and a memmove of up to n pointers.

* For a fixed sign sequence there are Catalan-many trees, generated by a
  recursion on the rightmost node: its removal splits the tree into an
  "upper" and a "lower" part whose vertex sets are forced once their sizes
  are chosen, and reassembly is unique.  Mirroring through a horizontal
  axis negates every sign and slope and swaps child and parent slots, so
  one joining rule serves both signs: each part lists its open slots on
  the side where the joining node forks, then those on the other side.

Trees compare equal when they have the same sign sequence and the same set
of (p, q, slope) triples; edge labels and embeddings are not part of the
identity.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, product
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import ArityViolation, CyclicHeights, NotATree, WallViolation
from .linalg import as_ints

SignSequence = tuple[int, ...]
Permutation = tuple[int, ...]
EdgeTriple = tuple[int, int, int]  # (p, q, slope)


def as_sign_sequence(entries: Sequence[int]) -> SignSequence:
    eps = as_ints(entries)
    if len(eps) < 1:
        raise ValueError("sign sequence must have length at least 1")
    if not {1, -1}.issuperset(eps):
        raise ValueError(f"sign sequence entries must be +-1, got {eps}")
    return eps


def as_permutation(values: Sequence[int]) -> Permutation:
    sigma = as_ints(values)
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{len(sigma)}")
    return sigma


@dataclass(frozen=True, order=True, slots=True)
class SignedEdge:
    """Internal edge with stable label `index`, endpoints p < q, and slope."""

    index: int
    p: int
    q: int
    slope: int

    def __post_init__(self) -> None:
        as_ints((self.index, self.p, self.q, self.slope))
        if not 1 <= self.p < self.q:
            raise ValueError(f"need 1 <= p < q, got ({self.p}, {self.q})")
        if self.slope not in (1, -1):
            raise ValueError(f"slope must be +-1, got {self.slope}")

    @property
    def triple(self) -> EdgeTriple:
        return (self.p, self.q, self.slope)

    @property
    def lower(self) -> int:
        """Endpoint that lies below the other."""
        return self.p if self.slope == 1 else self.q

    @property
    def upper(self) -> int:
        return self.q if self.slope == 1 else self.p


class MixedCobinaryTree:
    """n signed nodes plus n-1 labelled signed edges, stored as one flat
    int tuple `flat`: (p, q, slope) of edge 1, then of edge 2, and so on.

    `edges` builds SignedEdge views of that tuple on each call; the views
    are not kept.  Construction performs only cheap structural checks, in
    one routine whichever way the tree is built; full validity (the wall
    conditions) is enforced by :func:`make_tree`.

    `==`, `hash` and `<` compare `canonical_key`: n, epsilon and the sorted
    triples in one flat tuple, computed on first use and kept.  Instances
    are immutable.
    """

    __slots__ = ("n", "epsilon", "flat", "_key")

    def __init__(
        self, n: int, epsilon: Sequence[int], edges: Iterable[SignedEdge]
    ) -> None:
        eps = as_sign_sequence(epsilon)
        as_ints((n,))
        if n != len(eps):
            raise ValueError(f"n={n} but sign sequence has length {len(eps)}")
        edges = tuple(edges)
        for e in edges:
            if not isinstance(e, SignedEdge):
                raise TypeError(f"edges must be SignedEdge values, got {e!r}")
        edges = sorted(edges, key=lambda e: e.index)
        if [e.index for e in edges] != list(range(1, n)):
            raise ValueError("edge labels must be exactly 1..n-1")
        self._store(eps, chain.from_iterable(e.triple for e in edges))

    def _store(self, eps: SignSequence, flat: Iterable[int]) -> None:
        """Check and keep the flat edge tuple: 3(n-1) ints with
        1 <= p < q <= n, slope +-1 and no two edges on the same pair."""
        n = len(eps)
        flat = as_ints(flat)
        if len(flat) != 3 * (n - 1):
            raise ValueError(f"need {3 * (n - 1)} entries for {n} nodes, got {len(flat)}")
        ps, qs = flat[0::3], flat[1::3]
        for p, q, s in zip(ps, qs, flat[2::3]):
            if not 1 <= p < q:
                raise ValueError(f"need 1 <= p < q, got ({p}, {q})")
            if q > n:
                raise ValueError("edge endpoint out of range")
            if s != 1 and s != -1:
                raise ValueError(f"slope must be +-1, got {s}")
        if len(set(zip(ps, qs))) != n - 1:
            raise NotATree("duplicate edge between the same pair of nodes")
        put = object.__setattr__
        put(self, "n", n)
        put(self, "epsilon", eps)
        put(self, "flat", flat)
        put(self, "_key", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _tree_from_flat, (self.epsilon, self.flat)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(n={self.n!r}, "
            f"epsilon={self.epsilon!r}, edges={self.edges!r})"
        )

    def edge_triples(self) -> Iterator[EdgeTriple]:
        """(p, q, slope) of each edge, in label order."""
        entries = iter(self.flat)
        return zip(entries, entries, entries)

    def height_pairs(self) -> Iterator[tuple[int, int]]:
        """(lower, upper) endpoints of each edge, in label order."""
        return ((p, q) if s == 1 else (q, p) for p, q, s in self.edge_triples())

    @property
    def edges(self) -> tuple[SignedEdge, ...]:
        return tuple(SignedEdge(i, *t) for i, t in enumerate(self.edge_triples(), 1))

    def edge_triple(self, k: int) -> EdgeTriple:
        """(p, q, slope) of edge k."""
        as_ints((k,))
        if not 1 <= k <= self.n - 1:
            raise IndexError(f"edge label {k} out of range 1..{self.n - 1}")
        return self.flat[3 * k - 3 : 3 * k]  # type: ignore[return-value]

    @property
    def triples(self) -> tuple[EdgeTriple, ...]:
        """Edge triples sorted by (p, q); the canonical identity of the tree."""
        return tuple(sorted(self.edge_triples()))

    @property
    def canonical_key(self) -> tuple:
        key = self._key
        if key is None:
            flat = self.flat
            ordered = tuple(chain.from_iterable(sorted(self.edge_triples())))
            # A tree labelled in (p, q) order shares its flat tuple.
            key = (self.n, self.epsilon, flat if ordered == flat else ordered)
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedCobinaryTree):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, MixedCobinaryTree):
            return NotImplemented
        return self.canonical_key < other.canonical_key

    def relabelled(self, triples: Sequence[EdgeTriple]) -> "MixedCobinaryTree":
        """Same tree with edge i carrying the i-th triple of `triples`."""
        if sorted(triples) != list(self.triples):
            raise ValueError("relabelling must preserve the edge set")
        return _tree_from_flat(self.epsilon, chain.from_iterable(triples))


def _tree_from_flat(epsilon: Sequence[int], flat: Iterable[int]) -> MixedCobinaryTree:
    """Build a tree from its flat edge tuple, through the same checks as the
    public constructor."""
    tree = object.__new__(MixedCobinaryTree)
    tree._store(as_sign_sequence(epsilon), flat)
    return tree


@dataclass(frozen=True, eq=False)
class BinaryTree:
    """Internal node of an ordinary full binary tree; a leaf is None.

    `==` and `hash` compare `shape()`, so they work at any depth.
    """

    left: "BinaryTree | None" = None
    right: "BinaryTree | None" = None

    def shape(self) -> tuple[bool, ...]:
        """Preorder walk, True at an internal node and False at a leaf: the
        structural identity of the tree."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append(node is not None)
            stack += (node.right, node.left) if node else ()
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryTree):
            return NotImplemented
        return self.shape() == other.shape()

    def __hash__(self) -> int:
        return hash(self.shape())


def catalan(n: int) -> int:
    """The n-th Catalan number, exactly.  C_0 = 1 by convention.

    Python integers are arbitrary precision, so the result can never wrap;
    there is no overflow to detect.
    """
    as_ints((n,))
    if n < 0:
        raise ValueError(f"catalan number undefined for n={n}")
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# Reconstruction from a height order
# ---------------------------------------------------------------------------


def _ranking(order: Sequence[int], start: int = 1) -> Permutation:
    """The ranking sigma with sigma[order[r]] = r + start: the heights,
    from `start`, of the 0-based positions that `order` lists from the
    lowest up.  The one inverse of a permutation in the library."""
    sigma = [0] * len(order)
    for rank, i in enumerate(order, start):
        sigma[i] = rank
    return tuple(sigma)


def tree_from_permutation(
    sigma: Sequence[int], epsilon: Sequence[int]
) -> MixedCobinaryTree:
    """The unique tree realized by placing node i at height sigma(i).

    Reads sigma and epsilon, checks that their lengths agree, and hands the
    nodes from the lowest up to :func:`_tree_from_order`, the one builder.
    """
    eps = as_sign_sequence(epsilon)
    perm = as_permutation(sigma)
    if len(perm) != len(eps):
        raise ValueError("permutation and sign sequence must have equal length")
    return _tree_from_order(_ranking([h - 1 for h in perm], 0), eps)


def _tree_from_order(order: Iterable[int], eps: SignSequence) -> MixedCobinaryTree:
    """The tree realized by the 0-based positions 0..n-1 that `order` lists
    from the lowest up (position k is node k + 1), for a sign sequence that
    has been read already.  Every tree it builds goes through the flat
    tuple's one check.

    Inserts the nodes from the lowest up on one sorted list of the walls
    that cross the current height: the fork-down nodes not yet placed, the
    fork-up nodes already placed, and sentinels 0 and n + 1.  Each cell
    between two walls holds one open parent slot, and owner[w] names the
    node owning the cell right of wall w (0 while it is empty).  Node k
    finds its left wall w by one bisection.  A fork-down node k deletes
    itself from the list: its children own the cells on either side, and it
    owns the merged cell.  A fork-up node k inserts itself after w: its
    child owns the cell it splits, and it owns both halves.  Each list edit
    shifts the tail of the list, so a node costs O(log n) comparisons and a
    memmove of up to n pointers.
    """
    n = len(eps)
    walls = [0, *[k for k, s in zip(range(1, n + 1), eps) if s == 1], n + 1]
    owner = [0] * (n + 2)
    edges = []
    for k in order:
        k += 1
        i = bisect_left(walls, k)
        w = walls[i - 1]
        child = owner[w]
        if eps[k - 1] == 1:
            del walls[i]
            if child:
                edges.append((child, k, 1))
            child = owner[k]
            if child:
                edges.append((k, child, -1))
            owner[w] = k
        else:
            walls.insert(i, k)
            if child:
                edges.append((child, k, 1) if child < k else (k, child, -1))
            owner[w] = owner[k] = k
    edges.sort()
    tree = object.__new__(MixedCobinaryTree)
    tree._store(eps, chain.from_iterable(edges))
    return tree


def _slope_graph(
    nodes: Iterable[int], slopes: Iterable[tuple[int, int]]
) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Successor lists and indegrees of the height order on `nodes` given by
    (lower, upper) pairs."""
    succ: dict[int, list[int]] = {v: [] for v in nodes}
    indegree = dict.fromkeys(succ, 0)
    for lower, upper in slopes:
        succ[lower].append(upper)
        indegree[upper] += 1
    return succ, indegree


def smallest_first_order(
    nodes: Iterable[int], slopes: Iterable[tuple[int, int]]
) -> list[int]:
    """The linear extension of the height order given by (lower, upper)
    pairs that always places the smallest ready node next."""
    succ, indegree = _slope_graph(nodes, slopes)
    ready = [v for v, d in indegree.items() if d == 0]
    heapify(ready)
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for u in succ[v]:
            indegree[u] -= 1
            if indegree[u] == 0:
                heappush(ready, u)
    if len(order) != len(succ):
        raise CyclicHeights("edge slopes admit no linear extension")
    return order


def linear_extension(tree: MixedCobinaryTree) -> Permutation:
    """One permutation realizing the tree (smallest-node-first extension)."""
    order = smallest_first_order(range(1, tree.n + 1), tree.height_pairs())
    return _ranking([v - 1 for v in order])


def permutations_of(tree: MixedCobinaryTree) -> set[Permutation]:
    """All height permutations realizing the tree: the linear extensions of
    the slope order, with sigma(p) < sigma(q) on every upward edge."""
    succ, indegree = _slope_graph(range(1, tree.n + 1), tree.height_pairs())
    sigma = [0] * tree.n
    found: set[Permutation] = set()
    # One frame per rank: the nodes ready at that rank and how many have been
    # tried.  Moving on to the next node takes back the last one's release.
    frames = [([v for v, d in indegree.items() if d == 0], 0)]
    while frames:
        ready, tried = frames.pop()
        if tried:
            for u in succ[ready[tried - 1]]:
                indegree[u] += 1
        if tried == len(ready):
            continue
        frames.append((ready, tried + 1))
        v = ready[tried]
        sigma[v - 1] = len(frames)
        opened = []
        for u in succ[v]:
            indegree[u] -= 1
            if indegree[u] == 0:
                opened.append(u)
        if len(frames) == tree.n:
            found.add(tuple(sigma))
        else:
            frames.append((ready[:tried] + ready[tried + 1 :] + opened, 0))
    return found


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _find(parent: list[int], v: int) -> int:
    """The root of v in a union-find forest, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _check_spanning_tree(n: int, edges: Sequence[SignedEdge]) -> None:
    if len(edges) != n - 1:
        raise NotATree(f"need {n - 1} edges for {n} nodes, got {len(edges)}")
    parent = list(range(n + 1))
    for e in edges:
        if e.q > n:
            raise ValueError("edge endpoint out of range")
        a, b = _find(parent, e.p), _find(parent, e.q)
        if a == b:
            raise NotATree(f"edge ({e.p}, {e.q}) closes a cycle")
        parent[a] = b


# Slots of a node by sign, in the order the arity check reports them.  Two
# occupants of a side slot could not be separated by the node's wall.
_SLOTS = {
    1: ("parent", "left child", "right child"),
    -1: ("child", "left parent", "right parent"),
}


def slot_name(sign: int, v: int, other: int, other_above: bool) -> str:
    """The slot of node v (with the given sign) that neighbour `other` fills.

    A fork-down node has one parent slot and one child slot per side; a
    fork-up node has one child slot and one parent slot per side.
    """
    if sign == 1:
        if other_above:
            return "parent"
        return "left child" if other < v else "right child"
    if other_above:
        return "left parent" if other < v else "right parent"
    return "child"


def _slot_table(tree: MixedCobinaryTree) -> dict[int, dict[str, list[int]]]:
    """Per node and slot, the list of neighbours filling it (at most one).

    Raises ArityViolation for the first overfull slot, nodes ascending.
    """
    eps = tree.epsilon
    table = {v: {name: [] for name in _SLOTS[s]} for v, s in enumerate(eps, 1)}
    for lower, upper in tree.height_pairs():
        for v, other in ((lower, upper), (upper, lower)):
            table[v][slot_name(eps[v - 1], v, other, other == upper)].append(other)
    for v, slots in table.items():
        for name, found in slots.items():
            if len(found) > 1:
                raise ArityViolation(
                    f"node {v} (sign {eps[v - 1]:+d}) has {len(found)} "
                    f"edges in its {name} slot"
                )
    return table


def make_tree(
    epsilon: Sequence[int],
    edges: Iterable[SignedEdge | EdgeTriple],
) -> MixedCobinaryTree:
    """Validate and build a tree from a sign sequence and signed edges.

    Edges may be SignedEdge values (their labels are kept) or bare
    (p, q, slope) triples (labels are assigned in (p, q) order).  Validity
    is checked operationally: the edge set must reproduce itself when
    :func:`_tree_from_order` rebuilds the tree from one linear extension of
    its slope order (:func:`smallest_first_order`).
    """
    eps = as_sign_sequence(epsilon)
    edge_list = list(edges)
    kinds = {isinstance(e, SignedEdge) for e in edge_list}
    if len(kinds) > 1:
        raise ValueError(
            "edges must be all SignedEdge values or all (p, q, slope) triples"
        )
    if kinds == {False}:
        triples = sorted(map(tuple, edge_list))
        edge_list = [SignedEdge(i, p, q, s) for i, (p, q, s) in enumerate(triples, 1)]
    _check_spanning_tree(len(eps), edge_list)  # type: ignore[arg-type]
    tree = MixedCobinaryTree(len(eps), eps, tuple(edge_list))  # type: ignore[arg-type]
    _slot_table(tree)
    order = smallest_first_order(range(1, tree.n + 1), tree.height_pairs())
    rebuilt = _tree_from_order([v - 1 for v in order], eps)
    if rebuilt != tree:
        raise WallViolation(
            "edge set admits no planar embedding: height order "
            f"{linear_extension(tree)} reconstructs {rebuilt.triples} instead"
        )
    return tree


def initial_tree(epsilon: Sequence[int]) -> MixedCobinaryTree:
    """The staircase tree realized only by the identity height order."""
    flat = chain.from_iterable((i, i + 1, 1) for i in range(1, len(epsilon)))
    return _tree_from_flat(epsilon, flat)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

# State of a partially built tree, oriented for the node of sign s that
# joins it: edge triples, then the owners of its open slots (left to right)
# facing the side where sign s forks, then of those facing away from it.
_EnumState = tuple[tuple[EdgeTriple, ...], tuple[int, ...], tuple[int, ...]]


def _enumerate_states(
    nodes: tuple[int, ...],
    sign: int,
    eps: SignSequence,
    memo: dict[tuple[tuple[int, ...], int], tuple[_EnumState, ...]],
) -> tuple[_EnumState, ...]:
    if not nodes:
        return (((), (), ()),)
    key = (nodes, sign)
    if key in memo:
        return memo[key]
    m = nodes[-1]
    s = eps[m - 1]
    rest = nodes[:-1]
    # Order in which the remaining nodes are forced into the part reached
    # through node m's rightward slot, as its size grows.
    chain = [v for v in reversed(rest) if eps[v - 1] != s]
    chain += [v for v in rest if eps[v - 1] == s]
    out: list[_EnumState] = []
    for i in range(len(rest) + 1):
        upper_set = frozenset(chain[:i])
        upper = tuple(sorted(upper_set))
        lower = tuple(v for v in rest if v not in upper_set)
        for e_u, fork_u, away_u in _enumerate_states(upper, s, eps, memo):
            for e_d, fork_d, away_d in _enumerate_states(lower, s, eps, memo):
                # m's unforked slot takes the upper part's rightmost open slot
                # facing the fork, its left fork slot the lower part's
                # rightmost facing away; its right fork slot stays open.
                edges = e_u + e_d
                if upper:
                    edges += ((fork_u[-1], m, -s),)
                if lower:
                    edges += ((away_d[-1], m, s),)
                fork = fork_u[:-1] + (fork_d + (m,) if lower else (m, m))
                away = away_d[:-1] + (away_u if upper else (m,))
                out.append((edges, fork, away))
    memo[nodes, s] = tuple(out)
    # A node of the other sign sees the horizontal mirror: the sides swap.
    memo[nodes, -s] = tuple((edges, away, fork) for edges, fork, away in out)
    return memo[key]


def enumerate_trees(epsilon: Sequence[int]) -> list[MixedCobinaryTree]:
    """All trees with the given sign sequence, in canonical order.

    The count is always the Catalan number of the length of `epsilon`.
    """
    eps = as_sign_sequence(epsilon)
    states = _enumerate_states(tuple(range(1, len(eps) + 1)), eps[-1], eps, {})
    # One n and one epsilon: the sorted triples alone give the canonical
    # order, and comparing them flattened compares them triple by triple.
    ordered = sorted(tuple(chain.from_iterable(sorted(edges))) for edges, _, _ in states)
    return [_tree_from_flat(eps, flat) for flat in ordered]


def sign_sequences(n: int) -> Iterator[SignSequence]:
    """All 2^n sign sequences of length n.  The first sign turns fastest,
    -1 before 1: (-1, -1), (1, -1), (-1, 1), (1, 1)."""
    as_ints((n,))
    return (s[::-1] for s in product((-1, 1), repeat=n))


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------


def flip_horizontal(tree: MixedCobinaryTree) -> MixedCobinaryTree:
    """Mirror through a horizontal axis: all signs and slopes negate."""
    flat = list(tree.flat)
    flat[2::3] = [-s for s in flat[2::3]]
    return _tree_from_flat(tuple(-s for s in tree.epsilon), flat)


def reverse_tree(tree: MixedCobinaryTree) -> MixedCobinaryTree:
    """Mirror through a vertical axis: node i goes to n+1-i, slopes negate.

    Edge labels travel with their edges.
    """
    n = tree.n
    flat = [(n + 1 - q, n + 1 - p, -s) for p, q, s in tree.edge_triples()]
    return _tree_from_flat(tuple(reversed(tree.epsilon)), chain.from_iterable(flat))


# ---------------------------------------------------------------------------
# The gravity bijection onto ordinary binary trees
# ---------------------------------------------------------------------------

_COUNTERCLOCKWISE = {
    1: ("parent", "left child", "right child"),
    -1: ("left parent", "child", "right parent"),
}


def gravity_map(tree: MixedCobinaryTree) -> BinaryTree:
    """Re-hang the tree from the rightmost leaf of the rightmost node.

    Every edge is re-oriented away from that leaf while the counterclockwise
    order of the three slots around each node is preserved, which turns the
    tree into an ordinary full binary tree.  For a fixed sign sequence this
    map is a bijection onto binary trees with n internal nodes.
    """
    table = _slot_table(tree)
    eps = tree.epsilon
    # Walk from the root (the loop reaches each node as it is appended),
    # noting its two children; then build the binary trees in reverse.
    walk = [(tree.n, "right child" if eps[-1] == 1 else "right parent")]
    children: dict[int, list[int | None]] = {}
    for v, entered in walk:
        if v in children:
            raise NotATree(f"the walk from node {tree.n} returns to node {v}")
        names = _COUNTERCLOCKWISE[eps[v - 1]]
        at = names.index(entered)
        children[v] = []
        for slot in names[at + 1 :] + names[:at]:
            u = table[v][slot][0] if table[v][slot] else None
            children[v].append(u)
            if u is not None:
                # u fills a parent slot of v exactly when v lies below u.
                walk.append((u, slot_name(eps[u - 1], u, v, "parent" not in slot)))
    built: dict[int, BinaryTree] = {}
    for v, _ in reversed(walk):
        left, right = (None if u is None else built.pop(u) for u in children[v])
        built[v] = BinaryTree(left, right)
    return built[tree.n]


def binary_trees(n: int) -> list[BinaryTree | None]:
    """All full binary trees with n internal nodes (None is a single leaf),
    built once per size from the smallest up; trees of one size share
    their subtrees."""
    as_ints((n,))
    if n < 0:
        return []
    by_size: list[list[BinaryTree | None]] = [[None]]
    for size in range(1, n + 1):
        by_size.append([
            BinaryTree(left, right)
            for i in range(size)
            for left in by_size[i]
            for right in by_size[size - 1 - i]
        ])
    return by_size[n]
