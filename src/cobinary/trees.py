"""Mixed cobinary trees: validation, reconstruction, and enumeration.

A mixed cobinary tree has n internal nodes at x-positions 1..n.  Node i is
either a fork-down node (two children, one parent; sign +1) or a fork-up
node (one child, two parents; sign -1), recorded in the sign sequence
epsilon.  The n-1 internal edges carry a stable label 1..n-1, store their
endpoints p < q, and a slope sign: +1 means node p sits below node q.

Two facts drive everything in this module:

* The edge slopes order the nodes by height, and every linear extension of
  that order realizes the tree.  Conversely each permutation of heights is
  realized by exactly one tree, and the reconstruction is effective:
  insert the nodes from the lowest up, tracking where the open parent
  slots sit relative to the vertical walls rising from the fork-up nodes.

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
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import ArityViolation, CyclicHeights, NotATree, WallViolation

SignSequence = tuple[int, ...]
Permutation = tuple[int, ...]
EdgeTriple = tuple[int, int, int]  # (p, q, slope)


def as_sign_sequence(entries: Sequence[int]) -> SignSequence:
    eps = tuple(map(int, entries))
    if len(eps) < 1:
        raise ValueError("sign sequence must have length at least 1")
    if not {1, -1}.issuperset(eps):
        raise ValueError(f"sign sequence entries must be +-1, got {eps}")
    return eps


def as_permutation(values: Sequence[int]) -> Permutation:
    sigma = tuple(int(x) for x in values)
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


def _labelled(triples: Iterable[EdgeTriple]) -> tuple[SignedEdge, ...]:
    """Edges labelled in order: edge i + 1 carries the i-th triple."""
    return tuple(SignedEdge(i + 1, p, q, s) for i, (p, q, s) in enumerate(triples))


@dataclass(frozen=True)
class MixedCobinaryTree:
    """n signed nodes plus n-1 labelled signed edges, stored in label order.

    Construction performs only cheap structural checks; full validity (the
    wall conditions) is enforced by :func:`make_tree`.

    `==`, `hash` and `<` compare `canonical_key`: n, epsilon and the sorted
    triples in one flat tuple, computed on first use and kept in `__dict__`.
    """

    n: int
    epsilon: SignSequence
    edges: tuple[SignedEdge, ...]

    def __post_init__(self) -> None:
        eps = as_sign_sequence(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if self.n != len(eps):
            raise ValueError(f"n={self.n} but sign sequence has length {len(eps)}")
        edges = tuple(sorted(self.edges, key=lambda e: e.index))
        object.__setattr__(self, "edges", edges)
        if [e.index for e in edges] != list(range(1, self.n)):
            raise ValueError("edge labels must be exactly 1..n-1")
        if any(e.q > self.n for e in edges):
            raise ValueError("edge endpoint out of range")
        pairs = {(e.p, e.q) for e in edges}
        if len(pairs) != len(edges):
            raise NotATree("duplicate edge between the same pair of nodes")

    def edge(self, k: int) -> SignedEdge:
        if not 1 <= k <= self.n - 1:
            raise IndexError(f"edge label {k} out of range 1..{self.n - 1}")
        return self.edges[k - 1]

    @property
    def triples(self) -> tuple[EdgeTriple, ...]:
        """Edge triples sorted by (p, q); the canonical identity of the tree."""
        return tuple(sorted(e.triple for e in self.edges))

    @cached_property
    def canonical_key(self) -> tuple:
        return (self.n, self.epsilon, tuple(x for t in self.triples for x in t))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedCobinaryTree):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def __lt__(self, other: "MixedCobinaryTree") -> bool:
        return self.canonical_key < other.canonical_key

    def relabelled(self, triples: Sequence[EdgeTriple]) -> "MixedCobinaryTree":
        """Same tree with edge i carrying the i-th triple of `triples`."""
        if sorted(triples) != list(self.triples):
            raise ValueError("relabelling must preserve the edge set")
        return MixedCobinaryTree(self.n, self.epsilon, _labelled(triples))


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

    def internal_count(self) -> int:
        return sum(self.shape())


def catalan(n: int) -> int:
    """The n-th Catalan number, exactly.  C_0 = 1 by convention.

    Python integers are arbitrary precision, so the result can never wrap;
    there is no overflow to detect.
    """
    if n < 0:
        raise ValueError(f"catalan number undefined for n={n}")
    return comb(2 * n, n) // (n + 1)


def _tree_from_triples(
    epsilon: Sequence[int], triples: Iterable[EdgeTriple]
) -> MixedCobinaryTree:
    """Build a tree assigning canonical labels: edges sorted by (p, q)."""
    return MixedCobinaryTree(len(epsilon), tuple(epsilon), _labelled(sorted(triples)))


# ---------------------------------------------------------------------------
# Reconstruction from a height order
# ---------------------------------------------------------------------------


def _find(parent: list[int], v: int) -> int:
    """The root of v in a union-find forest, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def tree_from_permutation(
    sigma: Sequence[int], epsilon: Sequence[int]
) -> MixedCobinaryTree:
    """The unique tree realized by placing node i at height sigma(i).

    Inserts the nodes from the lowest up.  The fork-down nodes not yet
    placed cut 1..n into segments, and each segment holds the partial tree
    on its placed nodes: the left-to-right list of open parent slots (by
    owning node) and the sorted positions of its walls.  A fork-up node k
    attaches its child edge to the one open parent slot between the walls
    bracketing position k, and opens a parent slot on each side of its own
    wall.  A fork-down node k joins the segments on its left and right: its
    children take the rightmost open parent slot on the left and the
    leftmost on the right, and its own parent slot opens between them.
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
    triples: list[EdgeTriple] = []
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
    return _tree_from_triples(eps, triples)


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


def _tree_slopes(tree: MixedCobinaryTree) -> Iterator[tuple[int, int]]:
    return ((e.lower, e.upper) for e in tree.edges)


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
    sigma = [0] * tree.n
    order = smallest_first_order(range(1, tree.n + 1), _tree_slopes(tree))
    for rank, v in enumerate(order, start=1):
        sigma[v - 1] = rank
    return tuple(sigma)


def permutations_of(tree: MixedCobinaryTree) -> set[Permutation]:
    """All height permutations realizing the tree: the linear extensions of
    the slope order, with sigma(p) < sigma(q) on every upward edge."""
    succ, indegree = _slope_graph(range(1, tree.n + 1), _tree_slopes(tree))
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
    for e in tree.edges:
        for v, other in ((e.p, e.q), (e.q, e.p)):
            table[v][slot_name(eps[v - 1], v, other, other == e.upper)].append(other)
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
    is checked operationally: the edge set must reproduce itself when the
    tree is rebuilt from any one linear extension of its slope order.
    """
    eps = as_sign_sequence(epsilon)
    edge_list = list(edges)
    if edge_list and not isinstance(edge_list[0], SignedEdge):
        edge_list = list(_labelled(sorted(map(tuple, edge_list))))
    _check_spanning_tree(len(eps), edge_list)  # type: ignore[arg-type]
    tree = MixedCobinaryTree(len(eps), eps, tuple(edge_list))  # type: ignore[arg-type]
    _slot_table(tree)
    sigma = linear_extension(tree)
    rebuilt = tree_from_permutation(sigma, eps)
    if rebuilt.triples != tree.triples:
        raise WallViolation(
            "edge set admits no planar embedding: height order "
            f"{sigma} reconstructs {rebuilt.triples} instead"
        )
    return tree


def initial_tree(epsilon: Sequence[int]) -> MixedCobinaryTree:
    """The staircase tree realized only by the identity height order."""
    return _tree_from_triples(epsilon, [(i, i + 1, 1) for i in range(1, len(epsilon))])


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
    # One n and one epsilon: the sorted triples alone give the canonical order.
    ordered = sorted(tuple(sorted(edges)) for edges, _, _ in states)
    return [_tree_from_triples(eps, triples) for triples in ordered]


def sign_sequences(n: int) -> Iterator[SignSequence]:
    """All 2^n sign sequences of length n, in lexicographic (-1 first) order."""
    if n == 0:
        yield ()
        return
    for rest in sign_sequences(n - 1):
        yield (-1,) + rest
        yield (1,) + rest


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------


def flip_horizontal(tree: MixedCobinaryTree) -> MixedCobinaryTree:
    """Mirror through a horizontal axis: all signs and slopes negate."""
    return MixedCobinaryTree(
        tree.n,
        tuple(-s for s in tree.epsilon),
        tuple(SignedEdge(e.index, e.p, e.q, -e.slope) for e in tree.edges),
    )


def reverse_tree(tree: MixedCobinaryTree) -> MixedCobinaryTree:
    """Mirror through a vertical axis: node i goes to n+1-i, slopes negate.

    Edge labels travel with their edges.
    """
    n = tree.n
    return MixedCobinaryTree(
        n,
        tuple(reversed(tree.epsilon)),
        tuple(
            SignedEdge(e.index, n + 1 - e.q, n + 1 - e.p, -e.slope)
            for e in tree.edges
        ),
    )


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
    """All full binary trees with n internal nodes (None is a single leaf)."""
    if n == 0:
        return [None]
    out: list[BinaryTree | None] = []
    for i in range(n):
        for left in binary_trees(i):
            for right in binary_trees(n - 1 - i):
                out.append(BinaryTree(left, right))
    return out

