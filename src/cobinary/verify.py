"""Self-verification suites for one sign sequence.

Each suite re-checks one of the structural facts the library rests on:
Catalan counts, the partition of the symmetric group, agreement of tree
mutation with matrix mutation, cluster counts, the tree-cluster bijection,
the tiling of space by tree regions, wall stability, and the sign laws of
the principal exchange-matrix entries.  Everything is exact; sampling is
used only where the exhaustive sweep would not fit the requested bound,
and is driven by an explicit seed so reports are byte-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Sequence

from . import linalg
from .clusters import classical_c_matrix, enumerate_clusters
from .correspondence import (
    tree_to_cluster,
    cluster_to_tree,
    wall_stability_point,
)
from .exchange import exchange_matrix, fz_mutate, x_matrix
from .regions import _contains, _sort_keys, c_matrix, locate_tree, mutate, region_contains
from .roots import interval_vector
from .trees import (
    EdgeTriple,
    MixedCobinaryTree,
    as_sign_sequence,
    catalan,
    enumerate_trees,
    initial_tree,
    permutations_of,
    tree_from_permutation,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    count: int | None = None  # trees or clusters found, read by run_all

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"suite {self.name}: {status} ({self.detail})"


def _rng(seed: int, suite: str) -> random.Random:
    return random.Random(f"{seed}:{suite}")


def _random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def suite_trees(eps, n_max, samples, seed) -> SuiteResult:
    trees = enumerate_trees(eps)
    expected = catalan(len(eps))
    ok = len(trees) == expected and len(set(trees)) == expected
    return SuiteResult("trees", ok, f"trees={len(trees)} expected={expected}", len(trees))


def suite_perm_partition(eps, n_max, samples, seed) -> SuiteResult:
    n = len(eps)
    if n <= max(n_max, 1) and factorial(n) <= 50000:
        trees = enumerate_trees(eps)
        total = 0
        ok = True
        for tree in trees:
            fans = permutations_of(tree)
            total += len(fans)
            ok = ok and all(
                tree_from_permutation(sigma, eps) == tree for sigma in fans
            )
        ok = ok and total == factorial(n)
        return SuiteResult(
            "perm-partition", ok, f"mode=exhaustive permutations={total}"
        )
    rng = _rng(seed, "perm-partition")
    ok = True
    for _ in range(samples):
        sigma = _random_permutation(rng, n)
        tree = tree_from_permutation(sigma, eps)
        ok = ok and _contains(tree, sigma)
    return SuiteResult("perm-partition", ok, f"mode=sampled samples={samples}")


def _walls(eps, n_max, samples, rng) -> list[tuple[MixedCobinaryTree, int]]:
    """Every (tree, edge) pair when n <= n_max, else `samples` seeded draws
    of a tree (from a shuffled height order) and an edge."""
    n = len(eps)
    if n <= n_max:
        return [(tree, k) for tree in enumerate_trees(eps) for k in range(1, n)]
    return [
        (tree_from_permutation(_random_permutation(rng, n), eps),
         rng.randint(1, n - 1))
        for _ in range(samples)
    ]


def _by_tree(
    walls: Sequence[tuple[MixedCobinaryTree, int]],
) -> Iterable[tuple[MixedCobinaryTree, set[int]]]:
    """The distinct walls as (tree, set of edges), one entry per labelled
    tree: keyed by tree.flat, since tree == ignores edge labels and edge k
    does not."""
    groups: dict[tuple[int, ...], tuple[MixedCobinaryTree, set[int]]] = {}
    for tree, k in walls:
        groups.setdefault(tree.flat, (tree, set()))[1].add(k)
    return groups.values()


def _theorem2_holds(tree: MixedCobinaryTree, edges: set[int]) -> bool:
    """Mutating the tree at each edge k and its exchange matrix in
    direction k agree."""
    ex = exchange_matrix(tree)
    return all(exchange_matrix(mutate(tree, k)) == fz_mutate(ex, k) for k in edges)


def suite_theorem2(eps, n_max, samples, seed) -> SuiteResult:
    n = len(eps)
    if n == 1:
        return SuiteResult("theorem2", True, "checked=0 (no edges)")
    walls = _walls(eps, n_max, samples, _rng(seed, "theorem2"))
    ok = all(_theorem2_holds(tree, edges) for tree, edges in _by_tree(walls))
    mode = "exhaustive" if n <= n_max else "sampled"
    return SuiteResult("theorem2", ok, f"mode={mode} checked={len(walls)}")


def suite_clusters(eps, n_max, samples, seed) -> SuiteResult:
    clusters = enumerate_clusters(eps)
    expected = catalan(len(eps))
    keys = {c.key() for c in clusters}
    ok = len(clusters) == expected and len(keys) == expected
    detail = f"clusters={len(clusters)} expected={expected}"
    return SuiteResult("clusters", ok, detail, len(clusters))


def suite_bijection(eps, n_max, samples, seed) -> SuiteResult:
    trees = set(enumerate_trees(eps))
    clusters = enumerate_clusters(eps)
    ok = len(trees) == len(clusters)
    # The Gauss-Jordan c-matrix is the independent oracle, on a seeded sample.
    rng = _rng(seed, "bijection")
    oracle = set(rng.sample(range(len(clusters)), min(50, len(clusters))))
    mapped = set()
    for i, cluster in enumerate(clusters):
        tree = cluster_to_tree(cluster, eps)
        ok = ok and tree_to_cluster(tree) == cluster
        if i in oracle:
            ok = ok and c_matrix(tree) == classical_c_matrix(cluster, eps)
        mapped.add(tree)
    ok = ok and mapped == trees
    return SuiteResult("bijection", ok, f"pairs={len(clusters)}")


def _edge_masks(trees: Sequence[MixedCobinaryTree]) -> dict[EdgeTriple, int]:
    """Bit i of masks[(p, q, slope)] is set when trees[i] has that edge."""
    masks: dict[EdgeTriple, int] = {}
    for i, tree in enumerate(trees):
        for triple in tree.edge_triples():
            masks[triple] = masks.get(triple, 0) | 1 << i
    return masks


def _trees_missing(masks: dict[EdgeTriple, int], x: Sequence) -> int:
    """Bitmask of the trees whose open region misses a point with distinct
    coordinates, given as x or as any keys that order it as x (the floors
    or the pairs of regions._sort_keys): those with an edge whose slope
    disagrees with x."""
    out = 0
    for q in range(2, len(x) + 1):
        xq = x[q - 1]
        for p in range(1, q):
            out |= masks.get((p, q, -1 if xq > x[p - 1] else 1), 0)
    return out


def suite_region_partition(eps, n_max, samples, seed) -> SuiteResult:
    n = len(eps)
    trees = enumerate_trees(eps)
    masks = _edge_masks(trees)
    every = (1 << len(trees)) - 1
    rng = _rng(seed, "region-partition")
    ok = True
    tested = 0
    while tested < samples:
        x = tuple(
            Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000))
            for _ in range(n)
        )
        keys = _sort_keys(x)
        if len(set(keys)) < n:
            continue
        tested += 1
        inside = every & ~_trees_missing(masks, keys)
        # One bit set: the region of exactly one tree holds x.
        ok = ok and inside != 0 and inside & (inside - 1) == 0
        if ok:
            tree = trees[inside.bit_length() - 1]
            ok = locate_tree(x, eps) == tree and region_contains(tree, x)
    return SuiteResult(
        "region-partition", ok, f"samples={samples} seed={seed}"
    )


def suite_wall_stability(eps, n_max, samples, seed) -> SuiteResult:
    if len(eps) == 1:
        return SuiteResult("wall-stability", True, "checked=0 (no walls)")
    walls = _walls(eps, n_max, samples, _rng(seed, "wall-stability"))
    ok = all(
        wall_stability_point(tree, k)[1] for tree, edges in _by_tree(walls) for k in edges
    )
    return SuiteResult("wall-stability", ok, f"checked={len(walls)}")


def _gamma_table_holds(eps) -> bool:
    n = len(eps)
    if n < 2:
        return True
    x = x_matrix(eps)
    for p in range(1, n + 1):
        gp = interval_vector(p, n, n)
        for q in range(1, n + 1):
            gq = interval_vector(q, n, n)
            actual = linalg.dot(linalg.vec_mat(gp, x), gq)
            if p == q or n in (p, q):
                expected = 0
            elif p < q:
                expected = eps[q - 1]
            else:
                expected = -eps[p - 1]
            if actual != expected:
                return False
    return True


def _sign_cases_hold(tree: MixedCobinaryTree) -> bool:
    """Entry (k, j) of the principal part obeys the shared-endpoint laws."""
    b = exchange_matrix(tree).b_rows
    edges = tree.edges
    for k, ek in enumerate(edges):
        for j, ej in enumerate(edges):
            if j == k:
                continue
            entry = b[k][j]
            shared = {ek.p, ek.q} & {ej.p, ej.q}
            if not shared:
                if entry != 0:
                    return False
                continue
            sk, sj = ek.slope, ej.slope
            if ek.p == ej.p or ek.q == ej.q:
                expected_sign = sk
            elif ek.q == ej.p:
                expected_sign = tree.epsilon[ek.q - 1] * sj * sk
            else:  # ek.p == ej.q
                expected_sign = -tree.epsilon[ek.p - 1] * sj * sk
            if entry != expected_sign or abs(entry) != 1:
                return False
    return True


def suite_properties(eps, n_max, samples, seed) -> SuiteResult:
    n = len(eps)
    parts = []
    trees = enumerate_trees(eps) if n <= n_max else None
    if trees is None:
        rng = _rng(seed, "properties")
        drawn = (
            tree_from_permutation(_random_permutation(rng, n), eps)
            for _ in range(min(samples, 200))
        )
        trees = list({tree.flat: tree for tree in drawn}.values())  # each once
    involution = all(
        mutate(mutate(t, k), k) == t for t in trees for k in range(1, n)
    )
    parts.append(("involution", involution))
    parts.append(("det", all(c_matrix(t).det() in (1, -1) for t in trees)))
    parts.append(("gamma-table", _gamma_table_holds(eps)))
    parts.append(("sign-cases", all(_sign_cases_hold(t) for t in trees)))
    if n <= n_max:
        start = initial_tree(eps)
        seen = {start}
        frontier = [start]
        while frontier:
            tree = frontier.pop()
            for k in range(1, n):
                nxt = mutate(tree, k)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        parts.append(("connectivity", len(seen) == catalan(n)))
    detail = " ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good in parts)
    return SuiteResult("properties", all(good for _, good in parts), detail)


_SUITES: tuple[Callable, ...] = (
    suite_trees,
    suite_perm_partition,
    suite_theorem2,
    suite_clusters,
    suite_bijection,
    suite_region_partition,
    suite_wall_stability,
    suite_properties,
)


def run_all(
    epsilon: Sequence[int],
    n_max: int = 6,
    samples: int = 1000,
    seed: int = 0,
) -> tuple[list[SuiteResult], str]:
    """Run every suite; returns the results and a one-line summary."""
    linalg.as_ints((n_max, samples, seed))
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    eps = as_sign_sequence(epsilon)
    results = [suite(eps, n_max, samples, seed) for suite in _SUITES]
    by_name = {r.name: r for r in results}
    summary = (
        f"clusters={by_name['clusters'].count} trees={by_name['trees'].count} "
        f"bijection={'ok' if by_name['bijection'].passed else 'FAIL'} "
        f"theorem2={'ok' if by_name['theorem2'].passed else 'FAIL'}"
    )
    return results, summary
