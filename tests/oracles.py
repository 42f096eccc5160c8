"""Slow reference implementations that the tests cross-check the library
against.  They follow the definitions literally and are not part of the
public API."""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from cobinary import (
    ClusterMatrix,
    MixedCobinaryTree,
    almost_positive_roots,
    as_sign_sequence,
    is_cluster_matrix,
)


def enumerate_clusters_bruteforce(epsilon: Sequence[int]) -> list[ClusterMatrix]:
    """Filter every (n-1)-subset of almost positive roots through the full
    cluster definition."""
    eps = as_sign_sequence(epsilon)
    n = len(eps)
    if n == 1:
        return [ClusterMatrix(())]
    vectors = [r.vector for r in almost_positive_roots(eps)]
    found = []
    for subset in combinations(sorted(vectors), n - 1):
        if is_cluster_matrix(subset, eps):
            found.append(ClusterMatrix(subset))
    found.sort(key=lambda v: v.columns)
    return found


def region_contains_by_gaps(
    tree: MixedCobinaryTree, x: Sequence, strict: bool = True
) -> bool:
    """The region's defining inequalities as written: slope*(x_q - x_p) > 0
    on every edge (>= 0 when strict is False)."""
    gaps = [e.slope * (x[e.q - 1] - x[e.p - 1]) for e in tree.edges]
    return all(g > 0 if strict else g >= 0 for g in gaps)
