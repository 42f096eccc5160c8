"""Exact combinatorics of mixed cobinary trees and type-A cluster matrices.

The package enumerates mixed cobinary trees per sign sequence, mutates
them across region walls, builds their exchange matrices, enumerates the
clusters of the associated A_{n-1} quiver, and cross-verifies the
bijection between the two worlds — all in exact integer and rational
arithmetic.
"""

from .clusters import (
    ClusterMatrix,
    almost_positive_roots,
    classical_c_matrix,
    cluster_violation,
    enumerate_clusters,
    initial_cluster,
    projective_roots,
    stability_domain_contains,
    subroots,
)
from .correspondence import (
    BijectionWork,
    bijection_report,
    cluster_to_tree,
    cluster_to_tree_work,
    f_lift,
    f_map,
    tree_to_cluster,
    verify_pairing_identity,
    wall_point,
    wall_stability_point,
)
from .errors import (
    ArityViolation,
    CobinaryError,
    CyclicHeights,
    NonIntegralResult,
    NotACluster,
    NotARoot,
    NotATree,
    SingularV,
    TiedCoordinates,
    VerificationFailed,
    WallViolation,
)
from .exchange import (
    ExchangeMatrix,
    euler_inverse,
    euler_matrix,
    exchange_matrix,
    fz_mutate,
    x_matrix,
)
from .regions import (
    CMatrix,
    RegionPoint,
    as_region_point,
    c_matrix,
    locate_tree,
    mutate,
    mutation_sequence,
    rank_permutation,
    region_contains,
    tree_from_c_matrix,
)
from .roots import Root, interval_vector, is_root_vector, positive_roots, root_from_vector
from .trees import (
    BinaryTree,
    MixedCobinaryTree,
    Permutation,
    SignSequence,
    SignedEdge,
    as_permutation,
    as_sign_sequence,
    binary_trees,
    catalan,
    enumerate_trees,
    flip_horizontal,
    gravity_map,
    initial_tree,
    linear_extension,
    make_tree,
    permutations_of,
    reverse_tree,
    sign_sequences,
    tree_from_permutation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
