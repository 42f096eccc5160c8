"""The error paths that no other in-process test reaches, each with its
exact exception type and message.  `type(exc) is X` rather than
`pytest.raises(X)`, because every CobinaryError is also a ValueError."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

import cobinary as cb
from cobinary import linalg, serialize
from cobinary.errors import CobinaryError, CyclicHeights, NotATree, VerificationFailed
from cobinary.trees import _tree_from_flat

E = cb.SignedEdge


def _assign_n(tree):
    tree.n = 4


def _delete_flat(tree):
    del tree.flat


# Ids are the keys, so a new row renames no other test.
ERROR_PATHS = {
    # trees
    "SignedEdge-p-above-q": (
        lambda: E(1, 2, 1, 1), ValueError, "need 1 <= p < q, got (2, 1)"
    ),
    "SignedEdge-slope-0": (lambda: E(1, 1, 2, 0), ValueError, "slope must be +-1, got 0"),
    "MixedCobinaryTree-n-not-len-eps": (
        lambda: cb.MixedCobinaryTree(3, (1, 1), ()),
        ValueError,
        "n=3 but sign sequence has length 2",
    ),
    "MixedCobinaryTree-labels-1-3": (
        lambda: cb.MixedCobinaryTree(3, (1, 1, 1), (E(1, 1, 2, 1), E(3, 2, 3, 1))),
        ValueError,
        "edge labels must be exactly 1..n-1",
    ),
    "MixedCobinaryTree-endpoint-4-at-n-3": (
        lambda: cb.MixedCobinaryTree(3, (1, 1, 1), (E(1, 1, 2, 1), E(2, 2, 4, 1))),
        ValueError,
        "edge endpoint out of range",
    ),
    "MixedCobinaryTree-two-edges-on-1-2": (
        lambda: cb.MixedCobinaryTree(3, (1, 1, 1), (E(1, 1, 2, 1), E(2, 1, 2, -1))),
        NotATree,
        "duplicate edge between the same pair of nodes",
    ),
    "tree_from_flat-short": (
        lambda: _tree_from_flat((1, 1, 1), (1, 2, 1)),
        ValueError,
        "need 6 entries for 3 nodes, got 3",
    ),
    "tree_from_flat-p-above-q": (
        lambda: _tree_from_flat((1, 1), (2, 1, 1)), ValueError, "need 1 <= p < q, got (2, 1)"
    ),
    "tree_from_flat-slope-0": (
        lambda: _tree_from_flat((1, 1), (1, 2, 0)), ValueError, "slope must be +-1, got 0"
    ),
    "tree-assign-n": (
        lambda: _assign_n(cb.initial_tree((1, 1, 1))),
        FrozenInstanceError,
        "cannot assign to field 'n'",
    ),
    "tree-delete-flat": (
        lambda: _delete_flat(cb.initial_tree((1, 1, 1))),
        FrozenInstanceError,
        "cannot delete field 'flat'",
    ),
    "relabelled-other-edges": (
        lambda: cb.initial_tree((1, 1, 1)).relabelled([(1, 3, 1), (2, 3, 1)]),
        ValueError,
        "relabelling must preserve the edge set",
    ),
    "linear_extension-cyclic": (
        lambda: cb.linear_extension(
            _tree_from_flat((1, 1, 1, 1), (1, 2, 1, 2, 3, 1, 1, 3, -1))
        ),
        CyclicHeights,
        "edge slopes admit no linear extension",
    ),
    "make_tree-endpoint-4-at-n-3": (
        lambda: cb.make_tree((1, 1, 1), [(1, 2, 1), (2, 4, 1)]),
        ValueError,
        "edge endpoint out of range",
    ),
    # roots
    "Root-p-equals-q": (lambda: cb.Root(2, 2), ValueError, "need 1 <= p < q, got p=2, q=2"),
    "Root-sign-0": (lambda: cb.Root(1, 2, 0), ValueError, "sign must be +1 or -1, got 0"),
    "Root.vector-too-short": (
        lambda: cb.Root(1, 4).vector(3), ValueError, "root (1,4) does not fit in n=3"
    ),
    "interval_vector-p-above-q": (
        lambda: cb.interval_vector(3, 2, 4),
        ValueError,
        "need 1 <= p <= q <= n, got (3, 2), n=4",
    ),
    # linalg
    "mat_mul-shapes": (
        lambda: linalg.mat_mul(((1, 2),), ((1, 2),)),
        ValueError,
        "shape mismatch: 2 columns vs 1 rows",
    ),
    "mat_vec-shapes": (lambda: linalg.mat_vec(((1, 2),), (1,)), ValueError, "shape mismatch"),
    "vec_mat-shapes": (
        lambda: linalg.vec_mat((1,), ((1, 2), (3, 4))), ValueError, "shape mismatch"
    ),
    "dot-shapes": (lambda: linalg.dot((1, 2), (1,)), ValueError, "shape mismatch"),
    "det-non-square": (
        lambda: linalg.det(((1, 2),)), ValueError, "determinant of a non-square matrix"
    ),
    # clusters, correspondence, regions, serialize
    "subroots-root-too-long": (
        lambda: cb.subroots((1, 1, 1), cb.Root(1, 5)),
        ValueError,
        "Root(p=1, q=5, sign=1) does not fit a quiver on 3 nodes",
    ),
    "cluster_to_tree_work-one-node-one-column": (
        lambda: cb.cluster_to_tree_work(cb.ClusterMatrix(((1,),)), (1,)),
        VerificationFailed,
        "a single node pairs with the empty cluster",
    ),
    "locate_tree-lengths": (
        lambda: cb.locate_tree((1, 2), (1, 1, 1)),
        ValueError,
        "point and sign sequence must have equal length",
    ),
    "exchange_from_obj-B-not-rows": (
        lambda: serialize.exchange_from_obj({"B": 1, "C": []}),
        CobinaryError,
        "malformed exchange matrix object: 'B' and 'C' must be arrays of rows",
    ),
}


@pytest.mark.parametrize("path", sorted(ERROR_PATHS))
def test_error_path_raises_its_exact_type_and_message(path):
    call, kind, message = ERROR_PATHS[path]
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is kind
    assert str(caught.value) == message
