"""JSON interchange formats.

Trees serialize as {"n", "epsilon", "edges": [{"i", "p", "q", "slope"}]}
with edges in label order; c-matrices and cluster matrices as arrays of
columns; exchange matrices as {"B": rows, "C": rows}; exact rational
points as arrays of "numerator/denominator" strings.  Output key order is
fixed so identical values serialize to identical bytes.  Points and
c-matrices are only written here; regions.as_region_point and CMatrix read
them back.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .clusters import ClusterMatrix
from .errors import CobinaryError
from .exchange import ExchangeMatrix
from .linalg import as_ints
from .regions import CMatrix, as_region_point
from .trees import BinaryTree, MixedCobinaryTree, SignedEdge, make_tree


def tree_to_obj(tree: MixedCobinaryTree) -> dict[str, Any]:
    return {
        "n": tree.n,
        "epsilon": list(tree.epsilon),
        "edges": [
            {"i": i, "p": p, "q": q, "slope": s}
            for i, (p, q, s) in enumerate(tree.edge_triples(), 1)
        ],
    }


def _fields(obj: Any, keys: tuple[str, ...], what: str) -> list:
    """obj's values at keys, else ValueError naming the shape or key it lacks."""
    if not isinstance(obj, dict):
        names = ", ".join(map(repr, keys))
        raise ValueError(f"{what} must be a JSON object with keys {names}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no key {key!r}")
    return [obj[key] for key in keys]


def tree_from_obj(obj: Any) -> MixedCobinaryTree:
    """Read a tree whose entries are JSON integers.  Any other shape raises
    CobinaryError ("malformed tree object"); an edge set that is not a tree
    keeps the error of make_tree (NotATree, ArityViolation, WallViolation)."""
    try:
        epsilon, edges = _fields(obj, ("epsilon", "edges"), "a tree")
        if not isinstance(epsilon, list) or not isinstance(edges, list):
            raise ValueError("'epsilon' and 'edges' must be arrays")
        edges = [
            SignedEdge(*_fields(e, ("i", "p", "q", "slope"), f"edge {at}"))
            for at, e in enumerate(edges, 1)
        ]
        tree = make_tree(as_ints(epsilon), edges)
        n = as_ints([obj["n"]])[0] if "n" in obj else tree.n
    except CobinaryError:
        raise
    except (TypeError, ValueError) as exc:
        raise CobinaryError(f"malformed tree object: {exc}") from exc
    if n != tree.n:
        raise CobinaryError(f"tree object claims n={n} but has {tree.n} nodes")
    return tree


def cmatrix_to_obj(cmat: CMatrix) -> list[list[int]]:
    return [list(col) for col in cmat.columns]


def cluster_to_obj(cluster: ClusterMatrix) -> list[list[int]]:
    return [list(col) for col in cluster.columns]


def cluster_from_obj(obj: Any) -> ClusterMatrix:
    """An array of integer columns, as many as each is long; else ValueError."""
    if not isinstance(obj, list) or not all(isinstance(col, list) for col in obj):
        raise ValueError("a cluster matrix is an array of columns")
    try:
        columns = tuple(map(as_ints, obj))
    except ValueError as exc:
        raise ValueError("cluster matrix entries must be integers") from exc
    return ClusterMatrix(columns)


def exchange_to_obj(ex: ExchangeMatrix) -> dict[str, list[list[int]]]:
    return {
        "B": [list(row) for row in ex.b_rows],
        "C": [list(row) for row in ex.c_rows],
    }


def exchange_from_obj(obj: Any) -> ExchangeMatrix:
    """Read {"B", "C"} of JSON integers; any other shape raises CobinaryError."""
    try:
        b, c = _fields(obj, ("B", "C"), "an exchange matrix")
        if not all(isinstance(m, list) and all(isinstance(r, list) for r in m) for m in (b, c)):
            raise ValueError("'B' and 'C' must be arrays of rows")
        return ExchangeMatrix(b, c)
    except (TypeError, ValueError) as exc:
        raise CobinaryError(f"malformed exchange matrix object: {exc}") from exc


def point_to_obj(x: Sequence) -> list[str]:
    return [f"{c.numerator}/{c.denominator}" for c in as_region_point(x)]


def binary_tree_to_obj(bt: BinaryTree | None) -> list | None:
    out: list = [None]
    stack = [(bt, out, 0)]
    while stack:
        node, holder, at = stack.pop()
        if node is not None:
            holder[at] = [None, None]
            stack += (node.left, holder[at], 0), (node.right, holder[at], 1)
    return out[0]


def dumps(obj: Any) -> str:
    """Canonical compact JSON: fixed key order, no whitespace padding."""
    return json.dumps(obj, separators=(",", ":"))
