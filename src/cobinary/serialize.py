"""JSON interchange formats.

Trees serialize as {"n", "epsilon", "edges": [{"i", "p", "q", "slope"}]}
with edges in label order; c-matrices and cluster matrices as arrays of
columns; exchange matrices as {"B": rows, "C": rows}; exact rational
points as arrays of "numerator/denominator" strings.  Output key order is
fixed so identical values serialize to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Sequence

from .clusters import ClusterMatrix
from .errors import CobinaryError
from .exchange import ExchangeMatrix
from .regions import CMatrix, RegionPoint
from .trees import BinaryTree, MixedCobinaryTree, SignedEdge, make_tree


def tree_to_obj(tree: MixedCobinaryTree) -> dict[str, Any]:
    return {
        "n": tree.n,
        "epsilon": list(tree.epsilon),
        "edges": [
            {"i": e.index, "p": e.p, "q": e.q, "slope": e.slope}
            for e in tree.edges
        ],
    }


def _json_int(x: Any) -> int:
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def tree_from_obj(obj: Any) -> MixedCobinaryTree:
    """Read a tree whose entries are JSON integers.  Any other shape raises
    CobinaryError ("malformed tree object"); an edge set that is not a tree
    keeps the error of make_tree (NotATree, ArityViolation, WallViolation)."""
    try:
        epsilon = [_json_int(s) for s in obj["epsilon"]]
        edges = [
            SignedEdge(*(_json_int(e[key]) for key in ("i", "p", "q", "slope")))
            for e in obj["edges"]
        ]
        tree = make_tree(epsilon, edges)
        n = _json_int(obj["n"]) if "n" in obj else tree.n
    except CobinaryError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CobinaryError(f"malformed tree object: {exc}") from exc
    if n != tree.n:
        raise CobinaryError(f"tree object claims n={n} but has {tree.n} nodes")
    return tree


def cmatrix_to_obj(cmat: CMatrix) -> list[list[int]]:
    return [list(col) for col in cmat.columns]


def _int_columns(obj: Any, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(obj, list) or not all(isinstance(col, list) for col in obj):
        raise ValueError(f"a {what} is an array of columns")
    if not all(type(x) is int for col in obj for x in col):
        raise ValueError(f"{what} entries must be integers")
    return tuple(map(tuple, obj))


def cmatrix_from_obj(obj: Any) -> CMatrix:
    return CMatrix(_int_columns(obj, "c-matrix"))


def cluster_to_obj(cluster: ClusterMatrix) -> list[list[int]]:
    return [list(col) for col in cluster.columns]


def cluster_from_obj(obj: Any) -> ClusterMatrix:
    """An array of integer columns, as many as each is long; else ValueError."""
    return ClusterMatrix(_int_columns(obj, "cluster matrix"))


def exchange_to_obj(ex: ExchangeMatrix) -> dict[str, list[list[int]]]:
    return {
        "B": [list(row) for row in ex.b_rows],
        "C": [list(row) for row in ex.c_rows],
    }


def exchange_from_obj(obj: Any) -> ExchangeMatrix:
    """Read {"B", "C"} of JSON integers; any other shape raises CobinaryError."""
    try:
        return ExchangeMatrix(
            tuple(tuple(map(_json_int, row)) for row in obj["B"]),
            tuple(tuple(map(_json_int, row)) for row in obj["C"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CobinaryError(f"malformed exchange matrix object: {exc}") from exc


def point_to_obj(x: Sequence) -> list[str]:
    fracs = [Fraction(c) for c in x]
    return [f"{c.numerator}/{c.denominator}" for c in fracs]


def point_from_obj(obj: Sequence) -> RegionPoint:
    """Exact coordinates: JSON integers and "a/b" strings, else CobinaryError."""
    out = []
    for item in obj:
        try:
            if type(item) not in (int, str):
                raise TypeError(f"{item!r} is not exact")
            out.append(Fraction(item))
        except (TypeError, ValueError, ZeroDivisionError):
            raise CobinaryError(f"cannot read exact rational coordinate {item!r}")
    return tuple(out)


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
