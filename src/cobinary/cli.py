"""Command-line front end.

Every subcommand is pure: identical inputs produce byte-identical JSON on
stdout.  Payload arguments (--tree, --cluster, --btilde) accept either a
file path or inline JSON (anything starting with '{' or '[').  Domain
errors print a JSON payload on stderr and exit 1; usage and parse errors,
argparse's own included, print {"error": "usage", ...} and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, NoReturn, Sequence

from . import linalg, serialize, verify
from .clusters import (
    ClusterMatrix,
    classical_c_matrix,
    enumerate_clusters,
    stability_domain_contains,
    subroots,
)
from .correspondence import (
    bijection_report,
    cluster_to_tree_work,
    tree_to_cluster,
    verify_pairing_identity,
)
from .errors import CobinaryError
from .exchange import euler_inverse, euler_matrix, exchange_matrix, fz_mutate, x_matrix
from .regions import _read_fraction, c_matrix, mutation_sequence
from .roots import Root
from .trees import (
    as_sign_sequence,
    enumerate_trees,
    permutations_of,
    tree_from_permutation,
)

USAGE_ERROR = 2
DOMAIN_ERROR = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage text and exit."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


def _split(text: str) -> list[str]:
    """The comma-separated fields of text; an empty one raises ValueError,
    so a stray comma cannot change the length of a list."""
    fields = text.split(",")
    if "" in fields:
        raise ValueError("empty field")
    return fields


def _parse_epsilon(text: str) -> tuple[int, ...]:
    try:
        return as_sign_sequence([int(tok) for tok in _split(text)])
    except ValueError as exc:
        raise UsageError(f"bad --epsilon value {text!r}: {exc}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in _split(text)]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _load_payload(arg: str) -> Any:
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {arg!r}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"invalid JSON payload: {exc}") from exc


def _load_cluster(arg: str, eps: tuple[int, ...]) -> ClusterMatrix:
    """The --cluster payload: n - 1 integer columns of length n - 1."""
    try:
        cluster = serialize.cluster_from_obj(_load_payload(arg))
        if len(cluster.columns) != len(eps) - 1:
            raise ValueError(f"{len(eps)} nodes need {len(eps) - 1} columns")
    except ValueError as exc:
        raise UsageError(f"bad --cluster value: {exc}") from exc
    return cluster


def _emit(obj: Any) -> None:
    sys.stdout.write(serialize.dumps(obj) + "\n")


def _cmd_trees_enumerate(args) -> int:
    eps = _parse_epsilon(args.epsilon)
    _emit([serialize.tree_to_obj(t) for t in enumerate_trees(eps)])
    return 0


def _cmd_trees_from_perm(args) -> int:
    eps = _parse_epsilon(args.epsilon)
    sigma = _parse_int_list(args.sigma)
    try:
        tree = tree_from_permutation(sigma, eps)
    except ValueError as exc:
        raise UsageError(f"bad --sigma value {args.sigma!r}: {exc}") from exc
    _emit(serialize.tree_to_obj(tree))
    return 0


def _cmd_trees_perms(args) -> int:
    tree = serialize.tree_from_obj(_load_payload(args.tree))
    fans = sorted(permutations_of(tree))
    _emit([list(sigma) for sigma in fans])
    return 0


def _cmd_trees_mutate(args) -> int:
    tree = serialize.tree_from_obj(_load_payload(args.tree))
    ks = [args.k] + (_parse_int_list(args.seq) if args.seq else [])
    try:
        mutated = mutation_sequence(tree, ks)
    except IndexError as exc:
        raise UsageError(f"bad --k/--seq value: {exc}") from exc
    _emit(serialize.tree_to_obj(mutated))
    return 0


def _cmd_matrix_euler(args) -> int:
    eps = _parse_epsilon(args.epsilon)
    try:
        e = euler_matrix(eps)
    except ValueError as exc:
        raise UsageError(f"bad --epsilon value {args.epsilon!r}: {exc}") from exc
    _emit(
        {
            "epsilon": list(eps),
            "ignored": [1, len(eps)],
            "E": [list(r) for r in e],
            "E_inverse": [list(r) for r in euler_inverse(eps)],
            "X": [list(r) for r in x_matrix(eps)],
        }
    )
    return 0


def _cmd_matrix_exchange(args) -> int:
    tree = serialize.tree_from_obj(_load_payload(args.tree))
    _emit(serialize.exchange_to_obj(exchange_matrix(tree)))
    return 0


def _cmd_matrix_fz_mutate(args) -> int:
    ex = serialize.exchange_from_obj(_load_payload(args.btilde))
    try:
        mutated = fz_mutate(ex, args.k)
    except IndexError as exc:
        raise UsageError(f"bad --k value: {exc}") from exc
    _emit(serialize.exchange_to_obj(mutated))
    return 0


def _cmd_clusters_enumerate(args) -> int:
    eps = _parse_epsilon(args.epsilon)
    _emit([serialize.cluster_to_obj(c) for c in enumerate_clusters(eps)])
    return 0


def _cmd_clusters_c_matrix(args) -> int:
    eps = _parse_epsilon(args.epsilon)
    cluster = _load_cluster(args.cluster, eps)
    _emit(serialize.cmatrix_to_obj(classical_c_matrix(cluster, eps)))
    return 0


def _cmd_clusters_stability(args) -> int:
    eps = _parse_epsilon(args.epsilon)
    try:
        weight_vector = [_read_fraction(tok) for tok in _split(args.v)]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --v value {args.v!r}: {exc}") from exc
    try:
        beta = Root(args.p, args.q)
        weight = linalg.mat_vec(euler_matrix(eps), beta.vector(len(eps)))
        contains = stability_domain_contains(eps, beta, weight_vector)
    except ValueError as exc:
        raise UsageError(f"bad stability query: {exc}") from exc
    _emit(
        {
            "epsilon": list(eps),
            "beta": [beta.p, beta.q],
            "weight": list(weight),
            "subroots": [[r.p, r.q] for r in subroots(eps, beta)],
            "v": serialize.point_to_obj(weight_vector),
            "contains": contains,
        }
    )
    return 0


def _cmd_bij_to_tree(args) -> int:
    eps = _parse_epsilon(args.epsilon)
    cluster = _load_cluster(args.cluster, eps)
    work = cluster_to_tree_work(cluster, eps)
    _emit(
        {
            "epsilon": list(eps),
            "cluster": serialize.cluster_to_obj(cluster),
            "vt_e": [list(r) for r in work.vt_e_rows],
            "lifted_rows": [list(r) for r in work.lifted_rows],
            "sum_vector": list(work.sum_vector),
            "ranking": list(work.ranking),
            "tied_rankings": [list(r) for r in work.tied_rankings],
            "c_matrix": serialize.cmatrix_to_obj(work.c_matrix),
            "tree": serialize.tree_to_obj(work.tree),
        }
    )
    return 0


def _cmd_bij_to_cluster(args) -> int:
    tree = serialize.tree_from_obj(_load_payload(args.tree))
    cluster = tree_to_cluster(tree)
    _emit(
        {
            "tree": serialize.tree_to_obj(tree),
            "cluster": serialize.cluster_to_obj(cluster),
            "c_matrix": serialize.cmatrix_to_obj(c_matrix(tree)),
            "verified": verify_pairing_identity(tree, cluster),
        }
    )
    return 0


def _cmd_bij_all(args) -> int:
    eps = _parse_epsilon(args.epsilon)
    report = bijection_report(eps)
    _emit(
        [
            {
                "tree": serialize.tree_to_obj(entry["tree"]),
                "cluster": serialize.cluster_to_obj(entry["cluster"]),
                "c_matrix": serialize.cmatrix_to_obj(c_matrix(entry["tree"])),
                "verified": entry["verified"],
            }
            for entry in report
        ]
    )
    return 0 if all(entry["verified"] for entry in report) else DOMAIN_ERROR


def _cmd_verify_all(args) -> int:
    eps = _parse_epsilon(args.epsilon)
    if args.samples < 1:
        raise UsageError(f"bad --samples value {args.samples}: need at least 1")
    results, summary = verify.run_all(
        eps, n_max=args.n_max, samples=args.samples, seed=args.seed
    )
    print(summary)
    for result in results:
        print(result.line())
    all_ok = all(r.passed for r in results)
    print(f"result={'pass' if all_ok else 'fail'}")
    return 0 if all_ok else DOMAIN_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cobinary",
        description="Mixed cobinary trees, c-vector mutation, and clusters, exactly.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    trees = top.add_parser("trees", help="enumerate, rebuild, and mutate trees")
    tsub = trees.add_subparsers(dest="command", required=True)
    p = tsub.add_parser("enumerate", help="all trees for a sign sequence")
    p.add_argument("--epsilon", required=True, help="comma-separated +-1 signs")
    p.set_defaults(run=_cmd_trees_enumerate)
    p = tsub.add_parser("from-perm", help="the unique tree realizing a height order")
    p.add_argument("--sigma", required=True, help="comma-separated permutation values")
    p.add_argument("--epsilon", required=True)
    p.set_defaults(run=_cmd_trees_from_perm)
    p = tsub.add_parser("perms", help="all height orders realizing a tree")
    p.add_argument("--tree", required=True, help="tree JSON (path or inline)")
    p.set_defaults(run=_cmd_trees_perms)
    p = tsub.add_parser("mutate", help="mutate at a wall (then an optional sequence)")
    p.add_argument("--tree", required=True)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--seq", help="comma-separated further directions")
    p.set_defaults(run=_cmd_trees_mutate)

    matrix = top.add_parser("matrix", help="Euler and exchange matrices")
    msub = matrix.add_subparsers(dest="command", required=True)
    p = msub.add_parser("euler", help="Euler matrix, inverse, and E - E^t")
    p.add_argument("--epsilon", required=True)
    p.set_defaults(run=_cmd_matrix_euler)
    p = msub.add_parser("exchange", help="stacked exchange matrix of a tree")
    p.add_argument("--tree", required=True)
    p.set_defaults(run=_cmd_matrix_exchange)
    p = msub.add_parser("fz-mutate", help="Fomin-Zelevinsky mutation of a stacked matrix")
    p.add_argument("--btilde", required=True, help='{"B": rows, "C": rows} JSON')
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(run=_cmd_matrix_fz_mutate)

    clusters = top.add_parser("clusters", help="cluster matrices of the quiver")
    csub = clusters.add_subparsers(dest="command", required=True)
    p = csub.add_parser("enumerate", help="all clusters for a sign sequence")
    p.add_argument("--epsilon", required=True)
    p.set_defaults(run=_cmd_clusters_enumerate)
    p = csub.add_parser("c-matrix", help="classical c-matrix of a cluster")
    p.add_argument("--cluster", required=True, help="array-of-columns JSON")
    p.add_argument("--epsilon", required=True)
    p.set_defaults(run=_cmd_clusters_c_matrix)
    p = csub.add_parser(
        "stability", help="stability-domain membership of a weight vector"
    )
    p.add_argument("--epsilon", required=True)
    p.add_argument("--p", required=True, type=int, help="root interval start")
    p.add_argument("--q", required=True, type=int, help="root interval end")
    p.add_argument("--v", required=True,
                   help="comma-separated exact rationals (a/b or integers)")
    p.set_defaults(run=_cmd_clusters_stability)

    bij = top.add_parser("bij", help="the cluster-tree correspondence")
    bsub = bij.add_subparsers(dest="command", required=True)
    p = bsub.add_parser("to-tree", help="tree of a cluster, with the work shown")
    p.add_argument("--cluster", required=True)
    p.add_argument("--epsilon", required=True)
    p.set_defaults(run=_cmd_bij_to_tree)
    p = bsub.add_parser("to-cluster", help="cluster of a tree")
    p.add_argument("--tree", required=True)
    p.set_defaults(run=_cmd_bij_to_cluster)
    p = bsub.add_parser("all", help="certified pairing of every cluster and tree")
    p.add_argument("--epsilon", required=True)
    p.set_defaults(run=_cmd_bij_all)

    ver = top.add_parser("verify", help="run the verification suites")
    vsub = ver.add_subparsers(dest="command", required=True)
    p = vsub.add_parser("all", help="every suite for one sign sequence")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--n-max", type=int, default=6,
                   help="largest n checked exhaustively (default 6)")
    p.add_argument("--samples", type=int, default=1000,
                   help="sample count for randomized suites (default 1000)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed (default 0)")
    p.set_defaults(run=_cmd_verify_all)

    return parser


_VALUE_FLAGS = ("--epsilon", "--sigma", "--seq", "--seed", "--v")


def _merge_value_flags(argv: list[str]) -> list[str]:
    """Join `--flag -1,...` into `--flag=-1,...` so values that begin with a
    minus sign are not mistaken for option names."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(_merge_value_flags(raw))
        return args.run(args)
    except UsageError as exc:
        sys.stderr.write(serialize.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return USAGE_ERROR
    except CobinaryError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(serialize.dumps(payload) + "\n")
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
