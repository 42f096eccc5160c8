"""Shared fixtures: two fully hand-worked examples used across the suite.

The "mutation demo" is a 5-node tree with a fully pinned c-matrix whose
mutation at edge 3 is known in closed form.  The "cluster demo" is a
5-node sign sequence with one cluster matrix for which every intermediate
of the cluster-to-tree construction (Euler matrix, inverse, lifted rows,
rank vector, final edges) has been worked out by hand.
"""

from __future__ import annotations

import hashlib
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import combinations, product
from typing import Iterable

import pytest
from hypothesis import HealthCheck, settings

import cobinary as cb
from cobinary import cli

settings.register_profile(
    "det",
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


# --- 5-node mutation demo ---------------------------------------------------

MUT_EPS = (-1, 1, -1, -1, -1)
MUT_EDGES = [(1, 3, -1), (2, 3, 1), (3, 5, 1), (4, 5, -1)]
# c-matrix rows of the demo tree and of its mutation at edge 3.
MUT_C_ROWS = ((-1, 0, 0, 0), (-1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, -1))
MUT_CSTAR_ROWS = ((-1, 0, 0, 0), (-1, 1, 0, 0), (0, 1, -1, 1), (0, 1, -1, 0))
MUT_K = 3

# --- 5-node cluster demo ----------------------------------------------------

CLU_EPS = (-1, 1, -1, 1, 1)
CLU_E = ((1, 0, 0, 0), (-1, 1, -1, 0), (0, 0, 1, 0), (0, 0, -1, 1))
CLU_E_INV = ((1, 0, 0, 0), (1, 1, 1, 0), (0, 0, 1, 0), (0, 0, 1, 1))
CLU_V_COLS = ((1, 1, 1, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, -1, -1))
CLU_VTE_ROWS = ((0, 1, 0, 0), (0, 1, -1, 0), (-1, 1, 0, 0), (0, 0, 0, -1))
CLU_C_ROWS = ((1, 0, -1, 0), (1, 0, 0, 0), (1, -1, 0, 0), (0, 0, 0, -1))
CLU_LIFTED = ((0, 0, 1, 1, 1), (0, 0, 1, 0, 0), (1, 0, 1, 1, 1), (1, 1, 1, 1, 0))
CLU_SUM = (2, 1, 4, 3, 2)
CLU_RANKING = (2, 1, 5, 4, 3)
CLU_RANKING_ALT = (3, 1, 5, 4, 2)
# Edge triples in cluster-column order (label k pairs with column k).
CLU_TREE_EDGES = ((1, 4, 1), (3, 4, -1), (1, 2, -1), (4, 5, -1))

# --- small fixed trees -------------------------------------------------------

FAN_EDGES = [(1, 2, 1), (1, 3, -1), (3, 4, 1)]
FAN_PERMS = {(2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2)}  # words 2314, 2413, 3412


@pytest.fixture
def mutation_demo_tree() -> cb.MixedCobinaryTree:
    return cb.make_tree(MUT_EPS, MUT_EDGES)


@pytest.fixture
def cluster_demo_tree() -> cb.MixedCobinaryTree:
    return cb.tree_from_permutation(CLU_RANKING, CLU_EPS)


@pytest.fixture
def cluster_demo_matrix() -> cb.ClusterMatrix:
    return cb.ClusterMatrix(CLU_V_COLS)


@pytest.fixture
def fan_tree() -> cb.MixedCobinaryTree:
    return cb.make_tree((-1, -1, -1, 1), FAN_EDGES)


def all_epsilons(n: int):
    return list(cb.sign_sequences(n))


def signed_edge_sets(n_max: int):
    """Every set of n - 1 signed edges on distinct node pairs, for
    2 <= n <= n_max and every sign sequence, as (p, q, slope) triples in
    (p, q) order."""
    for n in range(2, n_max + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for eps in all_epsilons(n):
            for chosen in combinations(pairs, n - 1):
                for slopes in product((1, -1), repeat=n - 1):
                    yield eps, [(p, q, s) for (p, q), s in zip(chosen, slopes)]


def sha256_lines(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def guarded(call) -> str:
    """repr of the result, or the exception's type and message."""
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def cli_in_process(*argv: str) -> str:
    """Exit code, stdout and stderr of one `cobinary` call, run in process."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"
