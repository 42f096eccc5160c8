"""Acceptance suite.

Runs every shipped acceptance criterion at full size and prints one
pass/fail line per criterion (use `pytest -s -v tests/test_acceptance.py`
to watch them).  Everything is exact integer or rational arithmetic; the
randomized criteria are seeded and deterministic.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import cobinary as cb
from cobinary import Root, linalg, serialize

from conftest import (
    CLU_C_ROWS,
    CLU_E,
    CLU_E_INV,
    CLU_EPS,
    CLU_LIFTED,
    CLU_RANKING,
    CLU_RANKING_ALT,
    CLU_SUM,
    CLU_TREE_EDGES,
    CLU_V_COLS,
    CLU_VTE_ROWS,
    FAN_EDGES,
    FAN_PERMS,
    MUT_C_ROWS,
    MUT_CSTAR_ROWS,
    MUT_EDGES,
    MUT_EPS,
    MUT_K,
    all_epsilons,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
SEED = 0


def _report(index: int, label: str, ok: bool, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[{index:2d}/12] {label}: {status} ({elapsed:.1f}s{suffix})")
    assert ok, f"criterion {index} failed: {label}{suffix}"


def _random_epsilon(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(n))


def _random_tree(rng: random.Random, eps) -> cb.MixedCobinaryTree:
    sigma = list(range(1, len(eps) + 1))
    rng.shuffle(sigma)
    return cb.tree_from_permutation(tuple(sigma), eps)


def test_01_tree_counts_are_catalan():
    started = time.perf_counter()
    ok = True
    checked = 0
    for n in range(1, 7):
        for eps in all_epsilons(n):
            trees = cb.enumerate_trees(eps)
            ok = ok and len(trees) == CATALAN[n] == len(set(trees))
            checked += 1
    rng = random.Random(SEED)
    for n in (7, 8):
        for _ in range(20):
            eps = _random_epsilon(rng, n)
            trees = cb.enumerate_trees(eps)
            ok = ok and len(trees) == CATALAN[n] == len(set(trees))
            checked += 1
    _report(1, "tree counts match the Catalan numbers", ok, started,
            f"sign sequences={checked}")


def test_02_permutations_partition_the_symmetric_group():
    started = time.perf_counter()
    ok = True
    for n in range(1, 7):
        bang = factorial(n)
        for eps in all_epsilons(n):
            trees = cb.enumerate_trees(eps)
            total = 0
            for tree in trees:
                fans = cb.permutations_of(tree)
                total += len(fans)
                ok = ok and all(
                    cb.tree_from_permutation(sigma, eps) == tree
                    for sigma in fans
                )
            ok = ok and total == bang
    _report(2, "realizing permutations partition the symmetric group", ok,
            started)


def test_03_fixed_four_node_permutation_fan():
    started = time.perf_counter()
    tree = cb.make_tree((-1, -1, -1, 1), FAN_EDGES)
    ok = cb.permutations_of(tree) == FAN_PERMS
    _report(3, "pinned four-node tree has the expected fan", ok, started)


def test_04_tree_mutation_equals_matrix_mutation():
    started = time.perf_counter()
    ok = True
    checked = 0
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                ex = cb.exchange_matrix(tree)
                for k in range(1, n):
                    ok = ok and cb.exchange_matrix(cb.mutate(tree, k)) == cb.fz_mutate(ex, k)
                    checked += 1
    rng = random.Random(SEED)
    for n in (6, 7):
        for _ in range(200):
            eps = _random_epsilon(rng, n)
            tree = _random_tree(rng, eps)
            k = rng.randint(1, n - 1)
            ok = ok and cb.exchange_matrix(cb.mutate(tree, k)) == cb.fz_mutate(
                cb.exchange_matrix(tree), k
            )
            checked += 1
    _report(4, "tree mutation equals matrix mutation", ok, started,
            f"checks={checked}")


def test_05_pinned_five_node_mutation_pair():
    started = time.perf_counter()
    tree = cb.make_tree(MUT_EPS, MUT_EDGES)
    mutated = cb.mutate(tree, MUT_K)
    ok = cb.c_matrix(tree).rows == MUT_C_ROWS
    ok = ok and cb.c_matrix(mutated).rows == MUT_CSTAR_ROWS
    # Matrix route reproduces the same column operations.
    via_fz = cb.fz_mutate(cb.exchange_matrix(tree), MUT_K)
    ok = ok and via_fz.c_rows == MUT_CSTAR_ROWS
    cols = list(linalg.transpose(MUT_C_ROWS))
    third = cols[2]
    cols[1] = tuple(a + b for a, b in zip(cols[1], third))
    cols[3] = tuple(a + b for a, b in zip(cols[3], third))
    cols[2] = tuple(-a for a in third)
    ok = ok and tuple(cols) == linalg.transpose(via_fz.c_rows)
    ok = ok and cb.fz_mutate(via_fz, MUT_K).c_rows == MUT_C_ROWS
    _report(5, "pinned five-node mutation pair reproduced exactly", ok, started)


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cobinary", *args], capture_output=True, text=True
    )


def test_06_worked_cluster_example_through_the_cli():
    started = time.perf_counter()
    euler = _run_cli("matrix", "euler", "--epsilon", "-1,1,-1,1,1")
    expected_euler = serialize.dumps(
        {
            "epsilon": list(CLU_EPS),
            "ignored": [1, 5],
            "E": [list(r) for r in CLU_E],
            "E_inverse": [list(r) for r in CLU_E_INV],
            "X": [list(r) for r in linalg.mat_sub(CLU_E, linalg.transpose(CLU_E))],
        }
    )
    ok = euler.returncode == 0 and euler.stdout == expected_euler + "\n"

    to_tree = _run_cli(
        "bij", "to-tree",
        "--cluster", json.dumps([list(c) for c in CLU_V_COLS]),
        "--epsilon", "-1,1,-1,1,1",
    )
    expected_work = serialize.dumps(
        {
            "epsilon": list(CLU_EPS),
            "cluster": [list(c) for c in CLU_V_COLS],
            "vt_e": [list(r) for r in CLU_VTE_ROWS],
            "lifted_rows": [list(r) for r in CLU_LIFTED],
            "sum_vector": list(CLU_SUM),
            "ranking": list(CLU_RANKING),
            "tied_rankings": [list(CLU_RANKING), list(CLU_RANKING_ALT)],
            "c_matrix": [list(c) for c in linalg.transpose(CLU_C_ROWS)],
            "tree": {
                "n": 5,
                "epsilon": list(CLU_EPS),
                "edges": [
                    {"i": i + 1, "p": p, "q": q, "slope": s}
                    for i, (p, q, s) in enumerate(CLU_TREE_EDGES)
                ],
            },
        }
    )
    ok = ok and to_tree.returncode == 0 and to_tree.stdout == expected_work + "\n"
    _report(6, "worked cluster example is byte-exact through the CLI", ok,
            started)


def test_07_cluster_counts_are_catalan():
    started = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for eps in all_epsilons(n):
            clusters = cb.enumerate_clusters(eps)
            keys = {c.key() for c in clusters}
            ok = ok and len(clusters) == CATALAN[n] == len(keys)
    _report(7, "cluster counts match the Catalan numbers", ok, started)


def test_08_bijection_is_inverse_with_identity_pairing():
    started = time.perf_counter()
    ok = True
    pairs = 0
    for n in range(1, 7):
        for eps in all_epsilons(n):
            trees = set(cb.enumerate_trees(eps))
            clusters = cb.enumerate_clusters(eps)
            ok = ok and len(clusters) == len(trees)
            seen = set()
            for cluster in clusters:
                tree = cb.cluster_to_tree(cluster, eps)
                back = cb.tree_to_cluster(tree)
                ok = ok and back.key() == cluster.key()
                ok = ok and cb.verify_pairing_identity(tree, back)
                seen.add(tree)
                pairs += 1
            ok = ok and seen == trees
    _report(8, "cluster-tree bijection inverts with identity pairing", ok,
            started, f"pairs={pairs}")


def test_09_regions_partition_space():
    started = time.perf_counter()
    ok = True
    for n in (4, 5, 6):
        eps = tuple(-1 if i % 2 == 0 else 1 for i in range(n))
        trees = cb.enumerate_trees(eps)
        rng = random.Random(f"{SEED}:partition:{n}")
        tested = 0
        while tested < 10_000:
            x = tuple(
                Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000))
                for _ in range(n)
            )
            if len(set(x)) < n:
                continue
            tested += 1
            landed = cb.locate_tree(x, eps)
            ok = ok and cb.region_contains(landed, x, strict=True)
            others = sum(
                1 for t in trees if t != landed and cb.region_contains(t, x)
            )
            ok = ok and others == 0
        ok = ok and tested == 10_000
    _report(9, "regions partition space at every sampled point", ok, started,
            "samples=30000")


def test_10_wall_points_satisfy_stability():
    started = time.perf_counter()
    ok = True
    walls = 0
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                for k in range(1, n):
                    _, stable = cb.wall_stability_point(tree, k)
                    ok = ok and stable
                    walls += 1
    _report(10, "every region wall satisfies the stability inequalities", ok,
            started, f"walls={walls}")


def test_11_stability_domain_closed_form():
    started = time.perf_counter()
    eps = (1, -1, -1, 1)
    beta = Root(2, 4)
    ok = True
    rng = random.Random(SEED)
    for _ in range(1000):
        v = tuple(
            Fraction(rng.randint(-(10**4), 10**4), rng.randint(1, 100))
            for _ in range(3)
        )
        expected = v[0] == v[2] and v[1] >= v[2]
        ok = ok and cb.stability_domain_contains(eps, beta, v) == expected
    boundary = [
        ((0, 0, 0), True),
        ((1, 1, 1), True),
        ((-3, -3, -3), True),
        ((2, 5, 2), True),
        ((2, 2, 2), True),
        ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), True),
        ((1, 0, 1), False),
        ((0, 0, 1), False),
        ((1, 1, 0), False),
        ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)), False),
    ]
    for v, expected in boundary:
        ok = ok and cb.stability_domain_contains(eps, beta, v) == expected
    _report(11, "stability domain matches its closed form", ok, started,
            "samples=1000 boundary=10")


def test_12_property_suites():
    started = time.perf_counter()
    ok = True
    # Mutation involution and connectivity of the mutation graph.
    for n in range(1, 6):
        for eps in all_epsilons(n):
            trees = cb.enumerate_trees(eps)
            for tree in trees:
                for k in range(1, n):
                    ok = ok and cb.mutate(cb.mutate(tree, k), k) == tree
            start = cb.initial_tree(eps)
            seen = {start}
            frontier = [start]
            while frontier:
                tree = frontier.pop()
                for k in range(1, n):
                    image = cb.mutate(tree, k)
                    if image not in seen:
                        seen.add(image)
                        frontier.append(image)
            ok = ok and seen == set(trees)
    # Unimodular c-matrices one size beyond the sweep above.
    for n in range(2, 7):
        for eps in all_epsilons(n):
            ok = ok and all(
                cb.c_matrix(t).det() in (1, -1) for t in cb.enumerate_trees(eps)
            )
    # Pairing table of the skew form on the nested interval vectors.
    for n in range(2, 6):
        for eps in all_epsilons(n):
            x = cb.x_matrix(eps)
            for p in range(1, n + 1):
                gp = cb.interval_vector(p, n, n)
                for q in range(1, n + 1):
                    gq = cb.interval_vector(q, n, n)
                    actual = linalg.dot(linalg.vec_mat(gp, x), gq)
                    if p == q or n in (p, q):
                        expected = 0
                    elif p < q:
                        expected = eps[q - 1]
                    else:
                        expected = -eps[p - 1]
                    ok = ok and actual == expected
    # Sign laws of the principal part for every pair of edges.
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                b = cb.exchange_matrix(tree).b_rows
                for k in range(1, n):
                    ek = tree.edges[k - 1]
                    for j in range(1, n):
                        if j == k:
                            ok = ok and b[k - 1][j - 1] == 0
                            continue
                        ej = tree.edges[j - 1]
                        entry = b[k - 1][j - 1]
                        if not ({ek.p, ek.q} & {ej.p, ej.q}):
                            ok = ok and entry == 0
                        elif ek.p == ej.p or ek.q == ej.q:
                            ok = ok and entry == ek.slope
                        elif ek.q == ej.p:
                            ok = ok and entry == eps[ek.q - 1] * ej.slope * ek.slope
                        else:
                            ok = ok and entry == -eps[ek.p - 1] * ej.slope * ek.slope
    _report(12, "mutation, determinant, pairing-table, and sign-law properties",
            ok, started)
