"""Tests for the cluster-tree correspondence and wall stability."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations, islice, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cobinary as cb
from cobinary import clusters, correspondence, linalg, verify

from conftest import (
    CLU_C_ROWS,
    CLU_EPS,
    CLU_LIFTED,
    CLU_RANKING,
    CLU_RANKING_ALT,
    CLU_SUM,
    CLU_TREE_EDGES,
    CLU_V_COLS,
    CLU_VTE_ROWS,
    all_epsilons,
)
from oracles import (
    cluster_violation_by_matrix,
    mutate_c_columns,
    pairing_by_product,
    rankings_with_tie_breaks,
)

# ---------------------------------------------------------------------------
# the difference map and its lift
# ---------------------------------------------------------------------------


def test_f_map_goldens():
    assert cb.f_map((0, 0, 1, 1, 1)) == (0, 1, 0, 0)
    assert cb.f_map((7, 7, 7, 7)) == (0, 0, 0)
    assert cb.f_map((2, 1, 4, 3, 2)) == (-1, 3, -1, -1)


def test_f_lift_goldens():
    assert cb.f_lift((0, 1, 0, 0)) == (0, 0, 1, 1, 1)
    assert cb.f_lift(()) == (0,)
    assert cb.f_lift((1, -1)) == (0, 1, 0)


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=8))
def test_f_map_inverts_f_lift(y):
    assert cb.f_map(cb.f_lift(tuple(y))) == tuple(y)


@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=2,
        max_size=7,
    )
)
def test_f_lift_recovers_up_to_diagonal_shift(x):
    lifted = cb.f_lift(cb.f_map(tuple(x)))
    shift = x[0]
    assert tuple(v + shift for v in lifted) == tuple(x)


# ---------------------------------------------------------------------------
# cluster -> tree
# ---------------------------------------------------------------------------


def test_worked_example_intermediates(cluster_demo_matrix):
    work = cb.cluster_to_tree_work(cluster_demo_matrix, CLU_EPS)
    assert work.vt_e_rows == CLU_VTE_ROWS
    assert work.lifted_rows == CLU_LIFTED
    assert work.sum_vector == CLU_SUM
    assert work.ranking == CLU_RANKING
    assert CLU_RANKING_ALT in work.tied_rankings
    assert work.c_matrix.rows == CLU_C_ROWS
    assert tuple(e.triple for e in work.tree.edges) == CLU_TREE_EDGES


def test_both_tie_breaks_verify(cluster_demo_matrix):
    work = cb.cluster_to_tree_work(cluster_demo_matrix, CLU_EPS)
    for sigma in work.tied_rankings:
        assert cb.tree_from_permutation(sigma, CLU_EPS) == work.tree


def test_initial_cluster_maps_to_staircase():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            tree = cb.cluster_to_tree(cb.initial_cluster(eps), eps)
            assert tree == cb.initial_tree(eps)


def test_two_node_pairs():
    for eps in all_epsilons(2):
        up = cb.cluster_to_tree(cb.ClusterMatrix(((1,),)), eps)
        down = cb.cluster_to_tree(cb.ClusterMatrix(((-1,),)), eps)
        assert up.triples == ((1, 2, 1),)
        assert down.triples == ((1, 2, -1),)


def test_single_node_pairs_with_empty_cluster():
    for eps in ((1,), (-1,)):
        tree = cb.cluster_to_tree(cb.ClusterMatrix(()), eps)
        assert tree.n == 1
        assert cb.tree_to_cluster(tree).columns == ()


def test_non_cluster_input_fails_verification():
    # (0, -1) is a negative root but not a negated projective row here, so
    # the decoded c-matrix can never be realized by a tree.
    bad = cb.ClusterMatrix(((1, 0), (0, -1)))
    eps = (1, 1, 1)
    assert not cb.is_cluster_matrix(bad, eps)
    with pytest.raises(cb.VerificationFailed):
        cb.cluster_to_tree(bad, eps)


# ---------------------------------------------------------------------------
# tree -> cluster
# ---------------------------------------------------------------------------


def test_worked_example_cluster_round_trip(cluster_demo_matrix):
    tree = cb.cluster_to_tree(cluster_demo_matrix, CLU_EPS)
    assert cb.tree_to_cluster(tree).columns == CLU_V_COLS


def test_staircase_maps_to_initial_cluster():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            cluster = cb.tree_to_cluster(cb.initial_tree(eps))
            assert cluster.columns == cb.initial_cluster(eps).columns


def test_round_trips_both_ways_exhaustively_small():
    for n in range(2, 5):
        for eps in all_epsilons(n):
            trees = set(cb.enumerate_trees(eps))
            clusters = cb.enumerate_clusters(eps)
            assert len(clusters) == len(trees)
            seen = set()
            for cluster in clusters:
                tree = cb.cluster_to_tree(cluster, eps)
                assert cb.tree_to_cluster(tree).key() == cluster.key()
                seen.add(tree)
            assert seen == trees
            for tree in trees:
                cluster = cb.tree_to_cluster(tree)
                assert cb.cluster_to_tree(cluster, eps) == tree


def test_pairing_is_certified(cluster_demo_tree, cluster_demo_matrix):
    paired = cb.tree_to_cluster(cluster_demo_tree)
    assert cb.verify_pairing_identity(cluster_demo_tree, paired)
    work = cb.cluster_to_tree_work(cluster_demo_matrix, CLU_EPS)
    assert cb.verify_pairing_identity(work.tree, cluster_demo_matrix)


def test_pairing_matrix_is_identity_under_edge_order():
    for eps in all_epsilons(4):
        for tree in cb.enumerate_trees(eps):
            cluster = cb.tree_to_cluster(tree)
            vt = linalg.as_matrix(cluster.columns)
            product = linalg.mat_mul(
                linalg.mat_mul(vt, cb.euler_matrix(eps)), cb.c_matrix(tree).rows
            )
            assert product == linalg.identity(3)


def test_classical_and_tree_c_vectors_agree():
    for eps in all_epsilons(4):
        for cluster in cb.enumerate_clusters(eps):
            tree = cb.cluster_to_tree(cluster, eps)
            classical = sorted(cb.classical_c_matrix(cluster, eps).columns)
            geometric = sorted(cb.c_matrix(tree).columns)
            assert classical == geometric


# ---------------------------------------------------------------------------
# mutation compatibility: three routes to the same neighbour
# ---------------------------------------------------------------------------


def test_all_mutation_routes_agree():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                btilde = cb.exchange_matrix(tree)
                for k in range(1, n):
                    surgery = cb.mutate(tree, k)
                    via_fz = cb.tree_from_c_matrix(
                        cb.CMatrix(cb.fz_mutate(btilde, k).c_columns), eps
                    )
                    via_recipe = cb.tree_from_c_matrix(
                        mutate_c_columns(tree, k), eps
                    )
                    assert surgery == via_fz == via_recipe
                    if n <= 4:
                        # Cluster derivation is a function of the tree, so
                        # checking the route equality above covers it; the
                        # direct comparison stays on the small sizes.
                        assert (
                            cb.tree_to_cluster(surgery).key()
                            == cb.tree_to_cluster(via_fz).key()
                        )


# ---------------------------------------------------------------------------
# wall stability
# ---------------------------------------------------------------------------


def test_worked_example_long_root_wall(cluster_demo_tree):
    relabelled = cluster_demo_tree.relabelled(list(CLU_TREE_EDGES))
    x, stable = cb.wall_stability_point(relabelled, 1)
    assert stable
    y = cb.f_map(x)
    assert sum(y[0:3]) == 0  # the wall equation for the root on (1, 4)


def test_wall_points_pass_stability_small():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                for k in range(1, n):
                    x, stable = cb.wall_stability_point(tree, k)
                    assert stable, (eps, tree.triples, k)
                    edge = tree.edge(k)
                    assert x[edge.p - 1] == x[edge.q - 1]
                    assert cb.region_contains(tree, x, strict=False)
                    assert not cb.region_contains(tree, x, strict=True)


def test_staircase_wall_equation_is_exact():
    for eps in all_epsilons(5):
        t0 = cb.initial_tree(eps)
        for k in range(1, 5):
            x, stable = cb.wall_stability_point(t0, k)
            assert stable
            assert cb.f_map(x)[k - 1] == 0


# ---------------------------------------------------------------------------
# cone cover
# ---------------------------------------------------------------------------


def test_weight_cones_cover_space_once():
    eps = CLU_EPS
    n = len(eps)
    trees = cb.enumerate_trees(eps)
    pairs = [(t, cb.tree_to_cluster(t), cb.c_matrix(t).columns) for t in trees]
    e_inv_t = linalg.transpose(cb.euler_inverse(eps))
    rng = random.Random(3)
    roots = [r.vector(n) for r in cb.positive_roots(n)]
    tested = 0
    while tested < 1000:
        y = tuple(
            Fraction(rng.randint(-200, 200), rng.randint(1, 9))
            for _ in range(n - 1)
        )
        if any(linalg.dot(y, root) == 0 for root in roots):
            continue
        tested += 1
        # In the owning cluster basis, E^{-t} y has positive coordinates;
        # in every other basis at least one coordinate is negative.
        owners = []
        for tree, cluster, columns in pairs:
            coords = tuple(linalg.dot(y, c) for c in columns)
            if all(c > 0 for c in coords):
                owners.append((tree, cluster, coords))
            else:
                assert any(c < 0 for c in coords)
        assert len(owners) == 1
        _, cluster, coords = owners[0]
        z = linalg.mat_vec(e_inv_t, y)
        assert _solve_in_basis(cluster, z) == coords


def _solve_in_basis(cluster: cb.ClusterMatrix, z):
    """Coordinates of z in the cluster's column basis, solved exactly."""
    rows = [list(col) for col in linalg.transpose(cluster.columns)]
    m = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(m)] + [Fraction(z[i])] for i in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[r][m] for r in range(m))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_bijection_report_is_fully_verified():
    report = cb.bijection_report((-1, 1, -1, 1))
    assert len(report) == 14
    assert all(entry["verified"] for entry in report)
    trees = {entry["tree"] for entry in report}
    assert trees == set(cb.enumerate_trees((-1, 1, -1, 1)))


# ---------------------------------------------------------------------------
# the cut rule and the telescoping certificate
# ---------------------------------------------------------------------------


def test_cut_rule_is_the_inverse_c_matrix():
    for n in range(2, 8):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                rows = tuple(cb.f_map(side) for side in correspondence._cut_sides(tree))
                assert rows == linalg.inverse_integer(cb.c_matrix(tree).rows)


def test_telescoping_pairing_agrees_with_the_matrix_product():
    rng = random.Random(5)
    checked = {True: 0, False: 0}
    for n in range(2, 6):
        for eps in all_epsilons(n):
            trees = cb.enumerate_trees(eps)
            clusters = [cb.tree_to_cluster(t) for t in trees]
            for tree, cluster in zip(trees, clusters):
                others = [cluster] + rng.sample(clusters, min(3, len(clusters)))
                cols = list(cluster.columns)
                rng.shuffle(cols)
                others.append(cb.ClusterMatrix(tuple(cols)))
                for other in others:
                    got = cb.verify_pairing_identity(tree, other)
                    assert got == pairing_by_product(tree, other)
                    checked[got] += 1
    assert checked[True] > 1000 and checked[False] > 1000


def test_interval_euler_form_is_the_matrix_euler_form():
    for n in range(2, 9):
        for eps in all_epsilons(n):
            counts = clusters._arrow_counts(eps)
            vectors = [r.vector for r in cb.almost_positive_roots(eps)]
            roots = [cb.root_from_vector(v) for v in vectors]
            for u, a in zip(vectors, roots):
                for v, b in zip(vectors, roots):
                    assert clusters._root_euler(counts, a, b) == cb.euler_form(eps, u, v)


def test_cluster_violation_matches_the_matrix_route():
    rng = random.Random(17)
    messages = set()
    for trial in range(3000):
        n = rng.randint(1, 7)
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        pool = [r.vector for r in cb.almost_positive_roots(eps)] if n > 1 else []
        size = n - 1 if rng.random() < 0.9 else rng.randint(0, n)
        cols = []
        for _ in range(size):
            if pool and rng.random() < 0.85:
                cols.append(rng.choice(pool))
            else:
                cols.append(tuple(rng.choice((-1, 0, 1, 2)) for _ in range(n - 1)))
        if cols and rng.random() < 0.03:
            cols[-1] = cols[-1][:-1]
        expected = cluster_violation_by_matrix(cols, eps)
        assert cb.cluster_violation(cols, eps) == expected, (eps, cols)
        messages.add(expected if expected is None else expected.split(" ")[0])
    assert messages == {None, "expected", "column", "columns", "a"}


def test_tied_rankings_follow_every_tie_break_in_order():
    rng = random.Random(2)
    for _ in range(300):
        x = [rng.randint(0, 3) for _ in range(rng.randint(1, 7))]
        assert correspondence._tied_rankings(x, 24) == tuple(
            islice(rankings_with_tie_breaks(x), 24)
        )
    # Forty tied values: no group's orders are all listed.
    assert len(correspondence._tied_rankings((0,) * 40, 24)) == 24


@st.composite
def large_tree(draw):
    n = draw(st.integers(min_value=12, max_value=40))
    sigma = draw(st.permutations(range(1, n + 1)))
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return cb.tree_from_permutation(sigma, eps)


@given(large_tree())
def test_tree_cluster_tree_round_trip_at_larger_n(tree):
    cluster = cb.tree_to_cluster(tree)
    assert cb.is_cluster_matrix(cluster, tree.epsilon)
    assert cb.verify_pairing_identity(tree, cluster)
    work = cb.cluster_to_tree_work(cluster, tree.epsilon)
    assert work.tree.edges == tree.edges
    assert work.c_matrix == cb.c_matrix(tree)


def test_a_mislabelled_cut_fails_the_certificate():
    for eps in all_epsilons(5):
        for tree in cb.enumerate_trees(eps):
            sides = correspondence._cut_sides(tree)
            cluster = cb.tree_to_cluster(tree)
            assert correspondence._telescopes(sides, tree)
            for j in range(1, 5):
                for k in range(j + 1, 5):
                    triples = [e.triple for e in tree.edges]
                    triples[j - 1], triples[k - 1] = triples[k - 1], triples[j - 1]
                    swapped = tree.relabelled(triples)
                    assert not correspondence._telescopes(sides, swapped)
                    assert not cb.verify_pairing_identity(swapped, cluster)


def test_mutant_cut_rules_are_caught(monkeypatch):
    cut_sides = correspondence._cut_sides

    def side_of_edge_two_twice(tree):
        sides = cut_sides(tree)
        return [sides[1]] + sides[1:]

    def sides_of_edges_one_and_two_swapped(tree):
        sides = cut_sides(tree)
        return [sides[1], sides[0]] + sides[2:]

    eps = (1, -1, -1, 1, -1)
    trees = cb.enumerate_trees(eps)
    monkeypatch.setattr(correspondence, "_cut_sides", side_of_edge_two_twice)
    for tree in trees:
        with pytest.raises(cb.CobinaryError):
            cb.tree_to_cluster(tree)
    monkeypatch.setattr(correspondence, "_cut_sides", sides_of_edges_one_and_two_swapped)
    assert not any(entry["verified"] for entry in cb.bijection_report(eps))


def test_cuts_of_another_tree_do_not_rebuild_the_tree(monkeypatch):
    # The cuts of a neighbouring tree give a genuine cluster, so only the
    # rebuild from the summed cut indicators can tell the trees apart.
    cut_sides = correspondence._cut_sides
    monkeypatch.setattr(
        correspondence, "_cut_sides", lambda tree: cut_sides(cb.mutate(tree, 1))
    )
    for tree in cb.enumerate_trees((1, -1, -1, 1, -1)):
        with pytest.raises(cb.NotACluster, match="does not reconstruct the tree"):
            cb.tree_to_cluster(tree)


def test_bijection_suite_consults_the_gauss_jordan_oracle(monkeypatch):
    # A decode that swaps two edge labels still round-trips (the cluster of
    # the swapped tree is the swapped cluster) and still pairs with that
    # cluster; only the classical c-matrix of the original cluster sees it.
    eps = (1, -1, -1, 1, -1)
    assert verify.suite_bijection(eps, 6, 10, 0).passed

    def swap_first_two_labels(cluster, epsilon):
        tree = cb.cluster_to_tree(cluster, epsilon)
        triples = [e.triple for e in tree.edges]
        return tree.relabelled([triples[1], triples[0], *triples[2:]])

    monkeypatch.setattr(verify, "cluster_to_tree", swap_first_two_labels)
    assert not verify.suite_bijection(eps, 6, 10, 0).passed


def _first_two_labels_swapped(cluster, epsilon):
    tree = cb.cluster_to_tree(cluster, epsilon)
    triples = [e.triple for e in tree.edges]
    return tree.relabelled([triples[1], triples[0], *triples[2:]])


def _first_two_columns_swapped(tree):
    cols = cb.tree_to_cluster(tree).columns
    return cb.ClusterMatrix((cols[1], cols[0], *cols[2:]))


def test_the_bijection_suite_compares_the_way_back_exactly(monkeypatch):
    # The tree is right, so the oracle passes; the cluster it re-encodes to
    # has the right columns in the wrong order.
    eps = (1, -1, -1, 1, -1)
    monkeypatch.setattr(verify, "tree_to_cluster", _first_two_columns_swapped)
    assert not verify.suite_bijection(eps, 6, 10, 0).passed


def test_a_label_swap_undone_on_the_way_back_is_caught_only_by_the_oracle(
    monkeypatch,
):
    # Both directions mislabel, and the second undoes the first: each pair
    # still re-encodes to its cluster exactly, so the exact comparison
    # passes, and only the Gauss-Jordan c-matrix of the cluster sees it.
    eps = (1, -1, -1, 1, -1)
    monkeypatch.setattr(verify, "cluster_to_tree", _first_two_labels_swapped)
    monkeypatch.setattr(verify, "tree_to_cluster", _first_two_columns_swapped)
    for cluster in cb.enumerate_clusters(eps):
        tree = verify.cluster_to_tree(cluster, eps)
        assert verify.tree_to_cluster(tree) == cluster
        assert cb.c_matrix(tree) != cb.classical_c_matrix(cluster, eps)
    assert not verify.suite_bijection(eps, 6, 10, 0).passed

    def c_matrix_of_the_mutant(cluster, epsilon):
        return cb.c_matrix(verify.cluster_to_tree(cluster, epsilon))

    monkeypatch.setattr(verify, "classical_c_matrix", c_matrix_of_the_mutant)
    assert verify.suite_bijection(eps, 6, 10, 0).passed


def _rejected_edge_sets(n_max):
    """Every set of n - 1 signed edges on distinct node pairs, n <= n_max and
    every sign sequence, that make_tree rejects, labelled in (p, q) order."""
    for n in range(2, n_max + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for eps in all_epsilons(n):
            for chosen in combinations(pairs, n - 1):
                for slopes in product((1, -1), repeat=n - 1):
                    triples = [(p, q, s) for (p, q), s in zip(chosen, slopes)]
                    try:
                        cb.make_tree(eps, triples)
                    except cb.CobinaryError:
                        yield eps, triples


def test_tree_to_cluster_rejects_every_edge_set_that_is_not_a_tree():
    # Built without make_tree's checks; the messages are pinned.
    digest, count = hashlib.sha256(), 0
    for eps, triples in _rejected_edge_sets(4):
        edges = tuple(cb.SignedEdge(i + 1, *t) for i, t in enumerate(triples))
        with pytest.raises(cb.NotACluster) as info:
            cb.tree_to_cluster(cb.MixedCobinaryTree(len(eps), eps, edges))
        digest.update(f"{eps} {triples} NotACluster: {info.value}\n".encode())
        count += 1
    assert count == 2392
    assert digest.hexdigest() == (
        "3477347fba246546aca73502b51aaefa307d89893c55a6710c4f3ec8f529a077"
    )


def test_decode_succeeds_exactly_on_clusters():
    # Perturb one column of every cluster: swap in another almost positive
    # root (n <= 4) or negate it (n <= 5).  A square matrix decodes to a
    # tree exactly when it is a cluster, and then the pairing holds.
    outcomes = set()
    for n in range(2, 6):
        for eps in all_epsilons(n):
            pool = [r.vector for r in cb.almost_positive_roots(eps)] if n <= 4 else []
            for cluster in cb.enumerate_clusters(eps):
                for k, col in enumerate(cluster.columns):
                    for new in pool + [tuple(-x for x in col)]:
                        cols = cluster.columns[:k] + (new,) + cluster.columns[k + 1 :]
                        candidate = cb.ClusterMatrix(cols)
                        try:
                            tree = cb.cluster_to_tree(candidate, eps)
                        except cb.VerificationFailed:
                            tree = None
                        assert (tree is not None) == cb.is_cluster_matrix(cols, eps)
                        assert tree is None or cb.verify_pairing_identity(tree, candidate)
                        outcomes.add(tree is None)
    assert outcomes == {True, False}


def test_failed_certificates_are_named_by_gauss_jordan():
    cases = [
        ((-1, -1, -1), ((-1, -1), (1, 2)), "(V^t E)^{-1} has a non-root column"),
        ((1, 1, 1), ((2, 0), (0, 1)), "V^t E is not invertible over Z: inverse has"),
        ((1, 1, 1), ((1, 0), (1, 0)), "V^t E is not invertible over Z: matrix is"),
        ((1, 1, 1), ((1, 0), (0, 1)), "no tie-break of the rank vector"),
    ]
    for eps, cols, message in cases:
        with pytest.raises(cb.VerificationFailed) as info:
            cb.cluster_to_tree(cb.ClusterMatrix(cols), eps)
        assert str(info.value).startswith(message)
    with pytest.raises(ValueError, match="3 nodes pair with clusters of 2 columns"):
        cb.cluster_to_tree(cb.ClusterMatrix(((1,),)), (1, 1, 1))
