"""Roots, clusters, classical c-matrices, and stability-domain tests."""

from __future__ import annotations

import gc
import hashlib
import random
import weakref
from fractions import Fraction
from itertools import permutations as all_perms

import pytest

import cobinary as cb
from cobinary import Root, exchange, linalg

from conftest import (
    CLU_C_ROWS,
    CLU_E_INV,
    CLU_EPS,
    all_epsilons,
    cli_in_process,
    guarded,
    sha256_lines,
)
from oracles import (
    enumerate_clusters_bruteforce,
    euler_form,
    root_euler,
    stability_by_products,
)

RIGHT_CHAIN = (1, -1, -1, 1)  # three-vertex quiver with both arrows rightward

# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def test_root_vector_round_trip():
    for n in range(2, 7):
        for root in cb.positive_roots(n):
            assert cb.root_from_vector(root.vector(n)) == root
            neg = cb.root_from_vector((-root).vector(n))
            assert (neg.p, neg.q, neg.sign) == (root.p, root.q, -1)


def test_root_decoding_rejects_non_roots():
    for bad in ((0, 0, 0), (1, 0, 1), (1, -1, 0), (2, 0, 0)):
        with pytest.raises(cb.NotARoot):
            cb.root_from_vector(bad)
        assert not cb.is_root_vector(bad)


# ---------------------------------------------------------------------------
# projective roots and almost positive roots
# ---------------------------------------------------------------------------


def test_projective_rows_golden():
    rows = cb.projective_roots(CLU_EPS)
    assert rows == CLU_E_INV
    assert rows[3] == (0, 0, 1, 1)


def test_projective_rows_right_chain():
    assert cb.projective_roots(RIGHT_CHAIN) == ((1, 1, 1), (0, 1, 1), (0, 0, 1))


def test_projective_rows_two_nodes():
    for eps in all_epsilons(2):
        assert cb.projective_roots(eps) == ((1,),)


def test_projective_rows_are_checked_nonnegative(monkeypatch):
    negative = ((1, -1), (0, 1))
    monkeypatch.setattr("cobinary.clusters.euler_inverse", lambda eps: negative)
    with pytest.raises(cb.VerificationFailed, match="negative entry"):
        cb.projective_roots((1, 1, 1))


def test_almost_positive_root_counts():
    for n in range(2, 7):
        for eps in [(1,) * n, (-1, 1) * (n // 2) + (-1,) * (n % 2)]:
            roots = cb.almost_positive_roots(eps)
            assert len(roots) == n * (n - 1) // 2 + (n - 1)
            assert len({r.vector(n) for r in roots}) == len(roots)


def test_almost_positive_roots_two_nodes():
    vectors = {r.vector(2) for r in cb.almost_positive_roots((1, -1))}
    assert vectors == {(1,), (-1,)}


def test_almost_positive_roots_three_nodes_structure():
    eps = (1, -1, 1)
    roots = cb.almost_positive_roots(eps)
    positives = [r for r in roots if r.sign == 1]
    negatives = [r for r in roots if r.sign == -1]
    assert [r.vector(3) for r in positives] == [(1, 0), (1, 1), (0, 1)]
    assert [r.vector(3) for r in negatives] == [
        tuple(-x for x in row) for row in cb.projective_roots(eps)
    ]


# ---------------------------------------------------------------------------
# Euler form
# ---------------------------------------------------------------------------


def test_euler_form_of_a_root_with_itself_is_one():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for root in cb.positive_roots(n):
                vec = root.vector(n)
                assert euler_form(eps, vec, vec) == 1


def test_euler_form_right_chain_golden():
    beta = (0, 1, 1)
    e = cb.euler_matrix(RIGHT_CHAIN)
    assert linalg.mat_vec(e, beta) == (-1, 0, 1)
    assert euler_form(RIGHT_CHAIN, (1, 0, 0), beta) == -1


def test_euler_form_zero_vector():
    assert euler_form(RIGHT_CHAIN, (0, 0, 0), (5, -2, 7)) == 0


def test_euler_form_length_mismatch():
    with pytest.raises(ValueError):
        euler_form(RIGHT_CHAIN, (1, 0), (0, 1, 0))


# ---------------------------------------------------------------------------
# subroots
# ---------------------------------------------------------------------------


def _arrows(eps):
    """Quiver arrows (i, j) on vertices 1..n-1."""
    n = len(eps)
    arrows = []
    for a in range(1, n - 1):
        if eps[a] == 1:
            arrows.append((a + 1, a))
        else:
            arrows.append((a, a + 1))
    return arrows


def _embeds(eps, inner, outer) -> bool:
    """Brute-force subrepresentation test: the inner interval module sits
    inside the outer one when no arrow leaves the inner support while
    staying inside the outer support."""
    a, b = inner
    p, q = outer
    if not (p <= a < b <= q) or (a, b) == (p, q):
        return False
    inner_support = set(range(a, b))
    outer_support = set(range(p, q))
    for i, j in _arrows(eps):
        if i in inner_support and j in outer_support - inner_support:
            return False
    return True


def test_subroots_match_bruteforce_embedding_oracle():
    for n in range(2, 7):
        for eps in all_epsilons(n):
            for beta in cb.positive_roots(n):
                expected = {
                    (a, b)
                    for a in range(1, n + 1)
                    for b in range(a + 1, n + 1)
                    if _embeds(eps, (a, b), (beta.p, beta.q))
                }
                actual = {(r.p, r.q) for r in cb.subroots(eps, beta)}
                assert actual == expected, (eps, beta)


def test_subroots_goldens():
    assert {(r.p, r.q) for r in cb.subroots(CLU_EPS, Root(1, 4))} == {
        (1, 2),
        (3, 4),
    }
    assert [(r.p, r.q) for r in cb.subroots(RIGHT_CHAIN, Root(2, 4))] == [(3, 4)]


def test_simple_roots_have_no_subroots():
    for eps in all_epsilons(5):
        for i in range(1, 5):
            assert cb.subroots(eps, Root(i, i + 1)) == []


def test_subroots_require_positive_root():
    with pytest.raises(cb.NotARoot):
        cb.subroots(CLU_EPS, Root(1, 3, -1))


# ---------------------------------------------------------------------------
# cluster matrices
# ---------------------------------------------------------------------------


def test_demo_matrix_is_a_cluster(cluster_demo_matrix):
    assert cb.cluster_violation(cluster_demo_matrix, CLU_EPS) is None


def test_initial_cluster_is_a_cluster():
    for n in range(2, 7):
        for eps in all_epsilons(n):
            assert cb.cluster_violation(cb.initial_cluster(eps), eps) is None


def test_repeated_column_is_not_a_cluster():
    cols = ((1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert cb.cluster_violation(cols, CLU_EPS) is not None
    assert "distinct" in cb.cluster_violation(cols, CLU_EPS)


def test_non_root_column_is_not_a_cluster():
    cols = ((1, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert "almost positive" in cb.cluster_violation(cols, CLU_EPS)


def test_wrong_shape_is_not_a_cluster():
    assert cb.cluster_violation(((1, 0), (0, 1)), CLU_EPS) is not None


def test_negative_non_projective_is_not_a_cluster():
    # -(0,1,0,0) is a negative root but not a negated projective row here.
    cols = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert cb.cluster_violation(cols, CLU_EPS) is not None


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_two_node_clusters():
    for eps in all_epsilons(2):
        clusters = cb.enumerate_clusters(eps)
        assert [c.columns for c in clusters] == [((-1,),), ((1,),)]


def test_enumeration_agrees_with_bruteforce_filter():
    for n in range(2, 5):
        for eps in all_epsilons(n):
            fast = [c.columns for c in cb.enumerate_clusters(eps)]
            slow = [c.columns for c in enumerate_clusters_bruteforce(eps)]
            assert fast == slow
            assert len(fast) == cb.catalan(n)


def test_five_node_cluster_count_and_membership(cluster_demo_matrix):
    clusters = cb.enumerate_clusters(CLU_EPS)
    assert len(clusters) == 42
    assert cluster_demo_matrix.key() in {c.key() for c in clusters}


def test_enumeration_is_deterministic():
    a = [c.columns for c in cb.enumerate_clusters(CLU_EPS)]
    b = [c.columns for c in cb.enumerate_clusters(CLU_EPS)]
    assert a == b == sorted(a)


# ---------------------------------------------------------------------------
# classical c-matrix
# ---------------------------------------------------------------------------


def test_classical_c_matrix_demo(cluster_demo_matrix):
    cmat = cb.classical_c_matrix(cluster_demo_matrix, CLU_EPS)
    assert cmat.rows == CLU_C_ROWS


def test_initial_cluster_has_identity_c_matrix():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            cmat = cb.classical_c_matrix(cb.initial_cluster(eps), eps)
            assert cmat.rows == linalg.identity(n - 1)


def test_column_permutation_equivariance(cluster_demo_matrix):
    base = cb.classical_c_matrix(cluster_demo_matrix, CLU_EPS).columns
    for order in ((2, 0, 3, 1), (3, 2, 1, 0)):
        permuted = cb.ClusterMatrix(
            tuple(cluster_demo_matrix.columns[i] for i in order)
        )
        cmat = cb.classical_c_matrix(permuted, CLU_EPS)
        assert cmat.columns == tuple(base[i] for i in order)


def test_classical_c_matrix_rejects_singular_input():
    cols = ((1, 0, 0, 0), (1, 1, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1))
    vt_e = linalg.mat_mul(linalg.as_matrix(cols), cb.euler_matrix(CLU_EPS))
    if linalg.det(vt_e) == 0:
        with pytest.raises(cb.SingularV):
            cb.classical_c_matrix(cb.ClusterMatrix(cols), CLU_EPS)
    else:
        pytest.skip("chosen columns are not singular")


def test_classical_c_matrix_detects_non_integral_inverse():
    cols = ((2, 1), (1, 1))
    with pytest.raises((cb.NonIntegralResult, cb.NotACluster)):
        cb.classical_c_matrix(cb.ClusterMatrix(cols), (1, 1, 1))


def test_classical_c_vectors_are_roots_everywhere_small():
    for n in range(2, 5):
        for eps in all_epsilons(n):
            for cluster in cb.enumerate_clusters(eps):
                cmat = cb.classical_c_matrix(cluster, eps)
                for col in cmat.columns:
                    assert cb.is_root_vector(col)


# ---------------------------------------------------------------------------
# unipotent ordering and uniqueness of the paired roots
# ---------------------------------------------------------------------------


def _unipotent_order_exists(cluster: cb.ClusterMatrix, eps) -> bool:
    cols = cluster.columns
    m = len(cols)
    e = cb.euler_matrix(eps)
    forms = [
        [linalg.dot(linalg.vec_mat(cols[i], e), cols[j]) for j in range(m)]
        for i in range(m)
    ]
    if any(forms[i][i] != 1 for i in range(m)):
        return False
    for order in all_perms(range(m)):
        if all(
            forms[order[i]][order[j]] == 0
            for i in range(m)
            for j in range(i)
        ):
            return True
    return False


def test_every_cluster_admits_a_unipotent_ordering():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for cluster in cb.enumerate_clusters(eps):
                assert _unipotent_order_exists(cluster, eps)
                assert abs(linalg.det(cluster.rows)) == 1


def test_paired_roots_are_unique():
    # For each cluster the absolute classical c-vectors are the only
    # positive roots whose stability domain contains all other columns.
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for cluster in cb.enumerate_clusters(eps):
                cmat = cb.classical_c_matrix(cluster, eps)
                for i, col in enumerate(cmat.columns):
                    r = cb.root_from_vector(col)
                    beta_i = cb.Root(r.p, r.q)
                    matches = [
                        root
                        for root in cb.positive_roots(n)
                        if all(
                            cb.stability_domain_contains(eps, root, v)
                            for j, v in enumerate(cluster.columns)
                            if j != i
                        )
                    ]
                    assert matches == [beta_i], (eps, cluster.columns, i)


# ---------------------------------------------------------------------------
# stability domains
# ---------------------------------------------------------------------------


def test_right_chain_stability_closed_form():
    beta = Root(2, 4)
    rng = random.Random(11)
    for _ in range(400):
        v = tuple(
            Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(3)
        )
        expected = v[0] == v[2] and v[1] >= v[2]
        assert cb.stability_domain_contains(RIGHT_CHAIN, beta, v) == expected


def test_demo_columns_lie_in_the_long_root_domain(cluster_demo_matrix):
    beta = Root(1, 4)
    for col in cluster_demo_matrix.columns[1:]:
        assert cb.stability_domain_contains(CLU_EPS, beta, col)
    # Nonnegative combinations stay inside.
    combo = tuple(
        sum(3 * a + 2 * b + c for a, b, c in [triple])
        for triple in zip(*cluster_demo_matrix.columns[1:])
    )
    assert cb.stability_domain_contains(CLU_EPS, beta, combo)


def test_zero_vector_is_in_every_domain():
    for eps in all_epsilons(4):
        for beta in cb.positive_roots(4):
            assert cb.stability_domain_contains(eps, beta, (0, 0, 0))


def test_stability_requires_matching_length():
    with pytest.raises(ValueError):
        cb.stability_domain_contains(CLU_EPS, Root(1, 2), (1, 0))


@pytest.mark.parametrize("v", [(1, 0, 0), (0, 0, 0), (1, 0)])
def test_stability_requires_a_positive_root(v):
    # A negative root used to give False for v = (1, 0, 0), because the sign
    # was checked only once v^t E beta = 0, and a length error for (1, 0).
    with pytest.raises(cb.NotARoot, match="positive roots"):
        cb.stability_domain_contains((1, -1, -1, 1), Root(2, 4, -1), v)


def test_stability_on_lifts_matches_the_dense_products():
    # Every eps with n <= 6 and every positive root, against seeded int and
    # Fraction v with v^t E = y; half of the y vanish on beta, so the v lie
    # on its hyperplane and the subroot inequalities decide.
    rng = random.Random(15)
    verdicts = []
    for n in range(2, 7):
        for eps in all_epsilons(n):
            inv = cb.euler_inverse(eps)
            for beta in cb.positive_roots(n):
                for trial in range(8):
                    y = [rng.randint(-2, 2) for _ in range(n - 1)]
                    if trial % 2:
                        y = [Fraction(a, rng.randint(1, 3)) for a in y]
                    if trial >= 4:
                        y[beta.q - 2] -= sum(y[beta.p - 1 : beta.q - 1])
                    v = linalg.vec_mat(y, inv)
                    verdict = cb.stability_domain_contains(eps, beta, v)
                    assert verdict == stability_by_products(eps, beta, v), (eps, beta, v)
                    verdicts.append(verdict)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_compatibility_rows_match_the_euler_form_on_every_root_pair():
    for n in range(2, 8):
        for eps in all_epsilons(n):
            counts = exchange.quiver(eps).arrow_counts
            roots = cb.almost_positive_roots(eps)
            vectors = [r.vector(n) for r in roots]
            assert list(exchange.quiver(eps).positions) == vectors
            for at, u in enumerate(roots):
                row = exchange.quiver(eps).compatibility(at)
                assert row >> len(roots) == 0
                for b, v in enumerate(roots):
                    rule = v.sign == -1 or root_euler(counts, u, v) >= 0
                    assert bool(row >> b & 1) == rule, (eps, u, v)


# ---------------------------------------------------------------------------
# pinned outputs of the quiver side
# ---------------------------------------------------------------------------
# sha256 digests taken before the almost positive roots moved into one table
# and v^t E into one product; a change to either must leave them as they are.
# The stability_domain_contains digest was retaken once, when a negative beta
# began to raise NotARoot for every v: its 607 negative-beta rows changed
# (337 were False, 236 NotARoot from subroots, 34 ValueError) and no other.

PINNED_SHA256 = {
    "enumerate_clusters":
        "ae55e00baa1a710b7d8b072cc15617149a6a45356789ff2fe1a79119625bd263",
    "projective_roots":
        "131f992ca09e25379fee9959d8d186c2d87f8e900f89ae2bc001af524d5d27a8",
    "cluster_violation":
        "9265784f5a3457d68e65420bbcc1d1eff8619e9024a8e4a5a367eb52ef27a908",
    "stability_domain_contains":
        "73fc1a52a9e2c723eb24f5f178d3623d9977d2bccf2b9098ef4b1f175aed98c6",
    "clusters stability":
        "abed7f394965378bac5bf653601dbe39438a482819ead5e9117420a3ec1f7712",
}


def _root_pool(eps):
    """The almost positive root vectors, built without the library's table."""
    n = len(eps)
    positive = [r.vector(n) for r in cb.positive_roots(n)]
    return positive + [tuple(-x for x in row) for row in cb.projective_roots(eps)]


def test_enumerate_clusters_is_pinned():
    lines = (
        f"{eps} {[c.columns for c in cb.enumerate_clusters(eps)]}"
        for n in range(1, 8)
        for eps in all_epsilons(n)
    )
    assert sha256_lines(lines) == PINNED_SHA256["enumerate_clusters"]


# sha256 of repr([c.columns for c in enumerate_clusters(eps)]) above the
# exhaustive pin's n <= 7, taken from an enumeration that sorted each
# clique's columns and then the whole list: the walk must emit that order.
LARGER_CLUSTER_SHA256 = {
    (1, 1, 1, 1, 1, 1, 1, 1):
        "d187cd11bf4eea8c48e438e224fc7f3a5cf989696b6417ebd40e5193cf082495",
    (1, -1, 1, -1, 1, -1, 1, -1):
        "1d9b100d4be3505d4ae7db3aff9e4dd6dfe2c26aba2e4394cc5ce36f16cf4b58",
    (1, 1, -1, 1, -1, -1, 1, -1):
        "5000c144df32068bf0377c6df6a4edc6b564fa6427e3c9ce4c1e9beffc5711c2",
    (1, -1, 1, -1, 1, -1, 1, -1, 1):
        "666fb95f347b36ccadba008fe60e947518808e928417d4c6579c574aa8c7f09d",
    (-1, 1, 1, -1, -1, -1, 1, 1, -1):
        "b41cfd00325e4c58c96a333d74b1fc782c3c803ee81c3e40ec285b8460d2faae",
}


@pytest.mark.parametrize("eps", sorted(LARGER_CLUSTER_SHA256))
def test_enumerate_clusters_is_pinned_at_n_8_and_9(eps):
    columns = [c.columns for c in cb.enumerate_clusters(eps)]
    assert len(columns) == cb.catalan(len(eps))
    digest = hashlib.sha256(repr(columns).encode()).hexdigest()
    assert digest == LARGER_CLUSTER_SHA256[eps]


def test_a_dropped_cluster_list_is_freed_without_the_cycle_collector():
    # Reference counting alone must free the result: the walk leaves no
    # reference cycle that holds the list alive.
    enabled = gc.isenabled()
    gc.disable()
    try:
        found = cb.enumerate_clusters((1, -1, 1, 1, -1))
        first = weakref.ref(found[0])
        del found
        assert first() is None
    finally:
        if enabled:
            gc.enable()


def test_projective_roots_are_pinned():
    lines = (
        f"{eps} {guarded(lambda: cb.projective_roots(eps))}"
        for n in range(1, 9)
        for eps in all_epsilons(n)
    )
    assert sha256_lines(lines) == PINNED_SHA256["projective_roots"]


def test_cluster_violation_is_pinned():
    # Seeded column sets: mostly almost positive roots, some arbitrary or
    # mis-sized columns, some non-integer entries, some whole clusters.
    rng = random.Random(11)
    lines = []
    for _ in range(20_000):
        n = rng.randint(1, 7)
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        pool = _root_pool(eps) if n > 1 else []
        cols = []
        for _ in range(max(0, n - 1 + rng.choice((0, 0, 0, 0, -1, 1)))):
            kind = rng.random()
            if pool and kind < 0.75:
                cols.append(list(rng.choice(pool)))
            elif kind < 0.9:
                cols.append([rng.randint(-2, 2) for _ in range(n - 1)])
            elif kind < 0.95:
                size = max(0, n - 1 + rng.choice((-1, 1)))
                cols.append([rng.randint(-1, 1) for _ in range(size)])
            else:
                cols.append([rng.choice((1, 1.0, 0, Fraction(1), -1)) for _ in range(n - 1)])
        if n <= 5 and rng.random() < 0.1:
            cols = [list(c) for c in rng.choice(cb.enumerate_clusters(eps)).columns]
        wrap = rng.random() < 0.3

        def call(cols=cols, eps=eps, wrap=wrap):
            return cb.cluster_violation(cb.ClusterMatrix(cols) if wrap else cols, eps)

        lines.append(f"{eps} {cols} {wrap} {guarded(call)}")
    assert sha256_lines(lines) == PINNED_SHA256["cluster_violation"]


def test_stability_domain_contains_is_pinned():
    # Seeded (eps, beta, v) with integer and Fraction v; half of the v are
    # the weight coordinates (E^t)^{-1} y of a y that often vanishes on beta.
    rng = random.Random(12)
    lines = []
    for _ in range(20_000):
        n = rng.randint(2, 7)
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        p = rng.randint(1, n - 1)
        q = rng.randint(p + 1, n + 1 if rng.random() < 0.03 else n)
        beta = Root(p, q, -1 if rng.random() < 0.03 else 1)
        kind = rng.random()
        length = n - 1 + (rng.choice((-1, 1)) if rng.random() < 0.03 else 0)
        if kind < 0.3:
            v = tuple(rng.randint(-2, 2) for _ in range(length))
        elif kind < 0.5:
            v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(length))
        else:
            y = [rng.randint(-3, 3) for _ in range(n - 1)]
            if q <= n and rng.random() < 0.7:
                y[q - 2] -= sum(y[p - 1 : q - 1])
            if rng.random() < 0.5:
                y = [Fraction(a, rng.randint(1, 3)) for a in y]
            inv = cb.euler_inverse(eps)
            v = tuple(sum(inv[j][i] * y[j] for j in range(n - 1)) for i in range(n - 1))
            v = v[:length] if length <= n - 1 else v + (0,)
        verdict = guarded(lambda: cb.stability_domain_contains(eps, beta, v))
        lines.append(f"{eps} {beta} {v} {verdict}")
    assert sha256_lines(lines) == PINNED_SHA256["stability_domain_contains"]


def test_stability_command_is_pinned():
    queries = [
        ("1,-1,-1,1", "2", "4", "3,5,3"),
        ("1,-1,-1,1", "2", "4", "1/2,0,-1/3"),
        ("-1,1,-1,-1", "1", "4", "0.1,0.3,0.2"),
        ("-1,1,-1,-1,1", "1", "4", "1,0,0,x"),
    ]
    lines = (
        cli_in_process("clusters", "stability", "--epsilon", eps, "--p", p, "--q", q, "--v", v)
        for eps, p, q, v in queries
    )
    assert sha256_lines(lines) == PINNED_SHA256["clusters stability"]
