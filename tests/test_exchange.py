"""Euler matrix, exchange matrix, and matrix-mutation tests."""

from __future__ import annotations

import hashlib
import random
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cobinary as cb
from cobinary import exchange, linalg

from conftest import (
    CLU_E,
    CLU_E_INV,
    CLU_EPS,
    MUT_C_ROWS,
    MUT_CSTAR_ROWS,
    MUT_K,
    all_epsilons,
)
from oracles import (
    euler_form,
    euler_matrix_by_arrows,
    exchange_matrix_by_products,
    fz_mutate_dense,
)

# ---------------------------------------------------------------------------
# Euler and X matrices
# ---------------------------------------------------------------------------


def test_euler_matrix_five_node_golden():
    assert cb.euler_matrix((-1, 1, -1, -1, 1)) == (
        (1, 0, 0, 0),
        (-1, 1, -1, 0),
        (0, 0, 1, -1),
        (0, 0, 0, 1),
    )


# sha256 of repr((E, E^{-1}, X)) for every sign sequence with 2 <= n <= 10,
# in sign_sequences order.
EULER_SHA256 = "355477255a9e66df881d1c43e7a96579c0a815882848c31bb348d99508fc1be8"


def test_euler_matrices_are_pinned():
    digest = hashlib.sha256()
    for n in range(2, 11):
        for eps in all_epsilons(n):
            matrices = (cb.euler_matrix(eps), cb.euler_inverse(eps), cb.x_matrix(eps))
            digest.update(repr(matrices).encode())
    assert digest.hexdigest() == EULER_SHA256


def test_euler_matrix_cluster_demo_and_inverse():
    assert cb.euler_matrix(CLU_EPS) == CLU_E
    assert cb.euler_inverse(CLU_EPS) == CLU_E_INV
    assert linalg.mat_mul(CLU_E, CLU_E_INV) == linalg.identity(4)


def test_euler_matrix_two_nodes_is_identity():
    for eps in all_epsilons(2):
        assert cb.euler_matrix(eps) == ((1,),)


def test_euler_matrix_ignores_boundary_signs():
    for a in (1, -1):
        for b in (1, -1):
            assert cb.euler_matrix((a, 1, -1, b)) == cb.euler_matrix((1, 1, -1, 1))


def test_euler_matrix_needs_two_nodes():
    tables = (
        cb.euler_matrix,
        cb.euler_inverse,
        cb.x_matrix,
        cb.projective_roots,
        cb.almost_positive_roots,
    )
    for table in tables:
        for eps in ((1,), (-1,)):
            with pytest.raises(ValueError, match=r"^the quiver needs n >= 2$"):
                table(eps)


def test_euler_inverse_is_nonnegative_everywhere():
    for n in range(2, 7):
        for eps in all_epsilons(n):
            inv = cb.euler_inverse(eps)
            assert all(x >= 0 for row in inv for x in row)
            assert linalg.mat_mul(cb.euler_matrix(eps), inv) == linalg.identity(n - 1)


def test_euler_inverse_is_the_gauss_jordan_inverse():
    for n in range(2, 10):
        for eps in all_epsilons(n):
            e = cb.euler_matrix(eps)
            assert cb.euler_inverse(eps) == linalg.inverse_integer(e)


def test_x_matrix_superdiagonal_pattern():
    x = cb.x_matrix((-1, 1, -1, -1, 1))
    assert tuple(x[i][i + 1] for i in range(3)) == (1, -1, -1)
    for n in range(2, 7):
        for eps in all_epsilons(n):
            xm = cb.x_matrix(eps)
            assert linalg.is_skew_symmetric(xm)
            assert tuple(xm[i][i + 1] for i in range(n - 2)) == eps[1 : n - 1]


def test_x_matrix_is_e_minus_e_transpose():
    x = cb.x_matrix(CLU_EPS)
    assert x == linalg.mat_sub(CLU_E, linalg.transpose(CLU_E))


# ---------------------------------------------------------------------------
# the one cache: a bounded table object per sign sequence
# ---------------------------------------------------------------------------


def test_the_quiver_cache_stops_at_its_bound():
    for eps in all_epsilons(8)[: exchange._QUIVERS + 10]:
        exchange.quiver(eps)
    assert exchange.quiver.cache_info().currsize == exchange._QUIVERS
    assert exchange.quiver.cache_info().maxsize == exchange._QUIVERS


def test_an_evicted_sign_sequence_rebuilds_tables_equal_to_the_oracles():
    eps = (1, -1, -1, 1, -1, 1)
    n = len(eps)
    first = exchange.quiver(eps)
    first.compatibility(0)
    for other in all_epsilons(8)[: exchange._QUIVERS]:
        exchange.quiver(other)
    again = exchange.quiver(eps)
    assert again is not first
    e = euler_matrix_by_arrows(eps)
    inverse = linalg.inverse_integer(e)
    assert again.euler == e
    assert again.euler_inverse == inverse
    roots = [*cb.positive_roots(n), *(-cb.root_from_vector(row) for row in inverse)]
    vectors = [r.vector(n) for r in roots]
    assert list(again.positions.items()) == [(v, at) for at, v in enumerate(vectors)]
    for at, u in enumerate(vectors):
        row = linalg.vec_mat(u, e)
        lift = tuple(accumulate(row, initial=0))
        assert again.euler_row(at) == (row, tuple(x - min(lift) for x in lift))
        bits = sum(
            1 << b
            for b, (v, root) in enumerate(zip(vectors, roots))
            if root.sign == -1 or euler_form(eps, u, v) >= 0
        )
        assert again.compatibility(at) == bits
        assert first.compatibility(at) == bits


# ---------------------------------------------------------------------------
# exchange matrices
# ---------------------------------------------------------------------------


def test_staircase_exchange_is_x_over_identity():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            ex = cb.exchange_matrix(cb.initial_tree(eps))
            assert ex.b_rows == cb.x_matrix(eps)
            assert ex.c_rows == linalg.identity(n - 1)


def test_two_node_trees_have_zero_principal_part():
    for eps in all_epsilons(2):
        for tree in cb.enumerate_trees(eps):
            ex = cb.exchange_matrix(tree)
            assert ex.b_rows == ((0,),)
            assert ex.c_rows in (((1,),), ((-1,),))


def test_single_node_exchange_is_empty():
    ex = cb.exchange_matrix(cb.tree_from_permutation((1,), (1,)))
    assert ex.b_rows == () and ex.c_rows == ()


def test_demo_exchange_bottom_block(mutation_demo_tree):
    ex = cb.exchange_matrix(mutation_demo_tree)
    assert ex.c_rows == MUT_C_ROWS
    assert linalg.is_skew_symmetric(ex.b_rows)
    assert all(abs(x) <= 1 for row in ex.b_rows for x in row)


def test_principal_entries_never_exceed_one():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                b = cb.exchange_matrix(tree).b_rows
                assert all(abs(x) <= 1 for row in b for x in row)


# ---------------------------------------------------------------------------
# Fomin-Zelevinsky mutation
# ---------------------------------------------------------------------------


def test_fz_mutation_is_an_involution():
    for n in range(2, 5):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                ex = cb.exchange_matrix(tree)
                for k in range(1, n):
                    assert cb.fz_mutate(cb.fz_mutate(ex, k), k) == ex


def test_fz_mutation_demo_matches_column_operations(mutation_demo_tree):
    ex = cb.exchange_matrix(mutation_demo_tree)
    mutated = cb.fz_mutate(ex, MUT_K)
    assert mutated.c_rows == MUT_CSTAR_ROWS
    # Independent route: add column 3 to columns 2 and 4, negate column 3.
    cols = list(linalg.transpose(MUT_C_ROWS))
    c3 = cols[2]
    cols[1] = tuple(a + b for a, b in zip(cols[1], c3))
    cols[3] = tuple(a + b for a, b in zip(cols[3], c3))
    cols[2] = tuple(-a for a in c3)
    assert linalg.transpose(tuple(cols)) == mutated.c_rows
    # The same operations return the mutated matrix to the original.
    back = cb.fz_mutate(mutated, MUT_K)
    assert back.c_rows == MUT_C_ROWS


def test_fz_three_node_hand_computation():
    eps = (-1, -1, 1)
    ex = cb.exchange_matrix(cb.initial_tree(eps))
    mutated = cb.fz_mutate(ex, 1)
    assert linalg.transpose(mutated.c_rows) == ((-1, 0), (0, 1))
    assert mutated.b_rows == ((0, 1), (-1, 0))


def test_fz_preserves_skew_symmetry():
    rng = random.Random(7)
    for n in (4, 5, 6):
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        ex = cb.exchange_matrix(cb.tree_from_permutation(tuple(sigma), eps))
        for _ in range(10):
            k = rng.randint(1, n - 1)
            ex = cb.fz_mutate(ex, k)
            assert linalg.is_skew_symmetric(ex.b_rows)


def test_fz_direction_out_of_range(mutation_demo_tree):
    ex = cb.exchange_matrix(mutation_demo_tree)
    with pytest.raises(IndexError):
        cb.fz_mutate(ex, 0)
    with pytest.raises(IndexError):
        cb.fz_mutate(ex, 5)


def test_fz_mutate_matches_the_dense_oracle_on_every_wall():
    for n in range(2, 7):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                ex = cb.exchange_matrix(tree)
                for k in range(1, n):
                    assert cb.fz_mutate(ex, k) == fz_mutate_dense(ex, k), (tree, k)


def _random_exchange_matrix(rng: random.Random, m: int, k: int) -> cb.ExchangeMatrix:
    """Skew-symmetric B and integer C with entries in -3..3; in some draws
    row and column k of B, column k of C, or both are zero."""
    b = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            b[i][j] = rng.randint(-3, 3)
            b[j][i] = -b[i][j]
    c = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
    zero_b, zero_c = rng.choice(((False, False), (True, False), (False, True), (True, True)))
    for i in range(m):
        if zero_b:
            b[k - 1][i] = b[i][k - 1] = 0
        if zero_c:
            c[i][k - 1] = 0
    return cb.ExchangeMatrix(b, c)


def test_fz_mutate_matches_the_dense_oracle_on_random_matrices():
    rng = random.Random(16)
    zero_rows = 0
    for _ in range(3000):
        m = rng.randint(1, 6)
        k = rng.randint(1, m)
        ex = _random_exchange_matrix(rng, m, k)
        zero_rows += sum(row[k - 1] == 0 for row in ex.b_rows + ex.c_rows)
        assert cb.fz_mutate(ex, k) == fz_mutate_dense(ex, k), (ex, k)
    assert zero_rows > 3000  # many rows take the pass-through branch


# One fault per row, with the ValueError message it raises.
EXCHANGE_MATRIX_ERRORS = {
    "float entry in B": ((((0, 1.5), (-1, 0)), ((1, 0), (0, 1))), "expected an integer, got 1.5"),
    "bool entry in B": ((((0, True), (-1, 0)), ((1, 0), (0, 1))), "expected an integer, got True"),
    "float entry in C": ((((0, 1), (-1, 0)), ((1, 0), (0, 2.0))), "expected an integer, got 2.0"),
    "ragged B": ((((0, 1), (-1,)), ((1, 0), (0, 1))), "ragged matrix"),
    "ragged C": ((((0, 1), (-1, 0)), ((1, 0), (0,))), "ragged matrix"),
    "non-skew B": ((((0, 1), (1, 0)), ((1, 0), (0, 1))), "principal part must be skew-symmetric"),
    "nonzero diagonal in B": ((((1, 0), (0, 0)), ((1, 0), (0, 1))), "principal part must be skew-symmetric"),
    "non-square B": ((((0, 0, 0), (0, 0, 0)), ((1, 0), (0, 1))), "principal part must be skew-symmetric"),
    "C with too few rows": ((((0, 1), (-1, 0)), ((1, 0),)), "bottom block must be square of the same size"),
    "C with too many columns": (
        (((0, 1), (-1, 0)), ((1, 0, 0), (0, 1, 0))),
        "bottom block must be square of the same size",
    ),
    "C without B": (((), ((1,),)), "bottom block must be square of the same size"),
}


@pytest.mark.parametrize("case", sorted(EXCHANGE_MATRIX_ERRORS))
def test_exchange_matrix_errors_are_pinned(case):
    (b, c), message = EXCHANGE_MATRIX_ERRORS[case]
    with pytest.raises(ValueError) as info:
        cb.ExchangeMatrix(b, c)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_exchange_matrix_reads_rows_as_int_tuples():
    ex = cb.ExchangeMatrix([[0, -1], [1, 0]], [[1, 0], [1, 1]])
    assert ex.b_rows == ((0, -1), (1, 0))
    assert ex.c_rows == ((1, 0), (1, 1))
    assert cb.ExchangeMatrix((), ()).size == 0


def test_exchange_matrix_requires_skew_principal_part():
    with pytest.raises(ValueError):
        cb.ExchangeMatrix(((0, 1), (1, 0)), ((1, 0), (0, 1)))


def test_tree_and_matrix_mutation_agree_exhaustively_small():
    for n in range(2, 5):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                ex = cb.exchange_matrix(tree)
                for k in range(1, n):
                    assert cb.exchange_matrix(cb.mutate(tree, k)) == cb.fz_mutate(
                        ex, k
                    )


def test_tree_and_matrix_mutation_agree_sampled_larger():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.choice((6, 7))
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        tree = cb.tree_from_permutation(tuple(sigma), eps)
        k = rng.randint(1, n - 1)
        assert cb.exchange_matrix(cb.mutate(tree, k)) == cb.fz_mutate(
            cb.exchange_matrix(tree), k
        )


# ---------------------------------------------------------------------------
# structural sign laws of the principal part
# ---------------------------------------------------------------------------


def _gamma(p: int, n: int) -> tuple[int, ...]:
    return cb.interval_vector(p, n, n)


def test_gamma_pairing_table():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            x = cb.x_matrix(eps)
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    actual = linalg.dot(linalg.vec_mat(_gamma(p, n), x), _gamma(q, n))
                    if p == q or n in (p, q):
                        expected = 0
                    elif p < q:
                        expected = eps[q - 1]
                    else:
                        expected = -eps[p - 1]
                    assert actual == expected, (eps, p, q)


def test_gamma_pairing_reduces_to_shared_right_endpoint():
    for eps in all_epsilons(5):
        x = cb.x_matrix(eps)
        n = 5
        for r in range(2, n + 1):
            for p in range(1, r):
                for q in range(1, r):
                    lhs = linalg.dot(
                        linalg.vec_mat(cb.interval_vector(p, r, n), x),
                        cb.interval_vector(q, r, n),
                    )
                    rhs = linalg.dot(linalg.vec_mat(_gamma(p, n), x), _gamma(q, n))
                    assert lhs == rhs


def test_principal_part_sign_laws():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                b = cb.exchange_matrix(tree).b_rows
                for k in range(1, n):
                    ek = tree.edges[k - 1]
                    for j in range(1, n):
                        if j == k:
                            assert b[k - 1][j - 1] == 0
                            continue
                        ej = tree.edges[j - 1]
                        entry = b[k - 1][j - 1]
                        shared = {ek.p, ek.q} & {ej.p, ej.q}
                        if not shared:
                            assert entry == 0
                        elif ek.p == ej.p or ek.q == ej.q:
                            assert entry == ek.slope
                        elif ek.q == ej.p:
                            assert entry == eps[ek.q - 1] * ej.slope * ek.slope
                        else:
                            assert ek.p == ej.q
                            assert entry == -eps[ek.p - 1] * ej.slope * ek.slope


def test_exchange_matrix_matches_the_dense_product():
    for n in range(1, 8):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                assert cb.exchange_matrix(tree).b_rows == exchange_matrix_by_products(tree)


@given(
    st.integers(min_value=12, max_value=30).flatmap(
        lambda n: st.tuples(
            st.permutations(range(1, n + 1)),
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
        )
    )
)
def test_exchange_matrix_matches_the_dense_product_at_larger_n(case):
    sigma, eps = case
    tree = cb.tree_from_permutation(sigma, eps)
    assert cb.exchange_matrix(tree).b_rows == exchange_matrix_by_products(tree)


def test_exchange_matrix_needs_no_dense_product(monkeypatch):
    tree = cb.enumerate_trees((1, -1, 1, 1, -1, 1, -1))[100]
    expected = exchange_matrix_by_products(tree)

    def refuse(a, b):
        raise AssertionError("exchange_matrix multiplied dense matrices")

    monkeypatch.setattr(linalg, "mat_mul", refuse)
    assert cb.exchange_matrix(tree).b_rows == expected


# sha256 of repr((B, C)) of exchange_matrix(tree), then of fz_mutate at each
# k = 1..n-1, for every tree with n <= 6 in enumeration order.
EXCHANGE_SHA256 = "ba443c14940e4feb0886043f606a66e989415a4024b2ccf6e715dfabd6f29bb0"


def test_exchange_matrices_and_mutations_are_pinned():
    digest = hashlib.sha256()
    for n in range(1, 7):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                ex = cb.exchange_matrix(tree)
                digest.update(repr((ex.b_rows, ex.c_rows)).encode())
                for k in range(1, ex.size + 1):
                    mutated = cb.fz_mutate(ex, k)
                    digest.update(repr((mutated.b_rows, mutated.c_rows)).encode())
    assert digest.hexdigest() == EXCHANGE_SHA256
