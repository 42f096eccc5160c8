"""c-vector, region, point-location, and mutation tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cobinary as cb
from cobinary import linalg, regions
from cobinary.serialize import dumps, tree_to_obj

from conftest import (
    CLU_C_ROWS,
    CLU_EPS,
    MUT_C_ROWS,
    MUT_CSTAR_ROWS,
    MUT_EPS,
    MUT_K,
    all_epsilons,
    sha256_lines,
)
from oracles import (
    c_matrix_by_roots,
    locate_by_fractions,
    mutate_c_columns,
    region_contains_by_gaps,
)

# ---------------------------------------------------------------------------
# c-vectors and c-matrices
# ---------------------------------------------------------------------------


def test_c_vector_golden(mutation_demo_tree):
    assert cb.c_vector(mutation_demo_tree, 1) == (-1, -1, 0, 0)


def test_c_vector_of_staircase_is_unit():
    for eps in all_epsilons(5):
        t0 = cb.initial_tree(eps)
        for k in range(1, 5):
            assert cb.c_vector(t0, k) == tuple(int(i == k) for i in range(1, 5))


def test_c_vector_cluster_demo(cluster_demo_tree):
    relabelled = cluster_demo_tree.relabelled(
        [(1, 4, 1), (3, 4, -1), (1, 2, -1), (4, 5, -1)]
    )
    assert cb.c_vector(relabelled, 1) == (1, 1, 1, 0)
    assert cb.c_matrix(relabelled).rows == CLU_C_ROWS


def test_c_matrix_and_c_vectors_match_the_root_oracle():
    for n in range(1, 8):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                expected = c_matrix_by_roots(tree)
                assert cb.c_matrix(tree) == expected
                assert tuple(cb.c_vector(tree, k) for k in range(1, n)) == expected.columns


def test_c_matrix_golden_pair(mutation_demo_tree):
    assert cb.c_matrix(mutation_demo_tree).rows == MUT_C_ROWS
    assert cb.c_matrix(cb.mutate(mutation_demo_tree, MUT_K)).rows == MUT_CSTAR_ROWS


def test_c_vector_index_range(mutation_demo_tree):
    with pytest.raises(IndexError):
        cb.c_vector(mutation_demo_tree, 5)
    with pytest.raises(IndexError):
        cb.c_vector(mutation_demo_tree, 0)
    cmat = cb.c_matrix(mutation_demo_tree)
    for k in (0, 5):
        with pytest.raises(IndexError, match="out of range 1..4"):
            cmat.column(k)


def test_c_matrix_determinant_is_unimodular():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                assert cb.c_matrix(tree).det() in (1, -1)


# ---------------------------------------------------------------------------
# tree_from_c_matrix
# ---------------------------------------------------------------------------


def test_identity_c_matrix_decodes_to_staircase():
    ident = cb.CMatrix(linalg.identity(4))
    for eps in all_epsilons(5):
        assert cb.tree_from_c_matrix(ident, eps) == cb.initial_tree(eps)


def test_c_matrix_round_trip_small():
    for n in range(1, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                again = cb.tree_from_c_matrix(cb.c_matrix(tree), eps)
                assert again == tree


def test_cluster_demo_c_matrix_decodes(cluster_demo_tree):
    cmat = cb.CMatrix(linalg.transpose(CLU_C_ROWS))
    assert cb.tree_from_c_matrix(cmat, CLU_EPS) == cluster_demo_tree


def test_non_root_column_is_rejected():
    bad = cb.CMatrix(((1, 0, 1), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(cb.NotARoot):
        cb.tree_from_c_matrix(bad, (1, 1, 1, 1))


def test_c_matrix_decode_is_checked(mutation_demo_tree, monkeypatch):
    cmat = cb.c_matrix(mutation_demo_tree)
    monkeypatch.setattr(
        "cobinary.regions.c_matrix", lambda tree: cb.CMatrix(linalg.identity(4))
    )
    with pytest.raises(cb.VerificationFailed, match="does not rebuild"):
        cb.tree_from_c_matrix(cmat, MUT_EPS)


# ---------------------------------------------------------------------------
# regions and location
# ---------------------------------------------------------------------------


def test_fan_tree_region_membership(fan_tree):
    assert cb.region_contains(fan_tree, (2, 3, 1, 4))
    assert not cb.region_contains(fan_tree, (3, 2, 1, 4))


def test_staircase_region_contains_ascending_points():
    for n in range(1, 7):
        for eps in ((1,) * n, (-1,) * n):
            t0 = cb.initial_tree(eps)
            assert cb.region_contains(t0, tuple(range(1, n + 1)))


def test_cluster_demo_region_membership(cluster_demo_tree):
    # Strict version of the chain x_2 < x_1 < x_4 < x_3 with x_5 < x_4.
    assert cb.region_contains(cluster_demo_tree, (2, 1, 5, 4, 3))


def test_closure_versus_open_region(mutation_demo_tree):
    x, _ = cb.wall_stability_point(mutation_demo_tree, 1)
    assert not cb.region_contains(mutation_demo_tree, x, strict=True)
    assert cb.region_contains(mutation_demo_tree, x, strict=False)


def test_locate_ascending_point_is_staircase():
    for eps in all_epsilons(4):
        assert cb.locate_tree((1, 2, 3, 4), eps) == cb.initial_tree(eps)


def test_locate_cluster_demo_point(cluster_demo_tree):
    assert cb.locate_tree((2, 1, 5, 4, 3), CLU_EPS) == cluster_demo_tree


def test_located_tree_is_checked(monkeypatch):
    monkeypatch.setattr(
        "cobinary.regions.tree_from_permutation",
        lambda sigma, eps: cb.initial_tree(eps),
    )
    # The staircase has x_1 < x_2 on edge 1; this point has x_2 < x_1.
    with pytest.raises(
        cb.VerificationFailed, match=r"misses x: edge 1 \(p=1, q=2, slope=1\) "
    ):
        cb.locate_tree((2, 1, 5, 4, 3), CLU_EPS)


def test_located_tree_is_checked_against_a_wrong_ranking(monkeypatch):
    monkeypatch.setattr(
        "cobinary.regions.rank_permutation", lambda x: tuple(range(1, len(x) + 1))
    )
    with pytest.raises(cb.VerificationFailed, match="misses x"):
        cb.locate_tree((2, 1, 5, 4, 3), CLU_EPS)


def test_tied_coordinates_rejected():
    with pytest.raises(cb.TiedCoordinates):
        cb.locate_tree((1, 1, 2), (1, 1, 1))


@pytest.mark.parametrize(
    "x, pair",
    [((1, Fraction(2, 2), "3/3"), (1, 2)), ((Fraction(-1, 2), 5, "-2/4"), (1, 3))],
    ids=repr,
)
def test_equal_rationals_written_differently_are_tied(x, pair):
    message = f"coordinates {pair[0]} and {pair[1]} are equal; the point lies on a wall"
    for locate in (cb.locate_tree, locate_by_fractions):
        with pytest.raises(cb.TiedCoordinates) as caught:
            locate(x, (1, -1, 1))
        assert str(caught.value) == message


def test_locate_matches_the_fraction_route_on_benchmark_like_points():
    # Drawn as the benchmark's locate workload draws its points.
    rng = random.Random(1414)
    n = 256
    eps = tuple(rng.choice((1, -1)) for _ in range(n))
    tested = 0
    while tested < 200:
        x = tuple(
            Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000))
            for _ in range(n)
        )
        if len(set(x)) < n:
            continue
        tested += 1
        assert cb.locate_tree(x, eps).flat == locate_by_fractions(x, eps).flat


def _benchmark_point(rng, n):
    """n distinct coordinates drawn as the locate workload draws them."""
    while True:
        x = [Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000)) for _ in range(n)]
        if len(set(x)) == n:
            return x


def _one_near_tie(rng):
    # x_j lies 2**-70 above x_i, a multiple of 2**-10, so the two share
    # floor(2**64 * x); any other two distinct coordinates differ by at
    # least 1/(1024 * 1000), far more than 2**-64.
    x = _benchmark_point(rng, 256)
    i, j = rng.sample(range(256), 2)
    x[i] = Fraction(rng.randint(-(10**9), 10**9), 2**10)
    x[j] = x[i] + Fraction(1, 2**70)
    return x


def _all_below_2_to_minus_70(rng):
    values = set()
    while len(values) < 300:
        b = rng.randint(2, 10**4)
        values.add(Fraction(rng.randint(1, b - 1), b * 2**70))
    x = list(values)
    rng.shuffle(x)
    return x


def _equal_written_differently(rng):
    x = _benchmark_point(rng, 256)
    i, j = rng.sample(range(256), 2)
    x[j] = f"{3 * x[i].numerator}/{3 * x[i].denominator}"
    return x


@pytest.mark.parametrize(
    "draw, outcome",
    [(_one_near_tie, "tree"), (_all_below_2_to_minus_70, "tree"),
     (_equal_written_differently, "tied")],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_locate_falls_back_to_the_pairs_when_floors_tie(draw, outcome):
    # At the benchmark's size, where Hypothesis does not reach: each point
    # has two coordinates that share floor(2**64 * x), so locate_tree ranks
    # and certifies on the (int, Fraction) pairs.
    rng = random.Random(2020)
    for _ in range(3):
        x = draw(rng)
        eps = tuple(rng.choice((1, -1)) for _ in x)
        assert isinstance(regions._sort_keys(cb.as_region_point(x))[0], tuple)
        if outcome == "tree":
            assert len(set(cb.as_region_point(x))) == len(x)
            assert cb.locate_tree(x, eps).flat == locate_by_fractions(x, eps).flat
            continue
        messages = []
        for locate in (cb.locate_tree, locate_by_fractions):
            with pytest.raises(cb.TiedCoordinates) as caught:
                locate(x, eps)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


@st.composite
def written_point(draw):
    """A point whose coordinates are written as ints, Fractions or "a/b"
    strings (not always in lowest terms).  The values are spread over
    [-50, 50], or all lie in [0, 1) (one integer part), or all lie in
    [0, 2**-70) (one integer part even after scaling by 2**64); repeated
    values occur."""
    n = draw(st.integers(min_value=1, max_value=24))
    scale = draw(st.sampled_from((None, 1, 2**70)))
    if scale is None:
        values = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    else:
        values = st.builds(
            lambda a, b: Fraction(a % b, b * scale),
            st.integers(0, 10**6),
            st.integers(1, 40),
        )
    coords = []
    for value in draw(st.lists(values, min_size=n, max_size=n)):
        form = draw(st.sampled_from(("int", "fraction", "string")))
        if form == "int" and value.denominator == 1:
            coords.append(value.numerator)
        elif form == "string":
            k = draw(st.integers(1, 3))
            coords.append(f"{k * value.numerator}/{k * value.denominator}")
        else:
            coords.append(value)
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(coords), tuple(eps)


@given(written_point())
def test_locate_matches_the_fraction_route(case):
    x, eps = case

    def outcome(locate):
        try:
            return locate(x, eps).flat
        except cb.TiedCoordinates as exc:
            return str(exc)

    assert outcome(cb.locate_tree) == outcome(locate_by_fractions)


def test_region_needs_matching_length(fan_tree):
    with pytest.raises(ValueError):
        cb.region_contains(fan_tree, (1, 2, 3))


@pytest.mark.parametrize("x", [(0.1, 0.2, 0.3), (True, 2, 3), ("a", "b", "c")], ids=repr)
def test_region_membership_reads_exact_rationals(x):
    # Each of these used to be compared as given and reported inside.
    with pytest.raises(ValueError, match=r"^cannot read exact rational coordinate "):
        cb.region_contains(cb.initial_tree((1, 1, 1)), x)


def test_region_membership_accepts_rational_strings():
    tree = cb.initial_tree((1, 1, 1))
    assert cb.region_contains(tree, ("1/10", "1/5", Fraction(3, 10)))
    assert not cb.region_contains(tree, ("1/5", "1/10", 3))


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------


def test_mutation_golden(mutation_demo_tree):
    mutated = cb.mutate(mutation_demo_tree, MUT_K)
    assert cb.c_matrix(mutated).rows == MUT_CSTAR_ROWS
    assert [e.triple for e in mutated.edges] == [
        (1, 3, -1),
        (2, 5, 1),
        (3, 5, -1),
        (3, 4, 1),
    ]
    assert cb.mutate(mutated, MUT_K) == mutation_demo_tree


def test_mutation_is_an_involution_everywhere():
    for n in range(1, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                for k in range(1, n):
                    assert cb.mutate(cb.mutate(tree, k), k) == tree


# sha256 of the serialized mutation of every tree at every edge with n <= 6,
# in enumeration order, captured before trees were stored as flat int
# tuples: pins the moved edges, their labels and their slopes.
ALL_MUTATIONS_SHA256 = "631adef1fa09c90a5e2934b6dc299734d5489bc4775b5001fc9dbb7232184eb5"


def test_every_small_mutation_is_pinned():
    lines = (
        dumps(tree_to_obj(cb.mutate(tree, k)))
        for n in range(1, 7)
        for eps in all_epsilons(n)
        for tree in cb.enumerate_trees(eps)
        for k in range(1, n)
    )
    assert sha256_lines(lines) == ALL_MUTATIONS_SHA256


def test_first_wall_of_three_node_staircase():
    eps = (-1, -1, 1)
    t0 = cb.initial_tree(eps)
    mutated = cb.mutate(t0, 1)
    assert cb.c_matrix(mutated).columns == ((-1, 0), (0, 1))
    # Crossing the wall x_1 = x_2 from an interior point lands in the
    # mutated tree's region.
    assert cb.locate_tree((2, 1, 3), eps) == mutated
    assert cb.locate_tree((1, 2, 3), eps) == t0


def test_mutation_agrees_with_column_recipe_and_decode():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                for k in range(1, n):
                    surgery = cb.mutate(tree, k)
                    recipe = mutate_c_columns(tree, k)
                    assert cb.c_matrix(surgery).columns == recipe.columns
                    assert cb.tree_from_c_matrix(recipe, eps) == surgery


def _adjacent_realization(tree: cb.MixedCobinaryTree, k: int):
    """A permutation realizing the tree in which edge k's endpoints take
    consecutive heights (lower endpoint first)."""
    edge = tree.edge(k)
    lo, hi = edge.lower, edge.upper
    for sigma in sorted(cb.permutations_of(tree)):
        if sigma[hi - 1] == sigma[lo - 1] + 1:
            return sigma
    raise AssertionError("no realization with adjacent heights exists")


def test_mutation_agrees_with_height_swap_oracle():
    # Swapping the two adjacent heights across the wall must land in the
    # mutated tree: an independent route through permutations only.
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                for k in range(1, n):
                    sigma = _adjacent_realization(tree, k)
                    edge = tree.edge(k)
                    swapped = list(sigma)
                    swapped[edge.lower - 1], swapped[edge.upper - 1] = (
                        swapped[edge.upper - 1],
                        swapped[edge.lower - 1],
                    )
                    assert cb.tree_from_permutation(swapped, eps) == cb.mutate(
                        tree, k
                    )


def test_wall_midpoint_lies_on_the_wall():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                for k in range(1, n):
                    sigma = _adjacent_realization(tree, k)
                    edge = tree.edge(k)
                    mutated = cb.mutate(tree, k)
                    swapped = list(sigma)
                    swapped[edge.lower - 1], swapped[edge.upper - 1] = (
                        swapped[edge.upper - 1],
                        swapped[edge.lower - 1],
                    )
                    mid = tuple(
                        Fraction(a + b, 2) for a, b in zip(sigma, swapped)
                    )
                    assert mid[edge.p - 1] == mid[edge.q - 1]
                    assert not cb.region_contains(tree, mid, strict=True)
                    assert not cb.region_contains(mutated, mid, strict=True)
                    assert cb.region_contains(tree, mid, strict=False)
                    assert cb.region_contains(mutated, mid, strict=False)


def test_mutation_preserves_edge_labels(mutation_demo_tree):
    mutated = cb.mutate(mutation_demo_tree, MUT_K)
    assert [e.index for e in mutated.edges] == [1, 2, 3, 4]


def test_mutation_sequence_identities(mutation_demo_tree):
    assert cb.mutation_sequence(mutation_demo_tree, []) == mutation_demo_tree
    assert (
        cb.mutation_sequence(mutation_demo_tree, [MUT_K, MUT_K])
        == mutation_demo_tree
    )


def test_mutation_reaches_every_tree():
    for n in range(1, 5):
        for eps in all_epsilons(n):
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
            assert seen == set(cb.enumerate_trees(eps))


def test_mutate_out_of_range(mutation_demo_tree):
    with pytest.raises(IndexError):
        cb.mutate(mutation_demo_tree, 0)
    with pytest.raises(IndexError):
        cb.mutate(mutation_demo_tree, 9)


# ---------------------------------------------------------------------------
# partition sampling
# ---------------------------------------------------------------------------


def test_random_points_lie_in_exactly_one_region():
    rng = random.Random(20240)
    eps = (-1, 1, -1, 1)
    trees = cb.enumerate_trees(eps)
    tested = 0
    while tested < 500:
        x = tuple(
            Fraction(rng.randint(-1000, 1000), rng.randint(1, 60))
            for _ in range(4)
        )
        if len(set(x)) < 4:
            continue
        tested += 1
        inside = [t for t in trees if cb.region_contains(t, x)]
        assert len(inside) == 1
        assert cb.locate_tree(x, eps) == inside[0]


@given(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        min_size=4,
        max_size=4,
        unique=True,
    )
)
def test_located_tree_contains_its_point(coords):
    eps = (1, -1, -1, 1)
    tree = cb.locate_tree(tuple(coords), eps)
    assert cb.region_contains(tree, tuple(coords), strict=True)


# ---------------------------------------------------------------------------
# membership against the defining inequalities, at n = 12-40
# ---------------------------------------------------------------------------


@st.composite
def tree_and_point(draw):
    """A tree from a random height order and signs, and a point near its
    region: the heights with small shifts, divided by a small c (floored to
    ints or kept as Fractions), so that ties (wall points) and points
    outside the region both occur."""
    n = draw(st.integers(min_value=12, max_value=40))
    sigma = draw(st.permutations(range(1, n + 1)))
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    shifts = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    c = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        x = tuple((s + d) // c for s, d in zip(sigma, shifts))
    else:
        x = tuple(Fraction(s + d, c) for s, d in zip(sigma, shifts))
    return cb.tree_from_permutation(sigma, eps), x


@given(tree_and_point())
def test_membership_matches_the_edge_inequalities(case):
    tree, x = case
    for strict in (True, False):
        assert cb.region_contains(tree, x, strict) == region_contains_by_gaps(
            tree, x, strict
        )


@given(tree_and_point(), st.integers(min_value=1, max_value=10**9))
def test_membership_is_invariant_under_positive_scaling(case, k):
    tree, x = case
    scaled = tuple(k * c for c in x)
    for strict in (True, False):
        assert cb.region_contains(tree, scaled, strict) == cb.region_contains(
            tree, x, strict
        )


@given(
    st.integers(min_value=12, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.fractions(min_value=-50, max_value=50, max_denominator=20),
                min_size=n,
                max_size=n,
                unique=True,
            ),
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
        )
    )
)
def test_located_tree_contains_its_point_at_larger_n(case):
    x, eps = case
    assert cb.region_contains(cb.locate_tree(x, eps), x, strict=True)


@st.composite
def tree_and_edge(draw):
    n = draw(st.integers(min_value=12, max_value=40))
    sigma = draw(st.permutations(range(1, n + 1)))
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return cb.tree_from_permutation(sigma, eps), draw(st.integers(1, n - 1))


@given(tree_and_edge())
def test_mutation_at_larger_n_is_an_involution_and_fz_mutation(case):
    tree, k = case
    flipped = cb.mutate(tree, k)
    assert cb.mutate(flipped, k).edges == tree.edges
    assert cb.exchange_matrix(flipped) == cb.fz_mutate(cb.exchange_matrix(tree), k)
