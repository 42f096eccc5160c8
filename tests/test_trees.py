"""Tree construction, validation, enumeration, and symmetry tests."""

from __future__ import annotations

import copy
import hashlib
import math
import pickle
import random
import re
from fractions import Fraction
from itertools import permutations as all_perms

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cobinary as cb
from cobinary import correspondence, trees
from cobinary.serialize import binary_tree_to_obj, dumps, tree_to_obj

from conftest import (
    FAN_EDGES,
    FAN_PERMS,
    MUT_C_ROWS,
    MUT_EDGES,
    MUT_EPS,
    all_epsilons,
    guarded,
    sha256_lines,
)
from oracles import binary_trees_by_recursion, tree_from_permutation_by_segments

# ---------------------------------------------------------------------------
# catalan
# ---------------------------------------------------------------------------


def test_catalan_known_values():
    assert [cb.catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_catalan_matches_binomial_formula():
    for n in range(40):
        assert cb.catalan(n) * (n + 1) == math.comb(2 * n, n)


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        cb.catalan(-1)


def test_catalan_is_exact_for_large_n():
    # Arbitrary-precision integers: no wrap-around at any size.
    value = cb.catalan(200)
    assert value == math.comb(400, 200) // 201
    assert value.bit_length() > 380


# ---------------------------------------------------------------------------
# sign_sequences
# ---------------------------------------------------------------------------


def test_sign_sequences_order_is_pinned():
    # The first sign turns fastest, -1 before 1.
    assert [list(cb.sign_sequences(n)) for n in range(4)] == [
        [()],
        [(-1,), (1,)],
        [(-1, -1), (1, -1), (-1, 1), (1, 1)],
        [
            (-1, -1, -1), (1, -1, -1), (-1, 1, -1), (1, 1, -1),
            (-1, -1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, 1),
        ],
    ]


def test_sign_sequences_at_large_n_does_not_recurse():
    assert next(cb.sign_sequences(5000)) == (-1,) * 5000


def test_sign_sequences_rejects_negative_length():
    with pytest.raises(ValueError):
        list(cb.sign_sequences(-1))


# ---------------------------------------------------------------------------
# make_tree
# ---------------------------------------------------------------------------


def test_staircase_tree_is_valid_for_every_sign_sequence():
    for n in range(1, 6):
        for eps in all_epsilons(n):
            tree = cb.make_tree(eps, [(i, i + 1, 1) for i in range(1, n)])
            assert tree == cb.initial_tree(eps)
            assert cb.c_matrix(tree).rows == tuple(
                tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1)
            )


def test_two_left_children_is_an_arity_violation():
    message = "node 3 (sign +1) has 2 edges in its left child slot"
    with pytest.raises(cb.ArityViolation, match=f"^{re.escape(message)}$"):
        cb.make_tree((1, 1, 1), [(1, 3, 1), (2, 3, 1)])


@pytest.mark.parametrize(
    "eps, edges, message",
    [
        (
            (-1, -1, -1),
            [(1, 2, -1), (1, 3, -1)],
            "node 1 (sign -1) has 2 edges in its child slot",
        ),
        (
            (1, 1, 1, 1),
            [(1, 4, 1), (2, 4, 1), (3, 4, 1)],
            "node 4 (sign +1) has 3 edges in its left child slot",
        ),
    ],
)
def test_overfull_slot_reports_node_slot_and_count(eps, edges, message):
    with pytest.raises(cb.ArityViolation, match=f"^{re.escape(message)}$"):
        cb.make_tree(eps, edges)


def test_mutation_demo_tree_is_valid_with_pinned_c_matrix(mutation_demo_tree):
    assert cb.c_matrix(mutation_demo_tree).rows == MUT_C_ROWS


def test_cycle_raises_not_a_tree():
    with pytest.raises(cb.NotATree):
        cb.make_tree((1, 1, 1, 1), [(1, 2, 1), (2, 3, 1), (1, 3, 1)])


def test_wrong_edge_count_raises_not_a_tree():
    with pytest.raises(cb.NotATree):
        cb.make_tree((1, 1, 1, 1), [(1, 2, 1)])


def test_embeddable_arity_but_wall_crossing_raises():
    # Node 1 sits above node 2 and below node 3, so the edge from 1 to 3
    # would cross the vertical wall rising from node 2.
    with pytest.raises(cb.WallViolation):
        cb.make_tree((-1, -1, 1), [(1, 2, -1), (1, 3, 1)])


def test_make_tree_keeps_caller_edge_labels():
    edges = [
        cb.SignedEdge(2, 1, 2, 1),
        cb.SignedEdge(1, 2, 3, 1),
    ]
    tree = cb.make_tree((-1, -1, 1), edges)
    assert tree.edge_triple(1) == (2, 3, 1)
    assert tree.edge_triple(2) == (1, 2, 1)


# Edge lists that mix SignedEdge values with triples, in either order.
MIXED_EDGE_LISTS = [
    [cb.SignedEdge(1, 1, 2, 1), (2, 3, 1)],
    [(1, 2, 1), cb.SignedEdge(2, 2, 3, 1)],
    [cb.SignedEdge(1, 1, 2, 1), [2, 3, 1]],
    [(2, 3, 1), (1, 2, 1), cb.SignedEdge(3, 3, 4, 1)],
]


@pytest.mark.parametrize("edges", MIXED_EDGE_LISTS, ids=repr)
def test_make_tree_rejects_a_mix_of_signed_edges_and_triples(edges):
    message = "edges must be all SignedEdge values or all (p, q, slope) triples"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cb.make_tree((1,) * (len(edges) + 1), edges)


# The raw constructor takes SignedEdge values only; anything else in the
# edge list is a TypeError, whatever the other entries are.
NOT_SIGNED_EDGES = [
    (2, [(1, 2, 1)]),
    (3, [(1, 2, 1), (2, 3, 1)]),
    (3, [[1, 2, 1], [2, 3, 1]]),
    (3, [cb.SignedEdge(1, 1, 2, 1), (2, 3, 1)]),
    (3, [(1, 2, 1), cb.SignedEdge(2, 2, 3, 1)]),
    (3, [None, None]),
    (2, [cb.Root(1, 2)]),
]


@pytest.mark.parametrize("n, edges", NOT_SIGNED_EDGES, ids=repr)
def test_raw_constructor_requires_signed_edges(n, edges):
    with pytest.raises(TypeError, match=r"^edges must be SignedEdge values, got "):
        cb.MixedCobinaryTree(n, (1,) * n, edges)


def test_make_tree_valid_full_example():
    tree = cb.make_tree(MUT_EPS, MUT_EDGES)
    assert set(tree.triples) == set(MUT_EDGES)


# ---------------------------------------------------------------------------
# tree_from_permutation
# ---------------------------------------------------------------------------


def test_identity_permutation_gives_staircase():
    for n in range(1, 6):
        for eps in all_epsilons(n):
            sigma = tuple(range(1, n + 1))
            assert cb.tree_from_permutation(sigma, eps) == cb.initial_tree(eps)


def test_five_node_reconstruction_golden():
    tree = cb.tree_from_permutation((2, 1, 5, 4, 3), (-1, 1, -1, 1, 1))
    assert set(tree.triples) == {(1, 4, 1), (3, 4, -1), (1, 2, -1), (4, 5, -1)}
    # The tied rank vector resolves either way to the same tree.
    assert tree == cb.tree_from_permutation((3, 1, 5, 4, 2), (-1, 1, -1, 1, 1))


def test_single_node():
    tree = cb.tree_from_permutation((1,), (1,))
    assert tree.n == 1 and tree.edges == ()
    assert cb.permutations_of(tree) == {(1,)}


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        cb.tree_from_permutation((1, 2), (1, 1, 1))


def test_reconstruction_matches_the_segment_oracle_label_for_label():
    # `flat` holds the edge labels, which `==` ignores.
    for n in range(1, 7):
        for eps in all_epsilons(n):
            for sigma in all_perms(range(1, n + 1)):
                expected = tree_from_permutation_by_segments(sigma, eps).flat
                assert cb.tree_from_permutation(sigma, eps).flat == expected


def test_reconstruction_matches_the_segment_oracle_at_random():
    rng = random.Random(1717)
    for _ in range(400):
        n = rng.randint(7, 400)
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        sigma = rng.sample(range(1, n + 1), n)
        expected = tree_from_permutation_by_segments(sigma, eps).flat
        assert cb.tree_from_permutation(sigma, eps).flat == expected


@pytest.mark.parametrize("eps_kind", ["down", "up", "alternating"])
@pytest.mark.parametrize("sigma_kind", ["identity", "reversed", "zigzag"])
def test_reconstruction_matches_the_segment_oracle_at_large_n(sigma_kind, eps_kind):
    n = 2000
    eps = {
        "down": (1,) * n,
        "up": (-1,) * n,
        "alternating": tuple((-1) ** i for i in range(n)),
    }[eps_kind]
    sigma = {
        "identity": range(1, n + 1),
        "reversed": range(n, 0, -1),
        # Heights 1, n, 2, n - 1, ...: low and high nodes alternate.
        "zigzag": [i // 2 + 1 if i % 2 == 0 else n - i // 2 for i in range(n)],
    }[sigma_kind]
    expected = tree_from_permutation_by_segments(sigma, eps).flat
    assert cb.tree_from_permutation(sigma, eps).flat == expected


def test_builder_from_an_order_matches_the_permutation_route():
    # _tree_from_order reads the 0-based positions from the lowest up, the
    # order whose ranking tree_from_permutation reads; the segment oracle
    # shares no code with either route.
    for n in range(1, 7):
        for eps in all_epsilons(n):
            for order in all_perms(range(n)):
                expected = cb.tree_from_permutation(trees._ranking(order), eps).flat
                assert trees._tree_from_order(order, eps).flat == expected
    rng = random.Random(2525)
    for n in (256, 5000):
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        order = rng.sample(range(n), n)
        sigma = trees._ranking(order)
        flat = trees._tree_from_order(order, eps).flat
        assert flat == cb.tree_from_permutation(sigma, eps).flat
        assert flat == tree_from_permutation_by_segments(sigma, eps).flat


_NOT_SIGNS = "sign sequence entries must be +-1, got "
_UNEQUAL = "permutation and sign sequence must have equal length"


@pytest.mark.parametrize(
    "sigma, eps, message",
    [
        ((1, 2, 3), (1, 0, 1), _NOT_SIGNS + "(1, 0, 1)"),
        ((1, 2, 3), (1, 2, -1), _NOT_SIGNS + "(1, 2, -1)"),
        ((1, 2, 3), (1, 1.0, -1), "expected an integer, got 1.0"),
        ((1, 2), (True, -1), "expected an integer, got True"),
        ((), (), "sign sequence must have length at least 1"),
        ((1, 2), (), "sign sequence must have length at least 1"),
        ((1, 1, 3), (1, -1, 1), "(1, 1, 3) is not a permutation of 1..3"),
        ((0, 1, 2), (1, -1, 1), "(0, 1, 2) is not a permutation of 1..3"),
        ((1, 2, 4), (1, -1, 1), "(1, 2, 4) is not a permutation of 1..3"),
        ((-1, 1, 2), (1, -1, 1), "(-1, 1, 2) is not a permutation of 1..3"),
        ((True, 2, 3), (1, -1, 1), "expected an integer, got True"),
        ((1, 2.0, 3), (1, -1, 1), "expected an integer, got 2.0"),
        ((1, 2, 10**30), (1, -1, 1), f"(1, 2, {10**30}) is not a permutation of 1..3"),
        ((1, 2), (1, -1, 1), _UNEQUAL),
        ((1, 2, 3), (1, -1), _UNEQUAL),
        # With both arguments bad, epsilon's error comes first.
        ((1, 1), (1, 0), _NOT_SIGNS + "(1, 0)"),
        ((1, 2.5), (1.0, 1), "expected an integer, got 1.0"),
    ],
    ids=repr,
)
def test_tree_from_permutation_errors_are_pinned(sigma, eps, message):
    with pytest.raises(ValueError) as caught:
        cb.tree_from_permutation(sigma, eps)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_all_fork_up_identity_at_large_n_is_the_staircase():
    n = 3000
    eps = (-1,) * n
    tree = cb.tree_from_permutation(range(1, n + 1), eps)
    assert tree.edges == cb.initial_tree(eps).edges


def test_make_tree_accepts_a_located_tree_at_large_n():
    rng = random.Random(5)
    n = 5000
    eps = tuple(rng.choice((-1, 1)) for _ in range(n))
    located = cb.locate_tree(rng.sample(range(10 * n), n), eps)
    assert cb.make_tree(eps, located.edges).edges == located.edges


# sha256 of the outputs of every site that turns a bottom-up order into its
# ranking or a ranking into its order, on seeded inputs with ties for
# n = 1..300: tree_from_permutation, linear_extension, rank_permutation
# (with its TiedCoordinates message), correspondence._rebuild and
# correspondence._tied_rankings.
INVERSE_SITES_SHA256 = "29068befe5731b3540e6909b42350d263558e640a29befda3db7d2fa0994c8ac"


def _inverse_site_lines():
    rng = random.Random(19)
    for n in range(1, 301):
        eps = tuple(rng.choice((1, -1)) for _ in range(n))
        tree = cb.tree_from_permutation(rng.sample(range(1, n + 1), n), eps)
        yield f"{tree.flat} {cb.linear_extension(tree)}"
        d = rng.randint(1, 3)
        numerators = (
            rng.sample(range(-4 * n, 4 * n), n)  # distinct
            if n % 2
            else [rng.randint(-n, n) for _ in range(n)]  # ties likely
        )
        yield guarded(lambda: cb.rank_permutation([Fraction(v, d) for v in numerators]))
        lifts = [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        total, ranking, rebuilt = correspondence._rebuild(lifts, eps)
        yield f"{total} {ranking} {rebuilt.flat}"
        yield repr(correspondence._tied_rankings([rng.randint(0, 3) for _ in range(n)], 24))


def test_every_inverse_site_is_pinned():
    assert sha256_lines(_inverse_site_lines()) == INVERSE_SITES_SHA256


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
        )
    )
)
def test_every_permutation_realizes_its_tree(case):
    sigma, eps = case
    tree = cb.tree_from_permutation(sigma, eps)
    assert tuple(sigma) in cb.permutations_of(tree)
    # Validation agrees that the produced edge set is embeddable.
    assert cb.make_tree(eps, tree.edges) == tree


# ---------------------------------------------------------------------------
# permutations_of
# ---------------------------------------------------------------------------


def test_known_four_node_fan(fan_tree):
    assert cb.permutations_of(fan_tree) == FAN_PERMS


def test_fan_is_independent_of_the_sign_choice():
    accepted = 0
    for eps in all_epsilons(4):
        try:
            tree = cb.make_tree(eps, FAN_EDGES)
        except cb.CobinaryError:
            continue
        accepted += 1
        assert cb.permutations_of(tree) == FAN_PERMS
    assert accepted > 0


def test_staircase_fan_is_identity_only():
    for eps in all_epsilons(4):
        assert cb.permutations_of(cb.initial_tree(eps)) == {(1, 2, 3, 4)}


def test_staircase_fan_at_large_n_is_identity_only():
    n = 1500
    assert cb.permutations_of(cb.initial_tree((1,) * n)) == {tuple(range(1, n + 1))}


def test_fan_membership_is_region_membership():
    # sigma realizes the tree exactly when it satisfies every edge
    # inequality, which is how the sampled perm-partition suite tests it.
    for n in range(1, 7):
        perms = list(all_perms(range(1, n + 1)))
        for eps in all_epsilons(n):
            for tree in cb.enumerate_trees(eps):
                fan = cb.permutations_of(tree)
                assert {s for s in perms if cb.region_contains(tree, s)} == fan


def test_round_trip_through_every_realizing_permutation():
    for eps in all_epsilons(4):
        for tree in cb.enumerate_trees(eps):
            for sigma in cb.permutations_of(tree):
                assert cb.tree_from_permutation(sigma, eps) == tree


# ---------------------------------------------------------------------------
# enumerate_trees
# ---------------------------------------------------------------------------


def test_three_node_enumeration_golden():
    trees = cb.enumerate_trees((-1, -1, 1))
    assert len(trees) == 5
    assert [t.triples for t in trees] == [
        ((1, 2, -1), (2, 3, -1)),
        ((1, 2, -1), (2, 3, 1)),
        ((1, 2, 1), (1, 3, -1)),
        ((1, 2, 1), (2, 3, 1)),
        ((1, 3, 1), (2, 3, -1)),
    ]


def test_single_sign_enumeration():
    assert len(cb.enumerate_trees((1,))) == 1
    assert len(cb.enumerate_trees((-1,))) == 1


def test_four_node_count_agrees_with_symmetric_group_oracle():
    eps = (1, 1, 1, 1)
    via_perms = {
        cb.tree_from_permutation(sigma, eps)
        for sigma in all_perms(range(1, 5))
    }
    trees = cb.enumerate_trees(eps)
    assert len(trees) == 14
    assert set(trees) == via_perms


def test_counts_match_catalan_for_all_small_sign_sequences():
    for n in range(1, 6):
        for eps in all_epsilons(n):
            trees = cb.enumerate_trees(eps)
            assert len(trees) == cb.catalan(n)
            assert len(set(trees)) == len(trees)


def test_enumeration_is_canonically_ordered_and_deterministic():
    eps = (-1, 1, 1, -1, 1)
    first = cb.enumerate_trees(eps)
    second = cb.enumerate_trees(eps)
    assert first == second
    assert [t.triples for t in first] == sorted(t.triples for t in first)
    for tree in first:
        assert [e.triple for e in tree.edges] == sorted(e.triple for e in tree.edges)


# sha256 of the serialized trees, in order, of every sign sequence with
# n <= 7: pins the enumeration's labels and order for both signs of every node.
ALL_ENUMERATIONS_SHA256 = "1d0fc781c92fd4dce05a955b5718ed30e889547c01e0525ec8348115ba8d10e0"


def test_enumeration_of_every_small_sign_sequence_is_pinned():
    digest = hashlib.sha256()
    for n in range(1, 8):
        for eps in all_epsilons(n):
            trees = [tree_to_obj(t) for t in cb.enumerate_trees(eps)]
            digest.update((dumps(trees) + "\n").encode())
    assert digest.hexdigest() == ALL_ENUMERATIONS_SHA256


# ---------------------------------------------------------------------------
# flip and reverse
# ---------------------------------------------------------------------------


def test_flip_single_node_types():
    down = cb.tree_from_permutation((1,), (-1,))
    up = cb.flip_horizontal(down)
    assert up.epsilon == (1,)
    assert cb.flip_horizontal(up) == down


def test_flip_is_an_involution_and_a_bijection():
    for n in range(1, 5):
        for eps in all_epsilons(n):
            flipped_eps = tuple(-s for s in eps)
            trees = cb.enumerate_trees(eps)
            images = {cb.flip_horizontal(t) for t in trees}
            assert images == set(cb.enumerate_trees(flipped_eps))
            for t in trees:
                assert cb.flip_horizontal(cb.flip_horizontal(t)) == t


def test_reverse_of_staircase():
    rev = cb.reverse_tree(cb.initial_tree((-1, -1, 1)))
    assert rev.epsilon == (1, -1, -1)
    assert rev.triples == ((1, 2, -1), (2, 3, -1))


def test_reverse_is_an_involution():
    for n in range(1, 5):
        for eps in all_epsilons(n):
            for t in cb.enumerate_trees(eps):
                assert cb.reverse_tree(cb.reverse_tree(t)) == t


def test_reverse_commutes_with_mutation():
    for n in range(2, 6):
        for eps in all_epsilons(n):
            for t in cb.enumerate_trees(eps):
                for k in range(1, n):
                    left = cb.reverse_tree(cb.mutate(t, k))
                    right = cb.mutate(cb.reverse_tree(t), k)
                    assert left == right
                    assert left.edges == right.edges


# ---------------------------------------------------------------------------
# gravity
# ---------------------------------------------------------------------------

GRAVITY_ORDER = [
    {(1, 2, -1), (2, 3, -1)},
    {(1, 2, 1), (1, 3, -1)},
    {(1, 3, 1), (2, 3, -1)},
    {(1, 2, 1), (2, 3, 1)},
    {(1, 2, -1), (2, 3, 1)},
]
GRAVITY_SHAPES = [
    [[None, [None, None]], None],
    [[[None, None], None], None],
    [[None, None], [None, None]],
    [None, [None, [None, None]]],
    [None, [[None, None], None]],
]


def test_gravity_golden_shapes():
    for edge_set, shape in zip(GRAVITY_ORDER, GRAVITY_SHAPES):
        tree = cb.make_tree((-1, -1, 1), sorted(edge_set))
        assert binary_tree_to_obj(cb.gravity_map(tree)) == shape


def test_gravity_single_node():
    bt = cb.gravity_map(cb.tree_from_permutation((1,), (-1,)))
    assert bt == cb.BinaryTree(None, None)
    assert sum(bt.shape()) == 1


def test_gravity_is_a_bijection_for_each_sign_sequence():
    for n in range(1, 6):
        all_shapes = {str(binary_tree_to_obj(bt)) for bt in cb.binary_trees(n)}
        for eps in all_epsilons(n):
            images = {
                str(binary_tree_to_obj(cb.gravity_map(t)))
                for t in cb.enumerate_trees(eps)
            }
            assert images == all_shapes


def _internal_nodes(bt: cb.BinaryTree | None) -> int:
    count, stack = 0, [bt]
    while stack:
        node = stack.pop()
        if node is not None:
            count += 1
            stack += [node.left, node.right]
    return count


def _shape(bt: cb.BinaryTree | None) -> list | None:
    if bt is None:
        return None
    return [_shape(bt.left), _shape(bt.right)]


def _has_shape(bt: cb.BinaryTree | None, obj: list | None) -> bool:
    stack = [(bt, obj)]
    while stack:
        node, shape = stack.pop()
        if node is None or shape is None:
            if node is not shape:
                return False
        else:
            stack += [(node.left, shape[0]), (node.right, shape[1])]
    return True


def test_binary_tree_consumers_agree_with_recursive_walks():
    for n in range(1, 7):
        for bt in cb.binary_trees(n):
            assert sum(bt.shape()) == _internal_nodes(bt) == n
            assert binary_tree_to_obj(bt) == _shape(bt)


@pytest.mark.parametrize("eps", [(1,) * 1500, (-1,) * 1500, (1, -1) * 750])
def test_gravity_map_at_large_n(eps):
    bt = cb.gravity_map(cb.initial_tree(eps))
    assert _internal_nodes(bt) == sum(bt.shape()) == len(eps)
    assert _has_shape(bt, binary_tree_to_obj(bt))


def test_deep_binary_trees_compare_and_hash():
    a = cb.gravity_map(cb.initial_tree((1,) * 1500))
    b = cb.gravity_map(cb.initial_tree((1,) * 1500))
    c = cb.gravity_map(cb.initial_tree((1, -1) * 750))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_binary_tree_identity_is_structural():
    trees = [bt for n in range(1, 6) for bt in cb.binary_trees(n)]
    copies = [cb.binary_trees(n) for n in range(1, 6)]
    for x, y in zip(trees, (bt for group in copies for bt in group)):
        assert x is not y and x == y and hash(x) == hash(y)
    for x in trees:
        for y in trees:
            assert (x == y) == (_shape(x) == _shape(y))
    assert cb.BinaryTree() != None  # noqa: E711
    with pytest.raises(AttributeError):
        trees[0].left = None


def test_gravity_walk_around_a_cycle_is_not_a_tree():
    # Three edges on four nodes: a cycle through the root 4, node 1 apart.
    tree = cb.MixedCobinaryTree(
        4,
        (-1, -1, -1, -1),
        (
            cb.SignedEdge(1, 2, 3, -1),
            cb.SignedEdge(2, 2, 4, 1),
            cb.SignedEdge(3, 3, 4, -1),
        ),
    )
    with pytest.raises(cb.NotATree):
        cb.gravity_map(tree)


def test_binary_tree_catalog_counts():
    for n in (*range(6), 12):
        assert len(cb.binary_trees(n)) == cb.catalan(n)


def test_binary_trees_match_the_recursive_definition():
    for n in range(10):
        assert cb.binary_trees(n) == binary_trees_by_recursion(n), n
    assert cb.binary_trees(-1) == []


# ---------------------------------------------------------------------------
# equality semantics
# ---------------------------------------------------------------------------


def test_equality_ignores_edge_labels():
    a = cb.make_tree(
        (-1, -1, 1), [cb.SignedEdge(1, 1, 2, 1), cb.SignedEdge(2, 2, 3, 1)]
    )
    b = cb.make_tree(
        (-1, -1, 1), [cb.SignedEdge(2, 1, 2, 1), cb.SignedEdge(1, 2, 3, 1)]
    )
    assert a == b and hash(a) == hash(b)


def test_equality_distinguishes_sign_sequences():
    a = cb.initial_tree((1, 1))
    b = cb.initial_tree((1, -1))
    assert a != b


@pytest.mark.parametrize("other", [5, None, "tree", (1, 2, 1)], ids=repr)
def test_ordering_against_a_non_tree_is_a_type_error(other):
    tree = cb.initial_tree((1, -1, 1))
    with pytest.raises(TypeError, match="not supported between instances"):
        tree < other
    with pytest.raises(TypeError, match="not supported between instances"):
        other > tree
    assert tree != other


# sha256 of repr(t) and t.triples for every tree with n <= 5, captured
# before trees were stored as flat int tuples: the repr still lists
# SignedEdge values, and the WallViolation message prints `triples`.
REPR_AND_TRIPLES_SHA256 = "ff23be9ac6c6792ce77693fe61fd7b93ee7b499283dcc82aa6fe21911570a215"


def test_repr_and_triples_of_every_small_tree_are_pinned():
    lines = (
        f"{t!r} {t.triples!r}"
        for n in range(1, 6)
        for eps in all_epsilons(n)
        for t in cb.enumerate_trees(eps)
    )
    assert sha256_lines(lines) == REPR_AND_TRIPLES_SHA256


# ---------------------------------------------------------------------------
# identity at n = 12-40, without enumeration
# ---------------------------------------------------------------------------


@st.composite
def tree_and_others(draw):
    """A tree from a random height order and signs, then trees with the same
    signs: one from its own linear extension (equal), its mutations at a few
    edges (two edges differ) and one from a fresh height order."""
    n = draw(st.integers(min_value=12, max_value=40))
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    tree = cb.tree_from_permutation(draw(st.permutations(range(1, n + 1))), eps)
    ks = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
    others = [cb.tree_from_permutation(cb.linear_extension(tree), eps)]
    others += [cb.mutate(tree, k) for k in ks]
    others.append(cb.tree_from_permutation(draw(st.permutations(range(1, n + 1))), eps))
    return tree, others


@given(tree_and_others())
def test_equality_hash_and_order_follow_the_triples(case):
    tree, others = case
    for other in others:
        assert (tree == other) == (tree.triples == other.triples)
        assert (tree < other) == (tree.triples < other.triples)
        if tree == other:
            assert hash(tree) == hash(other)
    trees = [tree] + others
    assert [t.triples for t in sorted(trees)] == sorted(t.triples for t in trees)


@given(tree_and_others(), st.randoms(use_true_random=False))
def test_relabelled_pickled_and_copied_trees_keep_their_identity(case, rng):
    tree, _ = case
    triples = list(tree.triples)
    rng.shuffle(triples)
    fresh = cb.tree_from_permutation(cb.linear_extension(tree), tree.epsilon)
    hash(tree)  # one copy with the key already computed, one without
    for copied in (
        tree.relabelled(triples),
        pickle.loads(pickle.dumps(tree)),
        pickle.loads(pickle.dumps(fresh)),
        copy.deepcopy(tree),
        copy.deepcopy(fresh),
    ):
        assert copied == tree and hash(copied) == hash(tree)
        assert not copied < tree and not tree < copied
    other_signs = cb.MixedCobinaryTree(
        tree.n, tuple(-s for s in tree.epsilon), tree.edges
    )
    assert other_signs != tree
