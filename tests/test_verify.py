"""The verification entry point's own argument checks, the region-partition
suite against faulty enumerations, and the sampled suites' one check per
distinct wall or tree against faulty library functions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import cobinary as cb
from cobinary import regions, verify
from cobinary.trees import _tree_from_flat

from oracles import missing_by_lcm


@pytest.mark.parametrize("samples", [0, -1])
def test_run_all_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify.run_all((1, -1, 1, -1), n_max=2, samples=samples)


def _drop(trees, i):
    del trees[i]


def _duplicate(trees, i):
    trees.insert(0, trees[i])


def _flip_a_slope(trees, i):
    flat = list(trees[i].flat)
    flat[2] = -flat[2]
    trees[i] = _tree_from_flat(trees[i].epsilon, flat)


PARTITION_EPS = (1, -1, -1, 1)


@pytest.mark.parametrize("fault", [_drop, _duplicate, _flip_a_slope])
def test_region_partition_fails_when_the_trees_do_not_tile(monkeypatch, fault):
    real = verify.enumerate_trees
    assert verify.suite_region_partition(PARTITION_EPS, 6, 300, 0).passed
    for i in range(cb.catalan(len(PARTITION_EPS))):

        def faulty(eps):
            trees = list(real(eps))
            fault(trees, i)
            return trees

        monkeypatch.setattr(verify, "enumerate_trees", faulty)
        result = verify.suite_region_partition(PARTITION_EPS, 6, 300, 0)
        assert result.line().startswith("suite region-partition: FAIL"), i


def test_region_partition_compares_with_locate_tree(monkeypatch):
    monkeypatch.setattr(verify, "locate_tree", lambda x, eps: cb.initial_tree(eps))
    result = verify.suite_region_partition(PARTITION_EPS, 6, 300, 0)
    assert result.line().startswith("suite region-partition: FAIL")


def test_region_partition_makes_one_membership_call_per_sample(monkeypatch):
    calls = []
    real = verify.region_contains

    def counted(tree, x, strict=True):
        calls.append(x)
        return real(tree, x, strict)

    monkeypatch.setattr(verify, "region_contains", counted)
    assert verify.suite_region_partition((1, -1, 1, 1, -1), 6, 50, 0).passed
    assert len(calls) == 50


def test_edge_masks_give_the_trees_whose_region_holds_a_point():
    rng = random.Random(4)
    for n in range(1, 6):
        for eps in cb.sign_sequences(n):
            trees = cb.enumerate_trees(eps)
            masks = verify._edge_masks(trees)
            for _ in range(30):
                x = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n))
                if len(set(x)) < n:
                    continue
                missing = verify._trees_missing(masks, x)
                inside = [t for i, t in enumerate(trees) if not missing >> i & 1]
                assert inside == [t for t in trees if cb.region_contains(t, x)]
                assert len(inside) == 1


def test_trees_missing_on_keys_matches_the_lcm_scaled_point():
    # Seeded points with negative non-integer coordinates; in half of them
    # two coordinates are closer than 2**-64, so their keys share the integer.
    # Both the pairs and the floors-or-pairs choice that region-partition
    # makes (regions._sort_keys) are checked, and that choice must tell
    # distinct coordinates from tied ones exactly as the Fractions do.
    rng = random.Random(15)
    close = (Fraction(1, 2**70), Fraction(-1, 2**64 + 1), Fraction(3, 2**66))
    for n in range(1, 7):
        for eps in cb.sign_sequences(n):
            masks = verify._edge_masks(cb.enumerate_trees(eps))
            for _ in range(20):
                x = [Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 1000)) for _ in range(n)]
                if n > 1 and rng.random() < 0.5:
                    i, j = rng.sample(range(n), 2)
                    x[j] = x[i] + rng.choice(close)
                distinct = len(set(x)) == n
                assert (len(set(regions._sort_keys(x))) == n) == distinct, x
                if n > 1:
                    tied = [*x[:-1], x[0]]
                    assert len(set(regions._sort_keys(tied))) < n, tied
                if not distinct:
                    continue
                expected = missing_by_lcm(masks, x)
                missing = verify._trees_missing(masks, tuple(zip(regions._floors(x), x)))
                assert missing == expected, (eps, x)
                missing = verify._trees_missing(masks, regions._sort_keys(x))
                assert missing == expected, (eps, x)


# Sampled (n=7 above n_max=6) and exhaustive (n=5) runs of the suites that
# read each drawn wall or tree once.
DRAW_CASES = [((1, -1, 1, -1, 1, -1, 1), 6), ((1, -1, -1, 1, -1), 6)]


def _record_last_drawn(monkeypatch) -> dict:
    """Wrap the draw sources so that last["tree"] is the suite's last draw:
    the last sampled tree, or the last tree of the enumeration."""
    last = {}
    for name in ("tree_from_permutation", "enumerate_trees"):
        real = getattr(verify, name)

        def recorded(*args, real=real):
            out = real(*args)
            last["tree"] = out if isinstance(out, cb.MixedCobinaryTree) else out[-1]
            return out

        monkeypatch.setattr(verify, name, recorded)
    return last


def _wrong_fz_mutate(last):
    real = verify.fz_mutate

    def wrong(ex, k):  # leaves the last drawn tree's matrix unmutated
        return ex if ex == cb.exchange_matrix(last["tree"]) else real(ex, k)

    return wrong


def _wrong_exchange_matrix(last):
    real = verify.exchange_matrix

    def wrong(tree):  # negates B for the last drawn tree only
        ex = real(tree)
        if tree.flat != last["tree"].flat:
            return ex
        return cb.ExchangeMatrix(tuple(tuple(-x for x in row) for row in ex.b_rows), ex.c_rows)

    return wrong


def _wrong_wall_stability_point(last):
    real = verify.wall_stability_point

    def wrong(tree, k):  # rejects every wall of the last drawn tree
        x, good = real(tree, k)
        return x, good and tree.flat != last["tree"].flat

    return wrong


FAULTS = [
    ("fz_mutate", _wrong_fz_mutate, verify.suite_theorem2),
    ("exchange_matrix", _wrong_exchange_matrix, verify.suite_theorem2),
    ("exchange_matrix", _wrong_exchange_matrix, verify.suite_properties),
    ("wall_stability_point", _wrong_wall_stability_point, verify.suite_wall_stability),
]


@pytest.mark.parametrize("eps, n_max", DRAW_CASES)
@pytest.mark.parametrize(
    "name, fault, suite", FAULTS, ids=[f"{f[0]}-{f[2].__name__}" for f in FAULTS]
)
def test_a_fault_on_the_last_draw_fails_the_suite(monkeypatch, eps, n_max, name, fault, suite):
    last = _record_last_drawn(monkeypatch)
    assert suite(eps, n_max, 1000, 0).passed
    monkeypatch.setattr(verify, name, fault(last))
    result = suite(eps, n_max, 1000, 0)
    assert " FAIL" in result.line(), result.line()


def test_sampled_theorem2_checks_each_distinct_wall_once(monkeypatch):
    eps = (1, -1, 1, -1, 1, -1, 1)
    walls = verify._walls(eps, 6, 1000, verify._rng(0, "theorem2"))
    trees = {tree.flat for tree, _ in walls}
    distinct = {(tree.flat, k) for tree, k in walls}
    assert len(distinct) < len(walls)  # the draws repeat walls
    calls = {"exchange_matrix": 0, "fz_mutate": 0}
    for name in calls:
        real = getattr(verify, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, counted)
    result = verify.suite_theorem2(eps, 6, 1000, 0)
    assert result.line() == "suite theorem2: pass (mode=sampled checked=1000)"
    assert calls["exchange_matrix"] <= len(trees) + len(distinct)
    assert calls["fz_mutate"] == len(distinct)


@pytest.mark.parametrize(
    "name, fault, suite", [FAULTS[1], FAULTS[3]], ids=["theorem2", "wall-stability"]
)
def test_each_labelling_of_a_tree_is_checked(monkeypatch, name, fault, suite):
    # Two labellings of one tree are ==, but edge k is not the same edge in
    # both, so a fault on the second labelling alone must fail the suite.
    eps = (1, -1, 1, 1, -1)
    tree = cb.enumerate_trees(eps)[7]
    swapped = tree.relabelled(list(tree.edge_triples())[::-1])
    assert swapped == tree and swapped.flat != tree.flat
    walls = [(t, k) for t in (tree, swapped) for k in range(1, 5)]
    monkeypatch.setattr(verify, "_walls", lambda *args: walls)
    assert suite(eps, 6, 1000, 0).passed
    monkeypatch.setattr(verify, name, fault({"tree": swapped}))
    assert not suite(eps, 6, 1000, 0).passed


def test_sampled_properties_checks_each_drawn_tree_once(monkeypatch):
    drawn, checked = [], []
    real_draw, real_matrix = verify.tree_from_permutation, verify.exchange_matrix

    def draw(sigma, eps):
        tree = real_draw(sigma, eps)
        drawn.append(tree.flat)
        return tree

    def matrix(tree):
        checked.append(tree.flat)
        return real_matrix(tree)

    monkeypatch.setattr(verify, "tree_from_permutation", draw)
    monkeypatch.setattr(verify, "exchange_matrix", matrix)
    assert verify.suite_properties((1, -1, 1, -1, 1, -1, 1), 6, 1000, 0).passed
    assert len(drawn) == 200 and len(set(drawn)) < 200
    assert sorted(checked) == sorted(set(drawn))
