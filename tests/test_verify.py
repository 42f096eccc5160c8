"""The verification entry point's own argument checks, and the
region-partition suite against faulty enumerations."""

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
                if len(set(x)) < n:
                    continue
                missing = verify._trees_missing(masks, regions._keys(x))
                assert missing == missing_by_lcm(masks, x), (eps, x)
