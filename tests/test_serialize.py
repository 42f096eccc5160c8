"""JSON interchange round-trip tests."""

from __future__ import annotations

from fractions import Fraction

import pytest

import cobinary as cb
from cobinary import serialize

from conftest import CLU_V_COLS, MUT_EDGES, MUT_EPS


def test_tree_round_trip():
    tree = cb.make_tree(MUT_EPS, MUT_EDGES)
    obj = serialize.tree_to_obj(tree)
    assert obj["n"] == 5
    assert [e["i"] for e in obj["edges"]] == [1, 2, 3, 4]
    again = serialize.tree_from_obj(obj)
    assert again == tree
    assert [e.index for e in again.edges] == [e.index for e in tree.edges]


def test_tree_from_obj_validates():
    with pytest.raises(cb.CobinaryError):
        serialize.tree_from_obj({"n": 2, "epsilon": [1, 1], "edges": "nope"})
    with pytest.raises(cb.WallViolation):
        serialize.tree_from_obj(
            {
                "n": 3,
                "epsilon": [-1, -1, 1],
                "edges": [
                    {"i": 1, "p": 1, "q": 2, "slope": -1},
                    {"i": 2, "p": 1, "q": 3, "slope": 1},
                ],
            }
        )
    with pytest.raises(cb.CobinaryError):
        serialize.tree_from_obj(
            {
                "n": 4,
                "epsilon": [1, 1],
                "edges": [{"i": 1, "p": 1, "q": 2, "slope": 1}],
            }
        )


def test_c_matrix_round_trip():
    cmat = cb.c_matrix(cb.make_tree(MUT_EPS, MUT_EDGES))
    obj = serialize.cmatrix_to_obj(cmat)
    assert obj == [list(col) for col in cmat.columns]
    assert serialize.cmatrix_from_obj(obj) == cmat


def test_exchange_round_trip():
    ex = cb.exchange_matrix(cb.make_tree(MUT_EPS, MUT_EDGES))
    obj = serialize.exchange_to_obj(ex)
    assert set(obj) == {"B", "C"}
    assert serialize.exchange_from_obj(obj) == ex


def test_cluster_round_trip():
    cluster = cb.ClusterMatrix(CLU_V_COLS)
    obj = serialize.cluster_to_obj(cluster)
    assert serialize.cluster_from_obj(obj) == cluster


def test_point_round_trip():
    point = (Fraction(1, 3), Fraction(-7, 2), Fraction(4))
    obj = serialize.point_to_obj(point)
    assert obj == ["1/3", "-7/2", "4/1"]
    assert serialize.point_from_obj(obj) == point
    assert serialize.point_from_obj([1, "2/5"]) == (Fraction(1), Fraction(2, 5))


def test_point_rejects_floats():
    with pytest.raises(cb.CobinaryError):
        serialize.point_from_obj([0.5])


@pytest.mark.parametrize(
    "obj", [[1.5], [True], [False], ["x"], ["1/0"], [None], [[1]], [1, "2/"]]
)
def test_point_reads_only_integers_and_rational_strings(obj):
    with pytest.raises(cb.CobinaryError, match="cannot read exact rational coordinate"):
        serialize.point_from_obj(obj)


@pytest.mark.parametrize(
    "obj",
    [[[1.5]], [[True]], [["1"]], [[None]], [1], {"a": [1]}, "[[1]]", [[1, 0], [0]]],
)
def test_c_matrix_reads_only_square_integer_columns(obj):
    with pytest.raises(ValueError):
        serialize.cmatrix_from_obj(obj)


def test_dumps_is_compact_and_ordered():
    text = serialize.dumps({"b": 1, "a": 2})
    assert text == '{"b":1,"a":2}'


def test_binary_tree_serialization():
    tree = cb.make_tree((-1, -1, 1), [(1, 2, 1), (2, 3, 1)])
    shape = serialize.binary_tree_to_obj(cb.gravity_map(tree))
    assert shape == [None, [None, [None, None]]]
