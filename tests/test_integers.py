"""The one integer policy: every integer entry point reads through
`linalg.as_ints`, which accepts a Python int that is not a bool, rejects
anything else with ValueError, and rounds nothing."""

from __future__ import annotations

import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

import cobinary as cb
from cobinary import linalg, serialize, verify

from conftest import CLU_C_ROWS, CLU_EPS, CLU_V_COLS
from oracles import euler_form

NON_INTEGERS = [1.5, 2.0, Fraction(3, 2), Fraction(2, 1), "1", True]

# Each entry point with one integer slot filled by the value under test;
# every other argument is valid.
ENTRY_POINTS = {
    "as_ints": lambda x: linalg.as_ints([1, x]),
    "as_sign_sequence": lambda x: cb.as_sign_sequence([1, x]),
    "as_permutation": lambda x: cb.as_permutation([2, x]),
    "SignedEdge": lambda x: cb.SignedEdge(x, 1, 2, 1),
    "MixedCobinaryTree": lambda x: cb.MixedCobinaryTree(
        x, (1, 1), (cb.SignedEdge(1, 1, 2, 1),)
    ),
    "Root": lambda x: cb.Root(x, 3),
    # Edge labels and mutation directions.
    "MixedCobinaryTree.edge": lambda x: cb.initial_tree((1, -1, 1)).edge_triple(x),
    "c_vector": lambda x: cb.c_matrix(cb.initial_tree((1, -1, 1))).column(x),
    "mutate": lambda x: cb.mutate(cb.initial_tree((1, -1, 1)), x),
    "wall_point": lambda x: cb.wall_point(cb.initial_tree((1, -1, 1)), x),
    "CMatrix.column": lambda x: cb.CMatrix(((1, 0), (1, 1))).column(x),
    "fz_mutate": lambda x: cb.fz_mutate(
        cb.exchange_matrix(cb.initial_tree((1, -1, 1))), x
    ),
    # The oracle for a^t E b, which reads its vectors as the library does.
    "euler_form": lambda x: euler_form((1, -1, 1), (x, 0), (1, 0)),
    "ClusterMatrix": lambda x: cb.ClusterMatrix(((x, 0), (0, 1))),
    "cluster_violation": lambda x: cb.cluster_violation([[x, 0], [0, 1]], (1, 1, 1)),
    "CMatrix": lambda x: cb.CMatrix(((x, 0), (0, 1))),
    "as_matrix": lambda x: linalg.as_matrix(((x, 0), (0, 1))),
    "ExchangeMatrix": lambda x: cb.ExchangeMatrix(((0, 0), (0, 0)), ((x, 0), (0, 1))),
    # A bare object with columns skips ClusterMatrix's own reader.
    "classical_c_matrix": lambda x: cb.classical_c_matrix(
        SimpleNamespace(columns=((x, 0), (0, 1))), (1, 1, 1)
    ),
    "det": lambda x: linalg.det(((x, 0), (0, 1))),
    "inverse_integer": lambda x: linalg.inverse_integer(((x, 0), (0, 1))),
    # Sizes, positions and counts.
    "catalan": cb.catalan,
    "sign_sequences": lambda x: list(cb.sign_sequences(x)),
    "binary_trees": cb.binary_trees,
    "positive_roots": lambda x: list(cb.positive_roots(x)),
    "interval_vector": lambda x: cb.interval_vector(x, 2, 3),
    "Root.vector": lambda x: cb.Root(1, 2).vector(x),
    "run_all": lambda x: verify.run_all((1, -1, 1), n_max=3, samples=x),
}


@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_integers(entry, value):
    with pytest.raises(ValueError, match=r"^expected an integer, got "):
        ENTRY_POINTS[entry](value)


# The two square integer column matrices, each with the name its square
# check reports and its pickle at protocol 4.
MATRIX_TYPES = {
    "CMatrix": (
        cb.CMatrix,
        "c-matrix",
        b"\x80\x04\x95?\x00\x00\x00\x00\x00\x00\x00\x8c\x10cobinary.regions\x94"
        b"\x8c\x07CMatrix\x94\x93\x94)\x81\x94}\x94\x8c\x07columns\x94"
        b"K\x01K\x00\x86\x94K\x01K\x01\x86\x94\x86\x94sb.",
    ),
    "ClusterMatrix": (
        cb.ClusterMatrix,
        "cluster matrix",
        b"\x80\x04\x95F\x00\x00\x00\x00\x00\x00\x00\x8c\x11cobinary.clusters\x94"
        b"\x8c\rClusterMatrix\x94\x93\x94)\x81\x94}\x94\x8c\x07columns\x94"
        b"K\x01K\x00\x86\x94K\x01K\x01\x86\x94\x86\x94sb.",
    ),
}

# Columns each matrix type rejects, with the exact message ({} is the
# type's name).
BAD_COLUMNS = {
    "float": (((1.5, 0), (0, 1)), "expected an integer, got 1.5"),
    "bool": (((1, 0), (0, True)), "expected an integer, got True"),
    "string": ((("1", 0), (0, 1)), "expected an integer, got '1'"),
    "ragged": (((1, 0), (1,)), "{} must be square"),
    "non-square": (((1, 0), (0, 1), (1, 1)), "{} must be square"),
}


@pytest.mark.parametrize("bad", sorted(BAD_COLUMNS))
@pytest.mark.parametrize("kind", sorted(MATRIX_TYPES))
def test_matrix_types_reject_bad_columns_with_exact_messages(kind, bad):
    cls, name, _ = MATRIX_TYPES[kind]
    columns, message = BAD_COLUMNS[bad]
    with pytest.raises(ValueError) as caught:
        cls(columns)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message.format(name)


@pytest.mark.parametrize("kind", sorted(MATRIX_TYPES))
def test_matrix_types_keep_repr_equality_hash_and_pickle(kind):
    cls, _, pickled = MATRIX_TYPES[kind]
    m = cls([[1, 0], [1, 1]])
    assert repr(m) == f"{kind}(columns=((1, 0), (1, 1)))"
    assert m == cls(((1, 0), (1, 1))) and hash(m) == hash((m.columns,))
    # The other type with equal columns hashes alike but is not equal.
    (other,) = (c for name, (c, _, _) in MATRIX_TYPES.items() if name != kind)
    assert m != other(m.columns) and hash(m) == hash(other(m.columns))
    assert pickle.dumps(m, protocol=4) == pickled
    loaded = pickle.loads(pickled)
    assert type(loaded) is cls and loaded == m and repr(loaded) == repr(m)


# Exact rational coordinates read through `regions.as_region_point`: an int,
# a Fraction or an "a/b" string.  A float or a bool is rejected.
NON_RATIONALS = [0.1, 2.0, True, False]

RATIONAL_ENTRY_POINTS = {
    "as_region_point": lambda x: cb.as_region_point([1, x]),
    "stability_domain_contains": lambda x: cb.stability_domain_contains(
        (-1, 1, -1, -1), cb.Root(1, 4), (x, Fraction(3, 10), Fraction(1, 5))
    ),
    "locate_tree": lambda x: cb.locate_tree((x, 5, 3), (1, -1, 1)),
    "region_contains": lambda x: cb.region_contains(cb.initial_tree((1, 1, 1)), (x, 2, 3)),
    "point_to_obj": lambda x: serialize.point_to_obj([x]),
}


@pytest.mark.parametrize("value", NON_RATIONALS, ids=repr)
@pytest.mark.parametrize("entry", sorted(RATIONAL_ENTRY_POINTS))
def test_rational_entry_points_reject_floats_and_bools(entry, value):
    with pytest.raises(ValueError, match=r"^cannot read exact rational coordinate "):
        RATIONAL_ENTRY_POINTS[entry](value)


def test_nothing_is_rounded():
    with pytest.raises(ValueError, match="got 1.7"):
        cb.as_sign_sequence([1.7, -1.2])
    with pytest.raises(ValueError, match="got 0.99"):
        cb.cluster_violation([[0.99, 0], [0, 1]], (1, 1, 1))
    with pytest.raises(ValueError, match="got 4.5"):
        linalg.det(((1, 2), (3, 4.5)))
    with pytest.raises(ValueError, match="got 1.0"):
        cb.SignedEdge(1.0, 1, 2, 1.0)


def test_the_reader_returns_the_ints_it_reads():
    assert linalg.as_ints(iter([3, -1, 0, 10**30])) == (3, -1, 0, 10**30)
    assert linalg.as_ints([]) == ()


def test_integer_input_gives_the_same_results():
    assert cb.as_sign_sequence([1, -1]) == (1, -1)
    assert cb.as_permutation([2, 1, 3]) == (2, 1, 3)
    assert cb.SignedEdge(1, 2, 3, -1).triple == (2, 3, -1)
    assert cb.Root(1, 3, -1).vector(4) == (-1, -1, 0)
    assert cb.ClusterMatrix([[1, 0], [0, 1]]).columns == ((1, 0), (0, 1))
    assert cb.cluster_violation([[1, 0], [0, 1]], (1, 1, 1)) == (
        "columns 2 and 1 are incompatible: v_2^t E v_1 < 0"
    )
    assert cb.CMatrix([[1, 0], [1, 1]]).rows == ((1, 1), (0, 1))
    assert linalg.as_matrix([[1, 2], [3, 4]]) == ((1, 2), (3, 4))
    assert cb.ExchangeMatrix([[0, 1], [-1, 0]], [[1, 0], [0, 1]]).b_rows == (
        (0, 1),
        (-1, 0),
    )
    assert cb.classical_c_matrix(cb.ClusterMatrix(CLU_V_COLS), CLU_EPS).rows == CLU_C_ROWS
    assert linalg.det(((1, 2), (3, 4))) == -2
    assert linalg.inverse_integer(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    tree = cb.initial_tree((1, -1, 1))
    assert cb.c_matrix(tree).column(2) == (0, 1)
    assert cb.CMatrix(((1, 0), (1, 1))).column(2) == (1, 1)
    assert euler_form((1, -1, 1), (1, 0), (1, 0)) == 1


def test_exact_rationals_are_read_as_they_are():
    x = Fraction(1, 10)
    assert cb.as_region_point([x, 2, "-3/4"]) == (x, Fraction(2), Fraction(-3, 4))
    assert cb.as_region_point([x])[0] is x
    # In floating point 0.1 + 0.2 != 0.3 and this point fell outside.
    v = (x, Fraction(3, 10), Fraction(1, 5))
    assert cb.stability_domain_contains((-1, 1, -1, -1), cb.Root(1, 4), v)
