"""Exact determinant and integer inverse: the one fraction-free elimination
against rational references, the zero-pivot row swap, error types and
messages, and pinned CLI output of the commands built on it."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

import cobinary as cb
from cobinary import linalg

from test_cli import run_cli


def reference_inverse(m):
    """Gauss-Jordan over the rationals; None when m is singular."""
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def expected_outcome(m):
    """What inverse_integer must return or raise, as (kind, value)."""
    inv = reference_inverse(m)
    if inv is None:
        return ("SingularV", "matrix is singular")
    for row in inv:
        for x in row:
            if x.denominator != 1:
                return ("NonIntegralResult", f"inverse has non-integer entry {x}")
    return ("ok", tuple(tuple(int(x) for x in row) for row in inv))


def outcome(m):
    try:
        return ("ok", linalg.inverse_integer(m))
    except (cb.SingularV, cb.NonIntegralResult) as exc:
        return (type(exc).__name__, str(exc))


def unimodular(rng, n):
    """A random integer matrix with integer inverse, rows shuffled."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return tuple(tuple(row) for row in m)


def seeded_matrices():
    rng = random.Random(20240518)
    for n in range(11):
        for trial in range(60):
            if trial % 2:
                yield unimodular(rng, n)
            else:
                bound = rng.choice((1, 2, 5))
                yield tuple(
                    tuple(rng.choice((0, rng.randint(-bound, bound))) for _ in range(n))
                    for _ in range(n)
                )


def reference_det(m):
    """Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    d = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return d


def test_inverse_matches_rational_reference():
    seen = set()
    for m in seeded_matrices():
        want = expected_outcome(m)
        assert outcome(m) == want, m
        seen.add(want[0])
    assert seen == {"ok", "SingularV", "NonIntegralResult"}


def test_det_matches_rational_reference():
    dets = [linalg.det(m) for m in seeded_matrices()]
    assert dets == [reference_det(m) for m in seeded_matrices()]
    assert 0 in dets and any(abs(d) > 1 for d in dets)


@pytest.mark.parametrize(
    "m",
    [
        ((0, 1), (1, 0)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        # Nonzero leading pivot, but the second pivot vanishes after step one.
        ((1, 1, 0), (1, 1, 1), (0, 1, 1)),
        ((0, 2, 1), (1, 0, 0), (0, 1, 1)),
        ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (0, 1, 0, 0)),
    ],
)
def test_zero_pivots_swap_rows(m):
    inv = linalg.inverse_integer(m)
    assert ("ok", inv) == expected_outcome(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(len(m))


@pytest.mark.parametrize(
    "m",
    [((1, 2), (2, 4)), ((0, 1), (0, 3)), ((1, 1, 0), (1, 1, 0), (0, 1, 1))],
)
def test_singular_input_raises(m):
    with pytest.raises(cb.SingularV, match=r"^matrix is singular$"):
        linalg.inverse_integer(m)


def test_non_integral_inverse_names_the_entry():
    with pytest.raises(cb.NonIntegralResult) as info:
        linalg.inverse_integer(((2, 0), (0, 1)))
    assert str(info.value) == "inverse has non-integer entry 1/2"


def test_empty_and_non_square():
    assert linalg.inverse_integer(()) == ()
    with pytest.raises(ValueError, match="non-square"):
        linalg.inverse_integer(((1, 0),))


# sha256 of the stdout of `cobinary bij all --epsilon -1,1,-1,1,1` (42 pairs).
BIJ_ALL_SHA256 = "e4bf5fc1bb6459f4320522bbda90827010be9b21c4fe306c58f92f9de5922ce3"


def test_bij_all_stdout_is_pinned():
    out = run_cli("bij", "all", "--epsilon", "-1,1,-1,1,1")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == BIJ_ALL_SHA256


SINGULAR = (
    "--epsilon", "-1,1,-1,1,1", "--cluster", "[[1,0,0,0],[1,1,1,0],[0,1,1,0],[0,0,0,1]]"
)
HALF = ("--epsilon", "1,1,1", "--cluster", "[[2,0],[0,1]]")


@pytest.mark.parametrize(
    "args, error",
    [
        (
            ("bij", "to-tree", *SINGULAR),
            {
                "error": "VerificationFailed",
                "message": "V^t E is not invertible over Z: matrix is singular",
            },
        ),
        (
            ("bij", "to-tree", *HALF),
            {
                "error": "VerificationFailed",
                "message": "V^t E is not invertible over Z: "
                "inverse has non-integer entry 1/2",
            },
        ),
        (
            ("clusters", "c-matrix", *SINGULAR),
            {"error": "SingularV", "message": "matrix is singular"},
        ),
        (
            ("clusters", "c-matrix", *HALF),
            {
                "error": "NonIntegralResult",
                "message": "inverse has non-integer entry 1/2",
            },
        ),
    ],
)
def test_inverse_errors_reach_the_cli(args, error):
    out = run_cli(*args)
    assert out.returncode == 1
    assert out.stdout == ""
    assert json.loads(out.stderr) == error
