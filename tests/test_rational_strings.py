"""Rational strings read the same on every supported Python.

Python 3.11 began to read underscores between digits ("1_0") and 3.12
whitespace around the slash ("1 / 2"); 3.10 refuses both.  The library's
one string reader refuses them on every version, with 3.10's message.
This file needs no pytest, so the table can be checked on an interpreter
that has none:

    PYTHONPATH=src python3 tests/test_rational_strings.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from cobinary import as_region_point
from cobinary.cli import main
from cobinary.regions import _read_fraction


def _refused(text: str) -> str:
    return f"ValueError: Invalid literal for Fraction: {text!r}"


# Each string with what the reader gives for it: a Fraction, or the type
# and message of the exception it raises.
TABLE = (
    ("1/2", Fraction(1, 2)),
    ("-6/4", Fraction(-3, 2)),
    ("+3", Fraction(3)),
    (" 1/2\n", Fraction(1, 2)),
    ("\t-7\t", Fraction(-7)),
    ("\u00a01/3\u00a0", Fraction(1, 3)),
    ("0.1", Fraction(1, 10)),
    ("-0.3", Fraction(-3, 10)),
    (".5", Fraction(1, 2)),
    ("5.", Fraction(5)),
    ("1e3", Fraction(1000)),
    ("2.5E-1", Fraction(1, 4)),
    ("\u0661/\u0662", Fraction(1, 2)),
    # Read by 3.11 and later, refused by 3.10.
    ("1_0/3", _refused("1_0/3")),
    ("1_0", _refused("1_0")),
    ("10/3_0", _refused("10/3_0")),
    ("1_000.5", _refused("1_000.5")),
    ("1e-2_0", _refused("1e-2_0")),
    # Read by 3.12 and later, refused by 3.10.
    ("1 / 2", _refused("1 / 2")),
    ("1/ 2", _refused("1/ 2")),
    ("1 /2", _refused("1 /2")),
    ("1\t/2", _refused("1\t/2")),
    ("1\u00a0/2", _refused("1\u00a0/2")),
    # Refused by every version.
    ("_1", _refused("_1")),
    ("1__0", _refused("1__0")),
    ("- 1", _refused("- 1")),
    ("1 2", _refused("1 2")),
    ("x", _refused("x")),
    ("", _refused("")),
    ("  ", _refused("  ")),
    ("1/2.5", _refused("1/2.5")),
    ("1/-2", _refused("1/-2")),
    ("0x10", _refused("0x10")),
    ("inf", _refused("inf")),
    ("nan", _refused("nan")),
    ("1/0", "ZeroDivisionError: Fraction(1, 0)"),
)


def _outcome(read, text):
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_rational_strings_read_as_the_table_says():
    assert [(text, _outcome(_read_fraction, text)) for text, _ in TABLE] == list(TABLE)


def test_region_points_read_rational_strings_as_the_table_says():
    def read(text):
        return as_region_point([text])

    for text, expected in TABLE:
        if isinstance(expected, Fraction):
            assert _outcome(read, text) == (expected,), text
        else:
            message = f"ValueError: cannot read exact rational coordinate {text!r}"
            assert _outcome(read, text) == message, text


def _stability(v: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(
            ["clusters", "stability", "--epsilon", "1,-1,-1,1", "--p", "2", "--q", "4",
             "--v", v]
        )
    return code, out.getvalue(), err.getvalue()


def test_stability_weights_refuse_what_the_table_refuses():
    assert _stability("10,5,3")[0] == 0
    for v, token in (("1_0,5,3", "1_0"), ("1 / 2,5,3", "1 / 2")):
        code, out, err = _stability(v)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "usage",
            "message": f"bad --v value {v!r}: Invalid literal for Fraction: {token!r}",
        }


if __name__ == "__main__":
    for text, expected in TABLE:
        got = _outcome(_read_fraction, text)
        print(f"{'ok ' if got == expected else 'BAD'} {text!r} -> {got!r}")
    checks = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for check in checks:
        check()
    print(f"Python {sys.version.split()[0]}: {len(TABLE)} strings, {len(checks)} checks passed")
