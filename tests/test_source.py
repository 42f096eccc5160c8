"""Rules on the library's source code itself."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import cobinary as cb


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so every check the library
    # relies on must raise an exception instead.
    sources = sorted(Path(cb.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_integer_reader_asks_whether_a_value_is_an_int():
    # One integer policy: linalg.as_ints decides what counts as an integer.
    sources = sorted(Path(cb.__file__).parent.glob("*.py"))
    pattern = re.compile(r"type\(\w+\) is (not )?int\b|isinstance\([^)]*\bint\b")
    found = [path.name for path in sources if pattern.search(path.read_text())]
    assert found == ["linalg.py"]


def test_library_has_no_floating_point():
    # The exactness rule: no true division, float literal, float() or
    # round() anywhere in the library.  Point location's sort keys rely on
    # floor division of exact integers.
    sources = sorted(Path(cb.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno} true division")
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno} float literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "round")
            ):
                found.append(f"{path.name}:{node.lineno} {node.func.id}() call")
    assert found == []
