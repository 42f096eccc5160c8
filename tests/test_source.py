"""Rules on the library's source code itself."""

from __future__ import annotations

import ast
import re
from collections import Counter
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


def test_library_has_no_unused_imports():
    # A deletion takes its imports with it.  __init__.py imports in order to
    # re-export, so it is exempt.
    sources = sorted(Path(cb.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        module = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


def test_the_library_has_one_bounded_cache():
    # Every per-sign-sequence table lives on exchange.Quiver, reached through
    # exchange.quiver, so that one bound decides how long an eps's tables live.
    sources = sorted(Path(cb.__file__).parent.glob("*.py"))
    memo = re.compile(r"\b(lru_cache|cached_property)\b")
    found = [path.name for path in sources if memo.search(path.read_text())]
    assert found == ["exchange.py"]
    text = (Path(cb.__file__).parent / "exchange.py").read_text()
    assert re.findall(r"lru_cache\((.*)\)", text) == ["maxsize=_QUIVERS"]
    assert 0 < cb.exchange._QUIVERS < 1000


def _listed(heading: str) -> list[str]:
    """The names that the items of README's list under heading open with."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.partition(f"\n## {heading}\n")[2]
    items = [
        line.partition(":")[0]
        for line in section.partition("\n## ")[0].splitlines()
        if line.startswith("- ")
    ]
    return [name for item in items for name in re.findall(r"`([\w.]+)`", item)]


def test_every_public_name_has_a_caller_or_a_reason():
    # One public name per concept: a public top-level function or class that
    # nothing else in the library reaches either repeats another name or is
    # API on purpose, and README's list says why for each of the latter.
    defined, used = set(), set()
    for path in sorted(Path(cb.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.add(own)
            used |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
            } - {own}
    uncalled = defined - used
    listed = _listed("Public names that the library does not call")
    listed = {name.rpartition(".")[2] for name in listed}
    assert sorted(uncalled - listed) == []
    # A listed name that has gained a caller leaves the list.
    assert sorted(listed - uncalled) == []


def test_every_public_method_has_a_caller_or_a_reason():
    # The same rule one level down: a public method or property of a public
    # class that the library never reads as `.name`, outside its own
    # definition, is named with its reason in README's second list.
    methods, reads = [], Counter()
    for path in sorted(Path(cb.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        reads.update(node.attr for node in ast.walk(module) if isinstance(node, ast.Attribute))
        methods += [
            (f"{top.name}.{member.name}", member)
            for top in module.body
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_")
            for member in top.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        ]
    uncalled = {
        qualified
        for qualified, member in methods
        if reads[member.name] == sum(
            isinstance(node, ast.Attribute) and node.attr == member.name
            for node in ast.walk(member)
        )
    }
    listed = set(_listed("Methods and properties that the library does not call"))
    assert sorted(uncalled - listed) == []
    assert sorted(listed - uncalled) == []


def test_only_the_cli_and_the_suites_read_a_ranking_into_a_tree():
    # One route from a height order to a tree: a library caller that holds
    # a bottom-up order hands it to trees._tree_from_order, so the ranking
    # reader tree_from_permutation serves only `trees from-perm` and the
    # suites that draw or test rankings.
    callers = {
        path.name
        for path in Path(cb.__file__).parent.glob("*.py")
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "tree_from_permutation"
    }
    assert sorted(callers) == ["cli.py", "verify.py"]
