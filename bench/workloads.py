"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Each workload is a closed loop with one client: the next item is issued
only after the previous one has finished and been checked.  Every item in a
run is an input not seen before in the process, so a cache that only helps
repeated identical calls cannot speed a run up.  The library is driven only
through public entry points, looked up on the package at call time so that
the tracer's patched bindings are the ones called.

The checks recompute what they can in plain integers from the returned
data instead of trusting the code under test; they run outside the timed
call.  A check returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import comb

import cobinary
from cobinary import cli

# sha256 of the CLI stdout bytes for the first items of the default seed
# (0), keyed by the argument list.  Refresh only with a deliberate change of
# output; the CLI promises byte-identical JSON.
PINNED_STDOUT = {
    "verify all --epsilon 1,1,-1,1,1,1,1 --seed 673218":
        "298ac6677fea4d0fa0a0e39d8531c104c366354f7788ace69c5e358fe6fa10cc",
    "verify all --epsilon 1,-1,1,1,-1,1,-1 --seed 971870":
        "e0dff7239d8933b1e4e15066dc80edcaca2d8e8cdbabae8ecdf3bf7d29ed9b98",
    "bij all --epsilon -1,1,1,1,1,-1,-1,-1":
        "bd53826cd224ebdbc843e8e75b464b148ec823fbfbda4a91332a9a5547f1892e",
    "bij all --epsilon 1,1,-1,-1,1,1,1,1":
        "1dc44437b343b97a34524c524121cb6637441426714e8c259431c419e7ded9d3",
}


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def sign_sequence(index: int, n: int) -> tuple[int, ...]:
    """Sign sequence number `index` of length n: bit i set means +1."""
    return tuple(1 if index >> i & 1 else -1 for i in range(n))


def distinct_sign_sequences(rng: random.Random, n: int):
    """Every sign sequence of length n once, in a seeded order."""
    order = list(range(2**n))
    rng.shuffle(order)
    for index in order:
        yield sign_sequence(index, n)


def run_cli(argv: list[str]) -> tuple[int, bytes, bytes]:
    """cobinary.cli.main in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def euler_rows(eps) -> list[list[int]]:
    """Euler matrix of the quiver oriented by the inner signs, from scratch."""
    m = len(eps) - 1
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for a in range(1, m):
        if eps[a] == 1:
            rows[a][a - 1] = -1
        else:
            rows[a - 1][a] = -1
    return rows


def c_columns(n: int, edges) -> list[list[int]]:
    """Column k is slope * (e_p + ... + e_{q-1}) for the edge labelled k."""
    cols = [None] * (n - 1)
    for e in edges:
        cols[e["i"] - 1] = [e["slope"] if e["p"] <= r < e["q"] else 0 for r in range(1, n)]
    return cols


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def edge_key(edges) -> frozenset:
    """Identity of a tree that ignores edge labels."""
    return frozenset((e.p, e.q, e.slope) for e in edges)


def pinned_problems(argv, stdout: bytes) -> list[str]:
    want = PINNED_STDOUT.get(" ".join(argv))
    got = hashlib.sha256(stdout).hexdigest()
    if want is not None and got != want:
        return [f"stdout sha256 {got} differs from the pinned {want}"]
    return []


class Workload:
    """One kind of item.  Subclasses define items(), call(), check(), work()."""

    name = ""
    work_unit = ""  # what work_per_s counts
    default_n = 0

    def __init__(self, seed: int, n: int | None = None) -> None:
        self.n = n if n is not None else self.default_n
        self.rng = random.Random(f"{self.name}:{seed}")

    def work(self, item, output) -> int:
        return 1


class Verify(Workload):
    """`cobinary verify all --epsilon E --seed S`, one sign sequence per item."""

    name = "verify"
    work_unit = "sign sequences"
    default_n = 7

    def items(self):
        for eps in distinct_sign_sequences(self.rng, self.n):
            seed = self.rng.randrange(10**6)
            yield ["verify", "all", "--epsilon", ",".join(map(str, eps)), "--seed", str(seed)]

    def call(self, argv):
        return run_cli(argv)

    def check(self, argv, output) -> list[str]:
        code, stdout, stderr = output
        count = catalan(self.n)
        lines = stdout.decode().splitlines()
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, stderr {stderr[:200]!r}")
        if not lines or lines[-1] != "result=pass":
            problems.append(f"last line {lines[-1:]!r} is not result=pass")
        summary = f"clusters={count} trees={count} bijection=ok theorem2=ok"
        if not lines or lines[0] != summary:
            problems.append(f"summary {lines[:1]!r}, expected {summary!r}")
        suites = [line for line in lines if line.startswith("suite ")]
        if len(suites) != 8 or any(": pass (" not in line for line in suites):
            problems.append(f"suite lines {suites!r}")
        return problems + pinned_problems(argv, stdout)


class Bijection(Workload):
    """`cobinary bij all --epsilon E`, one sign sequence per item."""

    name = "bijection"
    work_unit = "certified pairs"
    default_n = 8

    def items(self):
        for eps in distinct_sign_sequences(self.rng, self.n):
            yield ["bij", "all", "--epsilon", ",".join(map(str, eps))]

    def call(self, argv):
        return run_cli(argv)

    def work(self, argv, output) -> int:
        try:
            return sum(1 for entry in json.loads(output[1]) if entry["verified"] is True)
        except (ValueError, KeyError, TypeError):
            return 0

    def check(self, argv, output) -> list[str]:
        code, stdout, stderr = output
        if code != 0:
            return [f"exit code {code}, stderr {stderr[:200]!r}"]
        eps = tuple(int(s) for s in argv[3].split(","))
        n = len(eps)
        entries = json.loads(stdout)
        problems = []
        if len(entries) != catalan(n):
            problems.append(f"{len(entries)} entries, expected {catalan(n)}")
        e = euler_rows(eps)
        identity = [[int(i == j) for j in range(n - 1)] for i in range(n - 1)]
        keys = []
        for entry in entries:
            tree = entry["tree"]
            keys.append(frozenset((d["p"], d["q"], d["slope"]) for d in tree["edges"]))
            c = c_columns(n, tree["edges"])
            c_rows = [list(r) for r in zip(*c)]
            if entry["verified"] is not True:
                problems.append(f"entry not verified: {tree}")
            elif matmul(matmul(entry["cluster"], e), c_rows) != identity:
                problems.append(f"V^t E C != I for tree {tree}")
            elif entry["c_matrix"] != c:
                problems.append(f"c_matrix differs from the tree's c-vectors: {tree}")
        if len(set(keys)) != len(keys):
            problems.append(f"{len(keys) - len(set(keys))} repeated trees")
        expected = {edge_key(t.edges) for t in cobinary.enumerate_trees(eps)}
        if set(keys) != expected:
            problems.append("tree set differs from enumerate_trees")
        return problems[:5] + pinned_problems(argv, stdout)


class Locate(Workload):
    """`locate_tree(x, E)` for one seeded E of length n and fresh points x."""

    name = "locate"
    work_unit = "queries"
    default_n = 256
    rebuild_share = 0.02  # share of queries whose tree is also rebuilt by make_tree

    def __init__(self, seed: int, n: int | None = None) -> None:
        super().__init__(seed, n)
        self.eps = tuple(self.rng.choice((1, -1)) for _ in range(self.n))

    def items(self):
        first = True
        while True:
            x = tuple(
                Fraction(self.rng.randint(-(10**6), 10**6), self.rng.randint(1, 1000))
                for _ in range(self.n)
            )
            if len(set(x)) == self.n:
                rebuild = first or self.rng.random() < self.rebuild_share
                first = False
                yield x, rebuild

    def call(self, item):
        return cobinary.locate_tree(item[0], self.eps)

    def check(self, item, tree) -> list[str]:
        x, rebuild = item
        if tree.n != self.n or tuple(tree.epsilon) != self.eps or len(tree.edges) != self.n - 1:
            return [f"tree has n={tree.n} and {len(tree.edges)} edges"]
        bad = [e for e in tree.edges if not e.slope * (x[e.q - 1] - x[e.p - 1]) > 0]
        if bad:
            return [f"{len(bad)} edges violate slope*(x_q - x_p) > 0, first {bad[0]}"]
        if rebuild:
            rebuilt = cobinary.make_tree(self.eps, tree.edges)
            if edge_key(rebuilt.edges) != edge_key(tree.edges):
                return ["make_tree does not rebuild the returned tree"]
        return []


class FlipGraph(Workload):
    """enumerate_trees(E), then every tree mutated at every edge and each
    neighbour looked up by index: the adjacency of the flip graph."""

    name = "flip-graph"
    work_unit = "wall crossings"
    default_n = 9

    def items(self):
        yield from distinct_sign_sequences(self.rng, self.n)

    def call(self, eps):
        trees = cobinary.enumerate_trees(eps)
        index = {tree: i for i, tree in enumerate(trees)}
        mutate = cobinary.mutate
        edges = range(1, len(eps))
        adjacency = [[index[mutate(tree, k)] for k in edges] for tree in trees]
        return trees, adjacency

    def work(self, eps, output) -> int:
        return len(output[0]) * (len(eps) - 1)

    def check(self, eps, output) -> list[str]:
        trees, adjacency = output
        n = len(eps)
        problems = []
        keys = [edge_key(t.edges) for t in trees]
        if len(trees) != catalan(n) or len(set(keys)) != len(keys):
            problems.append(f"{len(trees)} trees, {len(set(keys))} distinct, expected {catalan(n)}")
        # Crossing the wall x_p = x_q from tree i reaches tree j, whose edge
        # between p and q has the opposite slope; crossing it again from j
        # must come back to i.
        walls = [{(e.p, e.q): (e.index, e.slope) for e in t.edges} for t in trees]
        for i, row in enumerate(adjacency):
            for e in trees[i].edges:
                j = row[e.index - 1]
                label, slope = walls[j].get((e.p, e.q), (None, e.slope))
                if j == i or slope != -e.slope or adjacency[j][label - 1] != i:
                    problems.append(f"crossing edge {e.index} of tree {i} is not an involution")
        staircase = frozenset((i, i + 1, 1) for i in range(1, n))
        if staircase not in keys:
            return problems + ["the initial tree is missing"]
        seen = {keys.index(staircase)}
        frontier = list(seen)
        while frontier:
            for j in adjacency[frontier.pop()]:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        if len(seen) != len(trees):
            problems.append(f"BFS from the initial tree reaches {len(seen)} of {len(trees)}")
        return problems[:5]


WORKLOADS = {w.name: w for w in (Verify, Bijection, Locate, FlipGraph)}
