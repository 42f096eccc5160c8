"""End-to-end CLI tests run through subprocesses."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import cobinary as cb
from cobinary import serialize

from conftest import CLU_EPS, MUT_EDGES, MUT_EPS

CLI = [sys.executable, "-m", "cobinary"]


def run_cli(*args: str, env: dict | None = None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=full_env
    )


def test_enumerate_counts_and_determinism():
    first = run_cli("trees", "enumerate", "--epsilon", "-1,-1,1")
    second = run_cli("trees", "enumerate", "--epsilon", "-1,-1,1")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    trees = json.loads(first.stdout)
    assert len(trees) == 5
    assert all(t["epsilon"] == [-1, -1, 1] for t in trees)


# sha256 of the `trees enumerate` stdout: pins the canonical order of the
# trees and their edge labels.
ENUMERATION_SHA256 = {
    "-1,1,-1,1,-1,1,-1": "1faa9f7a1a41adb169b9327fc66a4cf540cca34cf4aa40c38023353d09a73b5f",
    "1,1,-1,-1,1,-1,1,1": "da4d6d7c2342c43429dd0455f89edae20416915d5814aaf822c1558dfbf385b6",
    "-1,-1,1,1,1,-1,1,-1,-1": "37685a81639ae4cd4a59f8f7b93e922135bd09b6f24caeb349b59505a7c389f3",
}


@pytest.mark.parametrize("eps", sorted(ENUMERATION_SHA256))
def test_enumeration_output_is_pinned(eps):
    out = run_cli("trees", "enumerate", "--epsilon", eps)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == ENUMERATION_SHA256[eps]


def test_from_perm_and_perms_round_trip(tmp_path):
    built = run_cli(
        "trees", "from-perm", "--sigma", "2,1,5,4,3", "--epsilon", "-1,1,-1,1,1"
    )
    assert built.returncode == 0
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(built.stdout)
    fans = run_cli("trees", "perms", "--tree", str(tree_path))
    assert fans.returncode == 0
    perms = [tuple(p) for p in json.loads(fans.stdout)]
    assert (2, 1, 5, 4, 3) in perms and (3, 1, 5, 4, 2) in perms


def test_mutate_command(tmp_path):
    tree = cb.make_tree(MUT_EPS, MUT_EDGES)
    path = tmp_path / "t.json"
    path.write_text(serialize.dumps(serialize.tree_to_obj(tree)))
    out = run_cli("trees", "mutate", "--tree", str(path), "--k", "3")
    assert out.returncode == 0
    mutated = serialize.tree_from_obj(json.loads(out.stdout))
    assert mutated == cb.mutate(tree, 3)
    # A sequence after the first direction: k, then 3 again returns home.
    out2 = run_cli("trees", "mutate", "--tree", str(path), "--k", "3", "--seq", "3")
    assert serialize.tree_from_obj(json.loads(out2.stdout)) == tree


def test_mutate_accepts_inline_json():
    tree = cb.initial_tree((-1, -1, 1))
    payload = serialize.dumps(serialize.tree_to_obj(tree))
    out = run_cli("trees", "mutate", "--tree", payload, "--k", "1")
    assert out.returncode == 0
    assert serialize.tree_from_obj(json.loads(out.stdout)) == cb.mutate(tree, 1)


def test_matrix_exchange_and_fz_round_trip(tmp_path):
    tree = cb.make_tree(MUT_EPS, MUT_EDGES)
    path = tmp_path / "t.json"
    path.write_text(serialize.dumps(serialize.tree_to_obj(tree)))
    ex = run_cli("matrix", "exchange", "--tree", str(path))
    assert ex.returncode == 0
    btilde = tmp_path / "b.json"
    btilde.write_text(ex.stdout)
    mutated = run_cli("matrix", "fz-mutate", "--btilde", str(btilde), "--k", "3")
    assert mutated.returncode == 0
    got = json.loads(mutated.stdout)
    expected = cb.fz_mutate(cb.exchange_matrix(tree), 3)
    assert got == serialize.exchange_to_obj(expected)


def test_clusters_enumerate_and_c_matrix(tmp_path):
    clusters = run_cli("clusters", "enumerate", "--epsilon", "-1,1,-1,1,1")
    assert clusters.returncode == 0
    listing = json.loads(clusters.stdout)
    assert len(listing) == 42
    cluster_path = tmp_path / "v.json"
    cluster_path.write_text(json.dumps(listing[0]))
    cmat = run_cli(
        "clusters", "c-matrix", "--cluster", str(cluster_path),
        "--epsilon", "-1,1,-1,1,1",
    )
    assert cmat.returncode == 0
    got = cb.CMatrix(json.loads(cmat.stdout))
    expected = cb.classical_c_matrix(
        serialize.cluster_from_obj(listing[0]), CLU_EPS
    )
    assert got == expected


def test_bij_round_trip_through_cli(tmp_path):
    tree = cb.tree_from_permutation((2, 1, 5, 4, 3), CLU_EPS)
    path = tmp_path / "t.json"
    path.write_text(serialize.dumps(serialize.tree_to_obj(tree)))
    to_cluster = run_cli("bij", "to-cluster", "--tree", str(path))
    assert to_cluster.returncode == 0
    payload = json.loads(to_cluster.stdout)
    assert payload["verified"] is True
    cluster_path = tmp_path / "v.json"
    cluster_path.write_text(json.dumps(payload["cluster"]))
    to_tree = run_cli(
        "bij", "to-tree", "--cluster", str(cluster_path),
        "--epsilon", "-1,1,-1,1,1",
    )
    assert to_tree.returncode == 0
    rebuilt = serialize.tree_from_obj(json.loads(to_tree.stdout)["tree"])
    assert rebuilt == tree


def test_bij_all_is_verified():
    out = run_cli("bij", "all", "--epsilon", "-1,1,-1,1")
    assert out.returncode == 0
    entries = json.loads(out.stdout)
    assert len(entries) == 14
    assert all(e["verified"] for e in entries)


def test_bij_all_stdout_is_pinned():
    out = run_cli("bij", "all", "--epsilon", "1,-1,-1,1,-1,1,1")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
        "24a06a04a526514519f4c68c19efd244e597016ca22641bb7889e834d0c6719c"
    )


def test_stability_command_matches_closed_form():
    inside = run_cli(
        "clusters", "stability", "--epsilon", "1,-1,-1,1",
        "--p", "2", "--q", "4", "--v", "3,5,3",
    )
    assert inside.returncode == 0
    payload = json.loads(inside.stdout)
    assert payload["weight"] == [-1, 0, 1]
    assert payload["subroots"] == [[3, 4]]
    assert payload["contains"] is True
    outside = run_cli(
        "clusters", "stability", "--epsilon", "1,-1,-1,1",
        "--p", "2", "--q", "4", "--v", "3,5,1/2",
    )
    assert json.loads(outside.stdout)["contains"] is False


def test_verify_all_report_and_exit_code():
    out = run_cli(
        "verify", "all", "--epsilon", "-1,1,-1,1,1", "--samples", "100"
    )
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "clusters=42 trees=42 bijection=ok theorem2=ok"
    assert lines[-1] == "result=pass"
    assert sum(1 for line in lines if line.startswith("suite ")) == 8


# sha256 of the `verify all` stdout: at n=6 every suite runs exhaustively,
# at n=7 with --n-max 2 the sampled branches run, and at n=9 (alternating
# signs) the default run samples.
VERIFY_SHA256 = {
    ("--epsilon", "1,1,-1,-1,1,-1"):
        "6adfc2d41e89fe4fddceaf60e86e3a726082ce385cb8a4a2090ab006ad4bb52a",
    ("--epsilon", "-1,1,1,-1,-1,1,-1", "--n-max", "2", "--samples", "40"):
        "c0fb4d06bfe25dbc633d16ce274ef6be03db13f34e234816cd48604ac95c6a59",
    ("--epsilon", "1,-1,1,-1,1,-1,1,-1,1"):
        "c8a51dcbfec8977ae6cbb6466251bd4f176ab18d0beb756795a704a10e046d63",
}


@pytest.mark.parametrize("args", sorted(VERIFY_SHA256))
def test_verify_all_stdout_is_pinned(args):
    out = run_cli("verify", "all", *args, "--seed", "0")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == VERIFY_SHA256[args]


def test_verify_is_seed_deterministic():
    a = run_cli("verify", "all", "--epsilon", "1,-1,1,-1", "--samples", "50",
                "--seed", "7")
    b = run_cli("verify", "all", "--epsilon", "1,-1,1,-1", "--samples", "50",
                "--seed", "7")
    assert a.stdout == b.stdout
    seed_0 = run_cli("verify", "all", "--epsilon", "1,-1,1,-1", "--samples", "50",
                     "--seed", "0")
    # --seed is the only seed source: the environment changes nothing.
    via_env = run_cli(
        "verify", "all", "--epsilon", "1,-1,1,-1", "--samples", "50",
        env={"COBINARY_SEED": "7"},
    )
    assert via_env.stdout == seed_0.stdout
    bad_env = run_cli("verify", "all", "--epsilon", "1,-1", env={"COBINARY_SEED": "x"})
    assert bad_env.returncode == 0


def test_usage_error_exit_code():
    out = run_cli("trees", "enumerate")
    assert out.returncode == 2


THREE_NODE_TREE = (
    '{"n":3,"epsilon":[1,1,1],"edges":[{"i":1,"p":1,"q":2,"slope":1},'
    '{"i":2,"p":2,"q":3,"slope":1}]}'
)


@pytest.mark.parametrize(
    "args",
    [
        ("trees", "mutate", "--tree", THREE_NODE_TREE, "--k", "5"),
        ("trees", "mutate", "--tree", THREE_NODE_TREE, "--k", "1", "--seq", "0"),
        ("trees", "from-perm", "--sigma", "1,1,2", "--epsilon", "1,1,1"),
        ("trees", "from-perm", "--sigma", "1,2", "--epsilon", "1,1,1"),
        ("matrix", "euler", "--epsilon", "1"),
        ("clusters", "stability", "--epsilon", "1,1,1", "--p", "3", "--q", "2",
         "--v", "0,0"),
        ("clusters", "stability", "--epsilon", "1,1,1", "--p", "1", "--q", "5",
         "--v", "0,0"),
        ("clusters", "stability", "--epsilon", "1,1,1", "--p", "1", "--q", "2",
         "--v", "0"),
        ("matrix", "fz-mutate", "--btilde", '{"B":[[0]],"C":[[1]]}', "--k", "3"),
        ("verify", "all", "--epsilon", "1,1,1", "--samples", "0"),
        # argparse's own errors; their wording differs across Python versions.
        ("trees", "enumerate"),
        ("trees", "mutate", "--tree", THREE_NODE_TREE, "--k", "x"),
        ("verify", "all", "--epsilon", "1,1,1", "--n-max", "x"),
        ("verify", "all", "--epsilon", "1,1,1", "--samples", "1.5"),
        ("verify", "all", "--epsilon", "1,1,1", "--seed", "x"),
        ("clusters", "stability", "--epsilon", "1,1,1", "--p", "x", "--q", "2",
         "--v", "0,0"),
        ("clusters", "stability", "--epsilon", "1,1,1", "--p", "1", "--q", "x",
         "--v", "0,0"),
        ("trees", "nope"),
        ("nope",),
        (),
        ("trees", "enumerate", "--epsilon", "1,1", "--nope"),
        # A stray comma is an empty field, not a shorter list.
        ("trees", "enumerate", "--epsilon", "1,,1"),
        ("trees", "enumerate", "--epsilon", "1,1,"),
        ("trees", "enumerate", "--epsilon", ",1"),
        ("trees", "from-perm", "--sigma", "2,,1", "--epsilon", "1,1,"),
        ("trees", "from-perm", "--sigma", "2,,1", "--epsilon", "1,1"),
        ("trees", "mutate", "--tree", THREE_NODE_TREE, "--k", "1", "--seq", "1,,1"),
        ("clusters", "stability", "--epsilon", "1,-1,-1,1", "--p", "2", "--q", "4",
         "--v", "3,,5,3"),
    ],
)
def test_bad_values_are_json_usage_errors(args):
    out = run_cli(*args)
    assert out.returncode == 2
    err = json.loads(out.stderr)
    assert err["error"] == "usage"
    assert out.stdout == ""


def test_help_stays_plain_text():
    out = run_cli("trees", "--help")
    assert out.returncode == 0
    assert out.stdout.startswith("usage: cobinary trees")
    assert out.stderr == ""


@pytest.mark.parametrize("command", [("bij", "to-tree"), ("clusters", "c-matrix")])
@pytest.mark.parametrize(
    "payload",
    [
        '{"a":1}',
        '[[1,0],{"0":1}]',
        "[1,0]",
        "[[1,0],[0]]",
        '[[1,0],[0,"x"]]',
        "[[1.0,0],[0,1]]",
        "[[true,0],[0,1]]",
        "[[1]]",
        "[]",
    ],
)
def test_malformed_cluster_payloads_are_usage_errors(command, payload):
    out = run_cli(*command, "--cluster", payload, "--epsilon", "1,1,1")
    assert out.returncode == 2
    assert out.stdout == ""
    err = json.loads(out.stderr)
    assert err["error"] == "usage"
    assert err["message"].startswith("bad --cluster value: ")


@pytest.mark.parametrize("command", [("bij", "to-tree"), ("clusters", "c-matrix")])
def test_non_integer_cluster_entry_keeps_its_message(command):
    out = run_cli(*command, "--cluster", "[[1.5]]", "--epsilon", "1,1")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == (
        '{"error":"usage","message":"bad --cluster value: '
        'cluster matrix entries must be integers"}\n'
    )


def _tree_payload(**changes):
    obj = json.loads(THREE_NODE_TREE)
    edge = changes.pop("edge", {})
    obj["edges"][1].update(edge)
    obj.update(changes)
    return json.dumps(obj)


# Payloads of the wrong shape, with the message each one must give.
WRONG_SHAPES = {
    ("trees", "mutate", "--k", "1", "--tree", "[1,2]"):
        "malformed tree object: a tree must be a JSON object with keys 'epsilon', 'edges'",
    ("trees", "mutate", "--k", "1", "--tree", '{"x":1}'):
        "malformed tree object: a tree has no key 'epsilon'",
    ("trees", "mutate", "--k", "1", "--tree", '{"epsilon":[1,1],"edges":5}'):
        "malformed tree object: 'epsilon' and 'edges' must be arrays",
    ("trees", "mutate", "--k", "1", "--tree", '{"epsilon":[1,1],"edges":[5]}'):
        "malformed tree object: edge 1 must be a JSON object with keys 'i', 'p', 'q', 'slope'",
    ("matrix", "fz-mutate", "--k", "1", "--btilde", "[1]"):
        "malformed exchange matrix object: "
        "an exchange matrix must be a JSON object with keys 'B', 'C'",
}


@pytest.mark.parametrize(
    "args",
    [
        ("trees", "perms", "--tree", _tree_payload(edge={"slope": "x"})),
        ("trees", "perms", "--tree", _tree_payload(edge={"slope": 1.5})),
        ("trees", "perms", "--tree", _tree_payload(epsilon=[1, 2, 1])),
        ("trees", "perms", "--tree", _tree_payload(epsilon="ab")),
        ("trees", "perms", "--tree", _tree_payload(edge={"p": 3})),
        ("trees", "perms", "--tree", _tree_payload(edge={"q": 7})),
        ("trees", "perms", "--tree", _tree_payload(edge={"i": 5})),
        ("trees", "perms", "--tree", _tree_payload(n="z")),
        ("matrix", "fz-mutate", "--k", "1", "--btilde",
         json.dumps({"B": [[0, "x"], [0, 0]], "C": [[1, 0], [0, 1]]})),
        ("matrix", "fz-mutate", "--k", "1", "--btilde",
         json.dumps({"B": [[0, 1], [-1, 0]], "C": [[1, 0, 0], [0, 1, 0]]})),
        ("matrix", "fz-mutate", "--k", "1", "--btilde",
         json.dumps({"B": [[0, 1], [1, 0]], "C": [[1, 0], [0, 1]]})),
        *WRONG_SHAPES,
    ],
)
def test_malformed_tree_and_exchange_payloads_are_domain_errors(args):
    out = run_cli(*args)
    assert out.returncode == 1
    assert out.stdout == ""
    err = json.loads(out.stderr)
    assert err["error"] == "CobinaryError"
    assert re.match(r"malformed (tree|exchange matrix) object: ", err["message"])
    if args in WRONG_SHAPES:
        assert err["message"] == WRONG_SHAPES[args]


def test_arity_violation_reports_exact_json_on_stderr():
    tree = (
        '{"n":3,"epsilon":[1,1,1],"edges":[{"i":1,"p":1,"q":3,"slope":1},'
        '{"i":2,"p":2,"q":3,"slope":1}]}'
    )
    out = run_cli("trees", "perms", "--tree", tree)
    assert out.returncode == 1
    assert out.stderr == (
        '{"error":"ArityViolation",'
        '"message":"node 3 (sign +1) has 2 edges in its left child slot"}\n'
    )


def test_domain_error_reports_json_on_stderr(tmp_path):
    bad = {
        "n": 3,
        "epsilon": [-1, -1, 1],
        "edges": [
            {"i": 1, "p": 1, "q": 2, "slope": -1},
            {"i": 2, "p": 1, "q": 3, "slope": 1},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = run_cli("trees", "perms", "--tree", str(path))
    assert out.returncode == 1
    err = json.loads(out.stderr)
    assert err["error"] == "WallViolation"


def test_missing_file_is_usage_error():
    out = run_cli("trees", "perms", "--tree", "/no/such/file.json")
    assert out.returncode == 2


# Payload files that cannot be read as text, or whose JSON nests deeper than
# the recursion limit, with the message prefix each must give.  The prefix
# alone is checked: the RecursionError text differs between Python versions.
UNREADABLE_PAYLOADS = {
    "latin1.json": (b'{"epsilon": [1, 1], "edges": [], "\xe9": 1}', "cannot read "),
    "deep.json": (b"[" * 100_000, "invalid JSON payload: "),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_PAYLOADS))
@pytest.mark.parametrize(
    "command",
    [
        ("trees", "perms", "--tree"),
        ("trees", "mutate", "--k", "1", "--tree"),
        ("matrix", "exchange", "--tree"),
        ("matrix", "fz-mutate", "--k", "1", "--btilde"),
        ("clusters", "c-matrix", "--epsilon", "1,1,1", "--cluster"),
        ("bij", "to-tree", "--epsilon", "1,1,1", "--cluster"),
        ("bij", "to-cluster", "--tree"),
    ],
)
def test_unreadable_payload_files_are_usage_errors(tmp_path, command, name):
    data, prefix = UNREADABLE_PAYLOADS[name]
    path = tmp_path / name
    path.write_bytes(data)
    out = run_cli(*command, str(path))
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    err = json.loads(out.stderr)
    assert err["error"] == "usage"
    assert err["message"].startswith(prefix), err["message"]
