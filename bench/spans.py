"""In-memory span tracing of the library's public functions.

The tracer replaces each traced function at every module binding that
refers to it (``from x import f`` copies included, and tuples of functions
such as the suite table in ``cobinary.verify``), so ``src/`` stays
unchanged.  Every call records one span: name, start, end, parent span and
item id.  Spans are kept in flat arrays while the run lasts and written out
once it ends.  Self time, per-layer totals and the count ratios are derived
from the spans afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# Functions whose calls, inclusive and self time are reported, by layer.
REPORTED = {
    "linalg": ("det", "inverse_integer", "mat_mul"),
    "trees": (
        "tree_from_permutation",
        "enumerate_trees",
        "make_tree",
        "permutations_of",
        "reverse_tree",
    ),
    "regions": (
        "locate_tree",
        "region_contains",
        "rank_permutation",
        "mutate",
        "c_matrix",
    ),
    "exchange": ("exchange_matrix", "fz_mutate"),
    "clusters": ("enumerate_clusters", "classical_c_matrix", "cluster_violation"),
    "correspondence": (
        "cluster_to_tree_work",
        "tree_to_cluster",
        "verify_pairing_identity",
        "wall_stability_point",
    ),
    "serialize": ("dumps",),
    "verify": (
        "suite_trees",
        "suite_perm_partition",
        "suite_theorem2",
        "suite_clusters",
        "suite_bijection",
        "suite_region_partition",
        "suite_wall_stability",
        "suite_properties",
    ),
    "cli": ("main",),
}

# Traced only so that their time is charged to the right layer and the
# ratios below can tell which calls belong to which caller.
ATTRIBUTED = {
    "exchange": ("euler_inverse",),
    "correspondence": ("bijection_report",),
    "verify": ("run_all",),
    "serialize": ("tree_to_obj", "cluster_to_obj", "cmatrix_to_obj"),
}

LAYERS = tuple(REPORTED)
ITEM = "item"  # root span around one workload item; its self time is "other"

# Spans below one of these carry it as their context (see Tracer.summary).
CONTEXTS = (
    "verify.suite_region_partition",
    "verify.suite_bijection",
    "correspondence.bijection_report",
)
PAIRING = ("verify.suite_bijection", "correspondence.bijection_report")

# `cobinary verify all` runs region-partition with the CLI's default
# --samples, which the benchmark leaves unset.
VERIFY_SAMPLES = 1000


def traced_names() -> list[str]:
    names = []
    for table in (REPORTED, ATTRIBUTED):
        for layer, funcs in table.items():
            names.extend(f"{layer}.{f}" for f in funcs)
    return names


class Tracer:
    """Records spans for the functions in REPORTED and ATTRIBUTED."""

    def __init__(self) -> None:
        self.names = [ITEM] + traced_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.outer = array("b")  # 1 unless an enclosing span has the same name
        self._stack: list[int] = []
        self._active = [0] * len(self.names)
        self._item_id = -1

    def _enter(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item_id)
        self.outer.append(self._active[name_id] == 0)
        self._active[name_id] += 1
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    def _wrap(self, name: str, func):
        name_id = self._ids[name]
        enter, leave = self._enter, self._exit

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = enter(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    def run_item(self, item_id: int, func, *args):
        """Call func(*args) as the root span of one item."""
        self._item_id = item_id
        idx = self._enter(self._ids[ITEM])
        try:
            return func(*args)
        finally:
            self._exit(idx)

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        patched = {}
        for name in traced_names():
            layer, func = name.split(".")
            module = sys.modules[f"cobinary.{layer}"]
            patched[getattr(module, func)] = self._wrap(name, getattr(module, func))
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "cobinary" or key.startswith("cobinary."))
        ]
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                new = _replace(value, patched)
                if new is not value:
                    undo.append((module, attr, value))
                    setattr(module, attr, new)
        try:
            yield self
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)

    # -- derived figures -------------------------------------------------

    def summary(self) -> dict:
        """Per-function, per-layer and ratio figures, per traced item."""
        ids = self._ids
        names = self.names
        inverse, det = ids["linalg.inverse_integer"], ids["linalg.det"]
        to_cluster, work = ids["correspondence.tree_to_cluster"], ids["correspondence.cluster_to_tree_work"]
        ranking, contains_id = ids["trees.tree_from_permutation"], ids["regions.region_contains"]
        euler, partition = ids["exchange.euler_inverse"], ids["verify.suite_region_partition"]
        pairing = {ids[c] for c in PAIRING}
        context_ids = {ids[c] for c in CONTEXTS}
        calls = [0] * len(names)
        incl = [0] * len(names)
        self_ns = [0] * len(names)
        context = array("i", [-1]) * len(self.name)
        inverses = pairs = dets = rankings = contains = 0
        # Parents precede their children, so one pass in order suffices.
        for i, (nid, p, start, end, outer) in enumerate(
            zip(self.name, self.parent, self.start, self.end, self.outer)
        ):
            dur = end - start
            calls[nid] += 1
            self_ns[nid] += dur
            if outer:
                incl[nid] += dur
            parent_name = ctx = -1
            if p >= 0:
                parent_name = self.name[p]
                self_ns[parent_name] -= dur
                ctx = context[p]
            context[i] = nid if nid in context_ids else ctx
            if nid == inverse:
                inverses += ctx in pairing and parent_name != euler
            elif nid == to_cluster:
                pairs += ctx in pairing
            elif nid == det:
                dets += parent_name == inverse
            elif nid == ranking:
                rankings += parent_name == work
            elif nid == contains_id:
                contains += ctx == partition
        items = calls[0]
        wall = incl[0]

        out: dict[str, tuple[float, str]] = {}
        per = max(items, 1)
        for layer, funcs in REPORTED.items():
            for func in funcs:
                nid = ids[f"{layer}.{func}"]
                out[f"{layer}.{func}.calls"] = (calls[nid] / per, "count")
                out[f"{layer}.{func}.incl_s"] = (incl[nid] / per / 1e9, "s")
                out[f"{layer}.{func}.self_s"] = (self_ns[nid] / per / 1e9, "s")
        for layer in LAYERS + ("other",):
            if layer == "other":
                total = self_ns[0]
            else:
                total = sum(
                    self_ns[i] for i, name in enumerate(names)
                    if name.startswith(layer + ".")
                )
            out[f"{layer}.self_s"] = (total / per / 1e9, "s")
            out[f"{layer}.share"] = (total / wall if wall else 0.0, "ratio")
        out["linalg.inverse_integer.per_pair"] = (_ratio(inverses, pairs), "ratio")
        out["linalg.det.per_inverse"] = (_ratio(dets, calls[inverse]), "ratio")
        out["correspondence.rankings_per_pair"] = (_ratio(rankings, calls[work]), "ratio")
        out["regions.region_contains.per_sample"] = (
            _ratio(contains, VERIFY_SAMPLES * calls[partition]), "ratio")
        return out

    def write(self, path: Path) -> None:
        """Spans as raw arrays plus a JSON header that says how to read them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "start", "end", "parent", "item", "outer")
        header = {
            "names": self.names,
            "spans": len(self.name),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "clock": "time.perf_counter_ns",
        }
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with open(path, "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _replace(value, patched: dict):
    """The traced stand-in for value, or value itself if nothing is traced."""
    if isinstance(value, tuple):
        new = tuple(_replace(v, patched) for v in value)
        return new if any(a is not b for a, b in zip(new, value)) else value
    if callable(value):
        try:
            return patched.get(value, value)
        except TypeError:  # an unhashable callable is never traced
            return value
    return value
