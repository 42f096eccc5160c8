"""Benchmark of the cobinary library and CLI.

    python3 bench/run.py --workload verify --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

Run from the root of a checkout.  One run measures one workload (see
bench/workloads.py and bench/README.md) for --seconds seconds as a closed
loop with a single client, checks every output, prints each metric with its
name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with tracing off; the
throughput and the set-up time are rescaled to a reference host speed
sampled while they are measured (SpeedProbe, fresh_import_seconds).
--trace 1 alternates untraced and traced items and reports the per-layer
metrics from the traced ones, plus the tracing overhead.

Each run appends a record (metrics, workload-specific figures and run
metadata) to .bench_runs/runs.jsonl, or to --record; traced runs also
write their spans to .bench_runs/spans-<workload>.bin.  --compare lines up
two such files, one block per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
BENCH = Path(__file__).resolve().parent

SETUP_SAMPLES = (7, 8)  # fresh-process imports before and after the items
CALIBRATION_CHUNKS = 51
# Time of one reference chunk (below) on the development host at its fast
# speed level, a 2-core x86-64 VM under CPython 3.11.  A fixed scale: the
# normalised throughput is the throughput the host would give at this speed.
REFERENCE_CHUNK_S = 0.0015
MIN_SAMPLES = 20

# Measures the import of the package in a fresh interpreter: nothing warmed
# except the bytecode cache, as for a user who runs the installed CLI.  Only
# then does it load this file and time the reference chunk, for the host's
# speed at that moment.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import cobinary, cobinary.cli
elapsed = time.perf_counter() - start
if not cobinary.__file__.startswith(sys.argv[1]):
    sys.exit("imported cobinary from " + cobinary.__file__)
sys.path.insert(0, sys.argv[2])
from run import chunk_seconds
print(repr(elapsed), repr(chunk_seconds(5)))
"""


def load_library():
    """Import cobinary from ./src of this checkout, or exit without a result."""
    if not (SRC / "cobinary" / "__init__.py").is_file():
        sys.exit(f"no cobinary package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import cobinary

    if Path(cobinary.__file__).resolve().parent != (SRC / "cobinary").resolve():
        sys.exit(f"imported cobinary from {cobinary.__file__}, not {SRC}")


def fresh_import_seconds() -> tuple[float, float]:
    """The import time in a fresh interpreter, as measured and rescaled to
    the reference host speed."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", SETUP_CODE, str(SRC), str(BENCH)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    elapsed, chunk = map(float, proc.stdout.split())
    return elapsed, elapsed * REFERENCE_CHUNK_S / chunk


def reference_chunk() -> None:
    """A fixed chunk of mixed pure-Python work, 1.5 to 2.5 ms on the development
    host: integer and Fraction arithmetic, tuples hashed into a dict, short
    sorts.  The library's hot paths are made of the same operations, so the
    chunk slows down with the host as the items do."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 450):
        acc += Fraction(i, i + 7)
        table[(i, i * 3)] = sorted((i * 7919 % 13, i % 7, -i % 5))
    if len(table) != 449 or acc.denominator <= 0:
        raise AssertionError("reference chunk")


def chunk_seconds(count: int) -> float:
    """Median time of `count` reference chunks; tracks host speed drift."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        reference_chunk()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Samples the host's speed while the timed calls run.

    The host's CPU speed drifts by 1.5x and more, in phases of seconds to
    minutes, and a run's raw throughput drifts with it.  Every INTERVAL
    seconds a SIGALRM handler, in the benchmark's own thread, times one
    reference chunk, but only while a timed call is running.  The samples
    thus spread evenly over the timed time, and the chunk's own time is
    taken out of the item times (`spent`).  With the host's slowness s(t) =
    sample / REFERENCE_CHUNK_S, the work done is the integral of
    1 / (cost * s(t)), so the cost per unit of work at the reference speed
    is time * mean(1 / s) / work.
    """

    INTERVAL = 0.05

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.timing = False

    def _tick(self, signum, frame) -> None:
        if not self.timing:
            return
        self.timing = False  # a tick that lands in this chunk takes no sample
        try:
            start = time.perf_counter()
            reference_chunk()
            elapsed = time.perf_counter() - start
        finally:
            self.timing = True
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self) -> float:
        """mean(REFERENCE_CHUNK_S / sample): 1 at the reference speed,
        below 1 on a slower host.  Short runs that took fewer than
        MIN_SAMPLES samples are topped up with chunks timed here."""
        samples = list(self.samples)
        while len(samples) < MIN_SAMPLES:
            samples.append(chunk_seconds(1))
        return statistics.fmean(REFERENCE_CHUNK_S / s for s in samples)


def metadata() -> dict:
    uname = platform.uname()
    return {
        "git_sha": git_sha(),
        "machine": {
            "system": uname.system,
            "release": uname.release,
            "arch": uname.machine,
            "cpus": os.cpu_count(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
        },
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "cobinary").glob("*.py"))
        ),
    }


def git_sha() -> str | None:
    """HEAD of ./.git read from its files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def run_items(workload, seconds: float, tracer=None, probe=None):
    """The closed loop.  Without a tracer every item is timed untraced; with
    one, items alternate untraced and traced until both kinds have run.
    A running SpeedProbe samples the host during the untraced calls; its
    chunks' time is taken out of the item times."""
    stats = {"times": [], "traced": [], "work": 0, "attempted": 0, "failed": 0}
    start = time.perf_counter()
    for i, item in enumerate(workload.items()):
        traced = tracer is not None and i % 2 == 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tracer is None or i >= 2):
            break
        stats["attempted"] += 1
        output, dt, probed = None, 0.0, 0.0
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed():
                    t0 = time.perf_counter()
                    output = tracer.run_item(i, workload.call, item)
            elif probe is None:
                output = workload.call(item)
            else:
                spent = probe.spent
                probe.timing = True
                try:
                    output = workload.call(item)
                finally:
                    probe.timing = False
                probed = probe.spent - spent
            dt = time.perf_counter() - t0 - probed
            problems = workload.check(item, output)
        except Exception as exc:  # a raising item is a failed item
            dt = dt or time.perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
        (stats["traced"] if traced else stats["times"]).append(dt)
        if problems:
            stats["failed"] += 1
            print(f"item {i} failed: {problems}", file=sys.stderr)
        else:
            stats["work"] += workload.work(item, output)
    return stats


def workload_figures(workload, stats) -> dict:
    """Figures under the workload's own names (verify_s, pairs_per_s, ...),
    kept in the run record next to the end-to-end metrics."""
    times = stats["times"]
    figures = {"error_rate": (stats["failed"] / max(stats["attempted"], 1), "ratio")}
    if "host_speed" in stats:
        figures["setup_raw_s"] = (stats["setup_raw_s"], "s")
        figures["host_speed"] = (stats["host_speed"], "ratio")
        figures["speed_samples"] = (stats["speed_samples"], "count")
    if not times:
        return figures
    median = statistics.median(times)
    total = sum(times)
    figures["work_per_s"] = (stats["work"] / total, "1/s")
    if workload.name == "verify":
        figures["verify_s"] = (median, "s")
    elif workload.name == "bijection":
        figures["pairs_per_s"] = (stats["work"] / total, "1/s")
    elif workload.name == "flip-graph":
        figures["flip_graph_s"] = (median, "s")
    elif workload.name == "locate":
        figures["queries_per_s"] = (len(times) / total, "1/s")
        figures["query_p50_ms"] = (median * 1e3, "ms")
        figures["query_p99_ms"] = (percentile(times, 99) * 1e3, "ms")
        figures["query_samples"] = (len(times), "count")
    return figures


def measure(workload, seconds: float) -> tuple[dict, dict]:
    setup = [fresh_import_seconds() for _ in range(SETUP_SAMPLES[0])]
    probe = SpeedProbe()
    with probe.running():
        stats = run_items(workload, seconds, probe=probe)
    setup += [fresh_import_seconds() for _ in range(SETUP_SAMPLES[1])]
    stats["setup_raw_s"] = statistics.median(raw for raw, _ in setup)
    stats["host_speed"] = probe.speed()
    stats["speed_samples"] = len(probe.samples)
    # Throughput rather than a median latency: with host speed switching
    # between levels, the median of many short items flips between them.
    # The total over the run, divided by the host speed sampled over the
    # same time, moves with the program and not with the host.
    work_per_s = stats["work"] / max(sum(stats["times"]), 1e-9)
    metrics = {
        "setup_s": (statistics.median(norm for _, norm in setup), "s"),
        "norm_work_per_s": (work_per_s / stats["host_speed"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, stats


def measure_traced(workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from spans import Tracer

    tracer = Tracer()
    stats = run_items(workload, seconds, tracer)
    metrics = tracer.summary() if stats["traced"] else {}
    if stats["traced"] and stats["times"]:
        overhead = statistics.median(stats["traced"]) - statistics.median(stats["times"])
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / statistics.median(stats["times"]), "ratio")
    tracer.write(spans_path)
    stats["spans"] = len(tracer.name)
    return metrics, stats


def run(name: str, seed: int, seconds: float, trace: bool,
        n: int | None = None, record: Path | None = None) -> dict:
    """One benchmark run.  Appends its record to `record` and returns it;
    the result line is the record's correct/attempted/failed/metrics."""
    from workloads import WORKLOADS

    record = record or RUNS / "runs.jsonl"
    record.parent.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, n)
    meta = metadata()
    meta["calibration_before_s"] = chunk_seconds(CALIBRATION_CHUNKS)
    if trace:
        spans_path = record.parent / f"spans-{name}.bin"
        metrics, stats = measure_traced(workload, seconds, spans_path)
    else:
        metrics, stats = measure(workload, seconds)
    meta["calibration_after_s"] = chunk_seconds(CALIBRATION_CHUNKS)
    figures = workload_figures(workload, stats)
    for key, (value, unit) in {**metrics, **figures}.items():
        print(f"{name} {key} = {value!r} {unit}")
    entry = {
        "correct": stats["failed"] == 0 and stats["attempted"] > 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "n": workload.n, "work_unit": workload.work_unit, "time": time.time(),
        "item_s": [round(t, 6) for t in stats["times"]],
        "items_traced": len(stats["traced"]), "spans": stats.get("spans", 0),
        "meta": meta,
    }
    with open(record, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")
    return entry


def compare(old_path: Path, new_path: Path) -> None:
    """Median, quartiles and new/old ratio of every metric, per workload."""
    def load(path):
        groups: dict = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            key = (entry["workload"], entry["trace"])
            for section in ("metrics", "figures"):
                for metric, m in entry.get(section, {}).items():
                    groups.setdefault(key, {}).setdefault(metric, []).append(m["value"])
        return groups

    def spread(values):
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return q2, q1, q3

    old, new = load(old_path), load(new_path)
    for key in sorted(set(old) | set(new)):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        print(f"{'metric':44} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} {'new/old':>8}")
        for metric in sorted(set(old.get(key, {})) | set(new.get(key, {}))):
            cells = []
            medians = []
            for side in (old, new):
                values = side.get(key, {}).get(metric)
                if values:
                    med, q1, q3 = spread(values)
                    medians.append(med)
                    cells.append(f"{med:.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
                else:
                    medians.append(None)
                    cells.append("-")
            ratio = (f"{medians[1] / medians[0]:.3f}"
                     if None not in medians and medians[0] else "-")
            print(f"{metric:44} {cells[0]:>34} {cells[1]:>34} {ratio:>8}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("verify", "bijection", "locate", "flip-graph"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="run record file (JSON lines)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    load_library()
    entry = run(args.workload, args.seed, args.seconds, bool(args.trace), record=args.record)
    print(json.dumps({k: entry[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
