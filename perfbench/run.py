#!/usr/bin/env python3
"""Benchmark for ndfronts: seeded online-sort and churn workloads under each
approach (linear, ltree, rtree), checked against the from-scratch oracle.

    python3 perfbench/run.py --workload sort-m2 --seed 1 --seconds 30 --trace 0

The caller is a closed loop: one process, one thread, and each operation
starts when the previous one has returned. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same rounds untraced and traced
and prints the per-layer metrics. The last line of standard output is one
JSON object; the lines before it list every metric with its unit. The exit
code is 1 when an operation fails or a partition differs from ``full_sort``.
Times are normalised to the machine's current speed (see clock.py).
See README.md beside this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))
try:
    import ndfronts as nd
except ImportError as exc:
    sys.exit(f"error: cannot import ndfronts from {SRC}: {exc}")
if Path(nd.__file__).resolve().parent.parent != SRC:
    sys.exit(f"error: ndfronts was imported from {nd.__file__}, not from {SRC}")

import clock  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from ndfronts import cli  # noqa: E402
from workloads import DELETE, INSERT, LOOKUP  # noqa: E402

APPROACHES = ("linear", "ltree", "rtree")
SETUP_REPS = 3
IO_REPS = 3
KERNEL_PAIRS = 4000
KERNEL_REPS = 9


def _tree(variant: nd.TreeVariant) -> dict:
    return {
        INSERT: lambda fs, sol, c: nd.insert_tree(fs, sol, variant, c),
        DELETE: lambda fs, sol, c: nd.delete(fs, sol, "tree", c),
        LOOKUP: lambda fs, sol, c: nd.lookup_tree(fs, sol, c),
    }


# Functions are looked up on the package at call time, so the tracer's
# wrappers apply while it is installed.
OPERATIONS = {
    "linear": {
        INSERT: lambda fs, sol, c: nd.insert_linear(fs, sol, c),
        DELETE: lambda fs, sol, c: nd.delete(fs, sol, "sequential", c),
        LOOKUP: lambda fs, sol, c: nd.locate_sequential(fs, sol, c),
    },
    "ltree": _tree(nd.TreeVariant.LEFT_BALANCED),
    "rtree": _tree(nd.TreeVariant.RIGHT_BALANCED),
}


@dataclass
class Pass:
    fs: nd.FrontSet
    compares: int
    latency_ns: list[float]  # normalised, one per operation
    raw_ns: int  # total of the operations' raw times
    failed: int
    error: str | None  # the first failure, for the report


def _acted_on(kind: str, fs: nd.FrontSet, sol: nd.Solution, result) -> bool:
    """True when the operation returned and acted on the requested id."""
    if isinstance(result, Exception):
        return False
    if kind == DELETE:
        return sol.id not in fs
    if kind == LOOKUP:
        if result is None or not 1 <= result.f_index <= fs.k:
            return False
        front = fs.fronts[result.f_index - 1]
        return 1 <= result.s_index <= len(front) and front[result.s_index - 1].id == sol.id
    return sol.id in fs


def run_pass(start: nd.FrontSet, ops: list, approach: str) -> Pass:
    """Apply ``ops`` to a copy of ``start``, timing each operation.

    The reference loop runs before the first operation, after the last, and
    whenever ``clock.EVERY_NS`` has passed; each operation is normalised by
    the two reference runs around it.
    """
    table = OPERATIONS[approach]
    fs = start.copy()
    counter = nd.Counter()
    raw, marks = [], []  # raw time of each operation, and the reference run before it
    failed = 0
    error = None
    gc.collect()
    references = [clock.reference_ns()]
    due = perf_counter_ns() + clock.EVERY_NS
    for kind, sol in ops:
        t0 = perf_counter_ns()
        try:
            result = table[kind](fs, sol, counter)
        except Exception as exc:  # a raising operation counts as failed; the run goes on
            result = exc
        t1 = perf_counter_ns()
        raw.append(t1 - t0)
        marks.append(len(references) - 1)
        if not _acted_on(kind, fs, sol, result):
            failed += 1
            if error is None:
                error = f"{approach} {kind} {sol.id!r}: {result!r}"
        if t1 >= due:
            references.append(clock.reference_ns())
            due = perf_counter_ns() + clock.EVERY_NS
    references.append(clock.reference_ns())
    scales = [clock.scale(a, b) for a, b in zip(references, references[1:])]
    latency = [ns * scales[i] for ns, i in zip(raw, marks)]
    return Pass(fs, counter.pair_compares, latency, sum(raw), failed, error)


@dataclass
class Round:
    work: dict  # (stream, approach) -> Pass over the workload
    probe: dict  # (stream, approach) -> Pass over the probe, traced runs only
    probe_kernel_calls: int = 0  # kernel calls the tracer counted during the probe

    def passes(self) -> list[Pass]:
        return [*self.work.values(), *self.probe.values()]

    def busy_ns(self) -> float:
        """Normalised time spent in operations."""
        return sum(sum(p.latency_ns) for p in self.passes())

    def scale(self) -> float:
        """Mean factor from raw to normalised time over the round."""
        return self.busy_ns() / sum(p.raw_ns for p in self.passes())


def run_round(streams: list, number: int, probe: bool, tracer: layers.Tracer | None = None) -> Round:
    shift = number % len(APPROACHES)  # rotate the order so no approach always runs first
    order = APPROACHES[shift:] + APPROACHES[:shift]
    rnd = Round({}, {})
    for s, stream in enumerate(streams):
        for ap in order:
            done = rnd.work[s, ap] = run_pass(stream.start, stream.ops, ap)
            if probe:
                before = tracer.kernel_calls if tracer else 0
                rnd.probe[s, ap] = run_pass(done.fs, stream.probe, ap)
                rnd.probe_kernel_calls += (tracer.kernel_calls if tracer else 0) - before
    return rnd


def repeat(body, seconds: float) -> list:
    """Call ``body(i)`` once, then again while the next call is predicted to
    end within ``seconds``."""
    results = []
    began = perf_counter()
    while True:
        results.append(body(len(results)))
        elapsed = perf_counter() - began
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def check(streams: list, rounds: list[Round]) -> list[str]:
    """Compare final partitions with ``full_sort`` by id, check that the
    approaches agree, and that comparison counts repeat exactly."""
    problems = []
    last = rounds[-1]
    for s, stream in enumerate(streams):
        expected = [("workload", stream.final, "work")]
        if last.probe:
            expected.append(("probe", stream.probe_final, "probe"))
        for label, population, attr in expected:
            reference = nd.full_sort(population, stream.start.m)
            passes = getattr(last, attr)
            for ap in APPROACHES:
                if not nd.same_partition(passes[s, ap].fs, reference):
                    problems.append(f"stream {s}, {ap}, after the {label}: partition differs from full_sort by id")
                if not nd.same_partition(passes[s, ap].fs, passes[s, APPROACHES[0]].fs):
                    problems.append(f"stream {s}, after the {label}: {ap} disagrees with {APPROACHES[0]}")
                counts = {getattr(rnd, attr)[s, ap].compares for rnd in rounds}
                if len(counts) != 1:
                    problems.append(f"stream {s}, {ap}, {label}: comparison counts differ between rounds: {sorted(counts)}")
    for rnd in rounds:
        problems += [p.error for p in rnd.passes() if p.error]
    return problems


def descriptors(streams: list, rounds: list[Round]) -> dict:
    """Properties of the workload that later claims can name."""
    finals = [rounds[-1].work[s, APPROACHES[0]].fs for s in range(len(streams))]
    kinds = [kind for stream in streams for kind, _ in stream.ops]
    return {
        "workload.streams": (len(streams), "count"),
        "workload.ops_per_stream": (len(kinds) / len(streams), "count"),
        "workload.final_k": (statistics.mean(fs.k for fs in finals), "count"),
        "workload.widest_front": (statistics.mean(max(map(len, fs.fronts)) for fs in finals), "count"),
        **{f"workload.{kind}_share": (kinds.count(kind) / len(kinds), "share") for kind in (INSERT, DELETE, LOOKUP)},
        "machine.scale": (statistics.mean(rnd.scale() for rnd in rounds), "x"),
    }


def end_to_end(streams: list, rounds: list[Round], setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """Each operation's latency is the median over the rounds, which repeat
    the same work."""
    metrics, notes = {}, {}
    n_ops = sum(len(stream.ops) for stream in streams)
    for ap in APPROACHES:
        keys = [(s, ap) for s in range(len(streams))]
        per_op = np.concatenate([np.median([rnd.work[k].latency_ns for rnd in rounds], axis=0) for k in keys]) / 1e3
        p50, p99 = np.percentile(per_op, [50, 99])
        metrics[f"ops_per_s.{ap}"] = (n_ops / per_op.sum() * 1e6, "1/s")
        metrics[f"op_p50_us.{ap}"] = (float(p50), "us")
        metrics[f"op_p99_us.{ap}"] = (float(p99), "us")
        metrics[f"compares_per_op.{ap}"] = (sum(rounds[0].work[k].compares for k in keys) / n_ops, "compares/op")
        sample = f"{n_ops} ops, each the median of {len(rounds)} round(s)"
        notes[f"ops_per_s.{ap}"] = notes[f"op_p50_us.{ap}"] = notes[f"op_p99_us.{ap}"] = sample
    metrics["setup_s"] = (setup_s, "s")
    notes["setup_s"] = f"median of {SETUP_REPS} set-ups"
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics, notes


def median_seconds(body, reps: int) -> float:
    return statistics.median(clock.timed(body)[1] for _ in range(reps))


def kernel_us_per_pair(population: list, rng: np.random.Generator) -> float:
    """Median time of one ``dom_nature`` call on pairs of the workload's vectors."""
    pairs = [(population[i], population[j]) for i, j in rng.integers(len(population), size=(KERNEL_PAIRS, 2))]
    dom_nature, counter = nd.dom_nature, nd.Counter()

    def body():
        for a, b in pairs:
            dom_nature(a, b, counter)

    return median_seconds(body, KERNEL_REPS) / KERNEL_PAIRS * 1e6


def io_seconds(streams: list, finals: list) -> tuple[float, float]:
    """Median times of ``cli.load_population`` on the final population as CSV
    and of ``cli.write_dump`` on every final partition as JSON."""
    m = streams[0].start.m
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".io-") as tmp:
        csv_path = Path(tmp) / "population.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", *(f"obj_{i}" for i in range(1, m + 1))])
            writer.writerows([sol.id, *map(repr, sol.objectives)] for stream in streams for sol in stream.final)
        load_s = median_seconds(lambda: cli.load_population(str(csv_path)), IO_REPS)
        dump_paths = [str(Path(tmp) / f"fronts-{s}.json") for s in range(len(finals))]
        write_s = median_seconds(lambda: [cli.write_dump(fs, path) for fs, path in zip(finals, dump_paths)], IO_REPS)
    return load_s, write_s


def per_layer(streams: list, seed: int, seconds: float) -> tuple[dict, dict, list[Round]]:
    population = [sol for stream in streams for sol in stream.final]
    us_per_pair = kernel_us_per_pair(population, np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3]))

    tracer = layers.Tracer()

    def untraced_then_traced(number: int) -> tuple[Round, Round]:
        untraced = run_round(streams, number, probe=True)
        with tracer.installed():
            return untraced, run_round(streams, number, probe=True, tracer=tracer)

    pairs = repeat(untraced_then_traced, seconds)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    n = len(traced)
    span_scale = statistics.mean(rnd.scale() for rnd in traced)  # raw span times to normalised

    finals = [traced[-1].work[s, APPROACHES[0]].fs for s in range(len(streams))]
    full_sort_s = median_seconds(lambda: [nd.full_sort(stream.final, stream.start.m) for stream in streams], IO_REPS)
    load_s, write_s = io_seconds(streams, finals)

    spans = tracer.spans
    # the kernel metrics cover the workload only; the probe feeds the lookup and delete layers
    kernel_calls = tracer.kernel_calls - sum(rnd.probe_kernel_calls for rnd in traced)
    compares = sum(p.compares for rnd in traced for p in rnd.work.values())
    metrics, notes = {}, {}

    def call_median(metric: str, span: str) -> None:
        metrics[metric] = (statistics.median(spans[span].durations) * span_scale / 1e3, "us")
        notes[metric] = f"median of {spans[span].calls} calls"

    def self_time(metric: str, span: str) -> None:
        metrics[metric] = (spans[span].self_ns * span_scale / 1e9 / n, "s")
        notes[metric] = f"self time per traced round, {n} round(s)"

    metrics["core.us_per_pair"] = (us_per_pair, "us")
    notes["core.us_per_pair"] = f"{KERNEL_PAIRS} pairs, median of {KERNEL_REPS} repetitions, untraced"
    metrics["core.kernel_calls"] = (kernel_calls / n, "count")
    notes["core.kernel_calls"] = "dom_nature and check_dom calls per traced round, without the probe"
    metrics["core.counted_share"] = (compares / kernel_calls, "share")
    call_median("linear.insert_linear_us", "insert_linear")
    call_median("linear.delete_us", "delete")
    call_median("linear.locate_sequential_us", "locate_sequential")
    for name in ("dom_set", "update_insert", "update_delete"):
        self_time(f"linear.{name}_s", name)
        metrics[f"linear.{name}_calls"] = (spans[name].calls / n, "count")
    call_median("dbst.insert_tree_us", "insert_tree")
    call_median("dbst.lookup_tree_us", "lookup_tree")
    self_time("dbst.navigate_s", "navigate")
    metrics["dbst.fronts_probed"] = (spans["navigate"].result_items / spans["navigate"].calls, "count")
    notes["dbst.fronts_probed"] = f"mean trace length of {spans['navigate'].calls} navigations"
    for name, value in (("oracle.full_sort_s", full_sort_s), ("cli.load_population_s", load_s), ("cli.write_dump_s", write_s)):
        metrics[name] = (value, "s")
        notes[name] = f"median of {IO_REPS}, all streams"
    overhead = statistics.median(r.busy_ns() for r in traced) / statistics.median(r.busy_ns() for r in untraced) - 1
    metrics["trace.overhead_share"] = (overhead, "share")
    notes["trace.overhead_share"] = f"traced over untraced operation time, {n} round(s) each"
    return metrics, notes, untraced + traced


def print_table(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>14.6g} {unit:<12} {notes.get(name, '')}".rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = workloads.SPECS[args.workload]

    if args.trace:
        # half the streams, so that an untraced and a traced round fit in the run time
        streams = workloads.generate(spec, args.seed)[: (spec.streams + 1) // 2]
        metrics, notes, rounds = per_layer(streams, args.seed, args.seconds)
    else:
        setups = [clock.timed(lambda: workloads.generate(spec, args.seed)) for _ in range(SETUP_REPS)]
        streams = setups[-1][0]
        peak = []

        def measure(number: int) -> Round:
            rnd = run_round(streams, number, probe=False)
            if not peak:  # later rounds add only the benchmark's own records
                peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)  # kilobytes on Linux
            return rnd

        rounds = repeat(measure, args.seconds)
        metrics, notes = end_to_end(streams, rounds, statistics.median(s for _, s in setups), peak[0])

    attempted = sum(len(p.latency_ns) for rnd in rounds for p in rnd.passes())
    failed = sum(p.failed for rnd in rounds for p in rnd.passes())
    problems = check(streams, rounds)

    print(f"workload {args.workload} seed {args.seed}")
    print_table(descriptors(streams, rounds), {"machine.scale": "normalised over raw operation time"})
    print_table({"failed_share": (failed / attempted, "share")}, {"failed_share": f"{failed} of {attempted} ops"})
    print_table(metrics, notes)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
