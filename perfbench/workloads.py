"""Seeded workloads for the ndfronts benchmark.

Each workload is several independent streams of the same shape. One stream
is a starting partition (empty for the sort workloads, a preloaded
population for churn) and a fixed list of operations. Several streams per
run average out how much the work itself varies from seed to seed, so the
spread across seeds stays inside the benchmark's bounds.

Objective vectors are continuous uniform draws in [0, 1)^M. They are never
filtered or redrawn, and continuous draws practically never tie. The
benchmark therefore does not test tied vectors; the library's own tests do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import ndfronts as nd

INSERT, DELETE, LOOKUP = "insert", "delete", "lookup"

# Probe run in every round of the traced pass, on each final partition, so
# that the lookup and delete layers are measured on the sort workloads too.
PROBE_LOOKUPS = 16
PROBE_DELETES = 2


@dataclass(frozen=True)
class Spec:
    kind: str  # "sort": insert a stream into an empty set; "churn": mix on a preloaded set
    m: int
    n: int  # stream length (sort) or preloaded population (churn)
    ops: int  # churn operations per stream; unused for sort
    streams: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
SPECS = {
    "sort-m2": Spec("sort", 2, 2000, 0, 8),
    "sort-m5": Spec("sort", 5, 2000, 0, 6),
    "churn-m3": Spec("churn", 3, 1000, 300, 8),
}

# Operation mix of the churn workload, as cumulative shares.
CHURN_INSERT, CHURN_DELETE = 0.4, 0.8


@dataclass
class Stream:
    start: nd.FrontSet  # partition every pass starts from; passes copy it
    ops: list[tuple[str, nd.Solution]]
    final: list[nd.Solution]  # the live population after all ops
    probe: list[tuple[str, nd.Solution]]  # lookups, then deletes of distinct live ids
    probe_final: list[nd.Solution]  # the live population after the probe


def generate(spec: Spec, seed: int) -> list[Stream]:
    """Build the workload's streams from ``seed``.

    Vectors, operation choices and probe choices come from three generators
    spawned independently from the seed, so the vectors do not depend on
    which operations were drawn.
    """
    vec_seq, op_seq, probe_seq = np.random.SeedSequence(seed).spawn(3)
    vec_rng = np.random.default_rng(vec_seq)
    op_rng = np.random.default_rng(op_seq)
    probe_rng = np.random.default_rng(probe_seq)
    return [_stream(spec, s, vec_rng, op_rng, probe_rng) for s in range(spec.streams)]


def _stream(spec: Spec, index: int, vec_rng, op_rng, probe_rng) -> Stream:
    # Each stream takes a fixed block of vectors, whatever its operations.
    vectors = iter(vec_rng.random((spec.n + spec.ops, spec.m)).tolist())
    ids = itertools.count()

    def fresh() -> nd.Solution:
        return nd.Solution(f"{index}.{next(ids)}", tuple(next(vectors)))

    start = nd.FrontSet(spec.m)
    if spec.kind == "sort":
        ops = [(INSERT, fresh()) for _ in range(spec.n)]
        live = [sol for _, sol in ops]
    else:
        live = [fresh() for _ in range(spec.n)]
        counter = nd.Counter()
        for sol in live:
            nd.insert_linear(start, sol, counter)
        ops = []
        for _ in range(spec.ops):
            roll = op_rng.random()
            if roll < CHURN_INSERT:
                sol = fresh()
                live.append(sol)
                ops.append((INSERT, sol))
            elif roll < CHURN_DELETE:
                i = int(op_rng.integers(len(live)))
                live[i], live[-1] = live[-1], live[i]
                ops.append((DELETE, live.pop()))
            else:
                ops.append((LOOKUP, live[int(op_rng.integers(len(live)))]))

    picks = probe_rng.choice(len(live), size=PROBE_LOOKUPS + PROBE_DELETES, replace=False)
    chosen = [live[i] for i in picks]
    deleted = {sol.id for sol in chosen[PROBE_LOOKUPS:]}
    probe = [(LOOKUP, sol) for sol in chosen[:PROBE_LOOKUPS]]
    probe += [(DELETE, sol) for sol in chosen[PROBE_LOOKUPS:]]
    return Stream(start, ops, live, probe, [sol for sol in live if sol.id not in deleted])
