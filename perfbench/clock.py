"""Timing normalised to how fast the machine runs Python right now.

On a shared machine other tenants slow a Python process down, by up to
twofold and for seconds at a time. The benchmark therefore runs a fixed
reference loop of its own next to the work it times, and reports each time as

    raw time * REFERENCE_NS / duration of the reference loop around it

The loop runs pure-Python dominance tests over 3000 fixed objects shaped like
the library's solutions, visited in shuffled order. It slows down by nearly
the same factor as the library's operations, so normalised times stay steady
while raw times swing. The loop is the benchmark's code, never the library's,
so a faster library still reads as faster. REFERENCE_NS is the loop's
duration on the machine the baseline in README.md was measured on, when that
machine was otherwise idle; normalised times read as times on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

REFERENCE_NS = 4_500_000
EVERY_NS = 200_000_000  # how often run_pass re-measures the machine's speed


@dataclass(frozen=True)
class _Point:
    """Shaped like a library solution, so the loop touches memory the same way."""

    id: str
    objectives: tuple[float, ...]


def _pairs() -> list[tuple[_Point, _Point]]:
    rng = np.random.default_rng(0)
    points = [_Point(str(i), tuple(row)) for i, row in enumerate(rng.random((3000, 3)).tolist())]
    order = rng.permutation(len(points)).tolist()
    pairs = [(points[order[i]], points[order[(7 * i + 1) % len(points)]]) for i in range(len(points))]
    return pairs * 4


_PAIRS = _pairs()


def reference_ns() -> int:
    """Duration of one run of the reference loop, in nanoseconds."""
    start = perf_counter_ns()
    dominated = 0
    for a, b in _PAIRS:
        a_better = b_better = False
        for x, y in zip(a.objectives, b.objectives):
            if x < y:
                a_better = True
            elif y < x:
                b_better = True
        dominated += a_better and not b_better
    return perf_counter_ns() - start


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that turns raw times measured between two reference runs into
    normalised times."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)


def timed(body) -> tuple[object, float]:
    """Run ``body()`` once; return its result and its normalised seconds."""
    before = reference_ns()
    start = perf_counter_ns()
    result = body()
    raw = perf_counter_ns() - start
    return result, raw * scale(before, reference_ns()) / 1e9
