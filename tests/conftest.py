"""Shared constructions and independent reference oracles for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from ndfronts import Counter, FrontSet, Solution


def s(sid: str, *objs: float) -> Solution:
    return Solution(sid, tuple(float(v) for v in objs))


def dominates(a: Solution, b: Solution) -> bool:
    """Uninstrumented reference dominance, independent of the library's."""
    return all(x <= y for x, y in zip(a.objectives, b.objectives)) and any(
        x < y for x, y in zip(a.objectives, b.objectives)
    )


def reference_level_ids(population: list[Solution]) -> list[set[str]]:
    """Tiny pure-Python peel sort; cross-checks the vectorized oracle."""
    remaining = list(population)
    levels: list[set[str]] = []
    while remaining:
        front = [
            p
            for p in remaining
            if not any(dominates(q, p) for q in remaining if q is not p)
        ]
        ids = {p.id for p in front}
        levels.append(ids)
        remaining = [p for p in remaining if p.id not in ids]
    return levels


@pytest.fixture
def twelve_in_five_levels() -> list[Solution]:
    """Twelve solutions whose full sort yields levels of sizes 1, 2, 4, 4, 1."""
    return [
        s("p1", 0, 0),
        s("p2", 1, 2),
        s("p3", 2, 1),
        s("p4", 2, 5),
        s("p5", 3, 4),
        s("p6", 4, 3),
        s("p7", 5, 2),
        s("p8", 3, 8),
        s("p9", 4, 7),
        s("p10", 7, 4),
        s("p11", 8, 3),
        s("p12", 9, 9),
    ]


TWELVE_LEVELS = [
    {"p1"},
    {"p2", "p3"},
    {"p4", "p5", "p6", "p7"},
    {"p8", "p9", "p10", "p11"},
    {"p12"},
]


@pytest.fixture
def nine_in_four_levels() -> dict[str, Solution]:
    """Nine solutions in four levels: {2}, {1,3,6}, {4,8}, {5,7,9}.

    Solutions 5 and 7 are dominated within level 3 only by solution 4, and 9
    only by 8, so deleting 4 promotes exactly 5 and 7.
    """
    return {
        "2": s("2", 1, 1),
        "1": s("1", 2, 5),
        "3": s("3", 3, 3),
        "6": s("6", 5, 2),
        "4": s("4", 3, 6),
        "8": s("8", 6, 3),
        "5": s("5", 4, 7),
        "7": s("7", 3.5, 8),
        "9": s("9", 7, 4),
    }


NINE_LEVELS = [{"2"}, {"1", "3", "6"}, {"4", "8"}, {"5", "7", "9"}]


def build_front_set(m: int, levels: list[list[Solution]]) -> FrontSet:
    return FrontSet(m, levels)


def assert_columns_consistent(fs: FrontSet) -> None:
    """Every objective array of ``fs`` belongs to a front of ``fs`` and
    pairs each member of its own member list with that member's
    objectives.  A record of a front edited directly may be stale, but
    never mixed."""
    live = {id(front) for front in fs.fronts}
    for key, rec in fs._arrays.items():
        assert key in live
        want = np.array([sol.objectives for sol in rec.members], dtype=np.float64).reshape(len(rec.members), fs.m)
        assert np.array_equal(rec.cols, want.T)


def random_population(rng: random.Random, n: int, m: int, grid: int | None = None) -> list[Solution]:
    """n distinct-id solutions; continuous coordinates by default, or an
    integer grid (duplicate vectors possible) when ``grid`` is given."""
    out = []
    for i in range(n):
        if grid:
            objs = tuple(float(rng.randrange(grid)) for _ in range(m))
        else:
            objs = tuple(rng.random() for _ in range(m))
        out.append(Solution(f"r{i}", objs))
    return out


def fresh_counter() -> Counter:
    return Counter()
