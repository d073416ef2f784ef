"""Acceptance suite: every exit criterion at its stated exact tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All count assertions are exact (integer equality); the only
inequalities are the documented runtime budgets and the online-sort bound.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

from ndfronts import (
    APPROACHES,
    Counter,
    FrontSet,
    Solution,
    TreeVariant,
    full_sort,
    gen_antichain,
    gen_chain,
    gen_equal_fronts,
    gen_worst_two_front,
    insert_tree,
    locate_sequential,
    lookup_tree,
    max_comp_linear,
    navigate,
    same_partition,
    worst_split,
    FrontProfile,
)
from ndfronts.cli import sort_online


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


# --- 1. oracle equivalence under mixed workloads -------------------------------

def _lockstep_workload(seed: int, m: int, ramp: int, extra: int) -> int:
    """Run one workload under all three approaches at once, checking every
    intermediate partition against a from-scratch sort.  Returns checks done."""
    rng = random.Random(seed)
    states = {ap: FrontSet(m) for ap in ("linear", "ltree", "rtree")}
    live: dict[str, Solution] = {}
    order: list[str] = []
    next_id = 1
    checks = 0

    def check() -> None:
        nonlocal checks
        truth = full_sort(list(live.values()), m)
        for approach, fs in states.items():
            assert same_partition(fs, truth), (seed, approach, checks)
        checks += 1

    def do_insert() -> None:
        nonlocal next_id
        sol = Solution(f"s{next_id}", tuple(rng.random() for _ in range(m)))
        next_id += 1
        live[sol.id] = sol
        order.append(sol.id)
        for approach, fs in states.items():
            APPROACHES[approach].insert(fs, sol, Counter())

    def do_delete() -> None:
        sid = order.pop(rng.randrange(len(order)))
        sol = live.pop(sid)
        for approach, fs in states.items():
            APPROACHES[approach].delete(fs, sol, Counter())

    for _ in range(ramp):
        do_insert()
        check()
    for _ in range(extra):
        if rng.random() < 0.5 or len(order) < 2:
            do_insert()
        else:
            do_delete()
        check()
    return checks


def test_criterion_1_oracle_equivalence_over_seeded_workloads():
    with criterion(1, "1000 seeded workloads, every intermediate partition equals a full re-sort under all three approaches"):
        started = time.perf_counter()
        objective_counts = (2, 3, 5)
        total_checks = 0
        for seed in range(950):
            m = objective_counts[seed % 3]
            total_checks += _lockstep_workload(seed, m, ramp=8 + seed % 18, extra=24)
        for seed in range(950, 995):
            m = objective_counts[seed % 3]
            total_checks += _lockstep_workload(seed, m, ramp=50, extra=30)
        for seed in range(995, 1000):
            m = objective_counts[seed % 3]
            total_checks += _lockstep_workload(seed, m, ramp=300, extra=25)
        elapsed = time.perf_counter() - started
        assert total_checks > 30_000
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"


# --- 2. single-front costs ------------------------------------------------------

def test_criterion_2_single_front_insert_costs():
    with criterion(2, "single front of 50: non-dominated probe costs 50, probe dominated by the first solution costs 1"):
        population = gen_antichain(50)
        merge_probe = Solution("p", (0.5, 50.0))
        blocked_probe = Solution("p", (2.0, 50.0))
        for approach in ("linear", "ltree", "rtree"):
            fs = FrontSet(2, [population])
            c = Counter()
            APPROACHES[approach].insert(fs, merge_probe, c)
            assert c.pair_compares == 50
            assert fs.k == 1 and len(fs.fronts[0]) == 51

            fs = FrontSet(2, [population])
            c = Counter()
            APPROACHES[approach].insert(fs, blocked_probe, c)
            assert c.pair_compares == 1
            assert fs.level_ids()[1] == {"p"}


# --- 3. hundred-front chain costs ----------------------------------------------

def test_criterion_3_chain_insert_costs():
    with criterion(3, "chain of 100 fronts: linear worst probe costs 100, each tree variant's worst probe costs floor(log2 100)+1 = 7"):
        chain = gen_chain(100)
        log_cost = math.floor(math.log2(100)) + 1
        assert log_cost == 7

        dominated_probe = Solution("p", (101.0, 101.0))
        dominating_probe = Solution("p", (0.0, 0.0))

        fs = FrontSet(2, [[sol] for sol in chain])
        c = Counter()
        APPROACHES["linear"].insert(fs, dominated_probe, c)
        assert c.pair_compares == 100
        assert fs.level_ids()[-1] == {"p"}

        # worst probe per variant: the round-down tree walks its full right
        # spine for a probe dominated everywhere; the round-up tree walks its
        # full left spine for a probe dominating everywhere
        fs = FrontSet(2, [[sol] for sol in chain])
        c = Counter()
        APPROACHES["rtree"].insert(fs, dominated_probe, c)
        assert c.pair_compares == log_cost
        assert fs.level_ids()[-1] == {"p"}

        fs = FrontSet(2, [[sol] for sol in chain])
        c = Counter()
        APPROACHES["ltree"].insert(fs, dominating_probe, c)
        assert c.pair_compares == log_cost
        assert fs.level_ids()[0] == {"p"}


# --- 4. lookup costs on ten equal fronts ----------------------------------------

def test_criterion_4_lookup_costs():
    with criterion(4, "ten equal fronts of ten: sequential worst lookup costs 19, tree worst lookup costs 13"):
        population = gen_equal_fronts(100, 10)
        fronts = [population[i * 10 : (i + 1) * 10] for i in range(10)]
        fs = FrontSet(2, fronts)

        c = Counter()
        pos = locate_sequential(fs, fronts[-1][-1], c)
        assert (pos.f_index, pos.s_index) == (10, 10)
        assert c.pair_compares == 10 + 10 - 1

        # front 1 is a deepest leaf of the rank tree over ten fronts
        c = Counter()
        pos = lookup_tree(fs, fronts[0][-1], c)
        assert (pos.f_index, pos.s_index) == (1, 10)
        assert c.pair_compares == math.floor(math.log2(10)) + 10


# --- 5. two-front worst-case maxima ---------------------------------------------

def test_criterion_5_two_front_maxima():
    with criterion(5, "two-front worst cases: N=100 gives 2501/2550/2501, N=101 gives 2551/2601"):
        expectations = {
            (100, "linear"): 100 * 100 // 4 + 1,
            (100, "ltree"): 100 * 100 // 4 + 100 // 2,
            (100, "rtree"): 100 * 100 // 4 + 1,
            (101, "linear"): (101 * 101 + 3) // 4,
            (101, "ltree"): (101 * 101 + 2 * 101 + 1) // 4,
        }
        assert expectations[(100, "linear")] == 2501
        assert expectations[(100, "ltree")] == 2550
        assert expectations[(101, "linear")] == 2551
        assert expectations[(101, "ltree")] == 2601
        for (n, approach), expected in expectations.items():
            population, probe = gen_worst_two_front(n)
            n1 = worst_split(n).sizes[0]
            fs = FrontSet(2, [population[:n1], population[n1:]])
            c = Counter()
            started = time.perf_counter()
            APPROACHES[approach].insert(fs, probe, c)
            elapsed = time.perf_counter() - started
            assert c.pair_compares == expected, (n, approach)
            assert elapsed < 1.0
            assert same_partition(fs, full_sort(population + [probe]))


# --- 6. the two-front split is the linear optimum -------------------------------

def _exhaustive_best(n: int) -> tuple[int, list[tuple[int, ...]]]:
    best_val, best_profiles = -1, []
    stack = [((first,), n - first, first) for first in range(1, n + 1)]
    while stack:
        profile, remaining, value = stack.pop()
        if remaining == 0:
            if value > best_val:
                best_val, best_profiles = value, [profile]
            elif value == best_val:
                best_profiles.append(profile)
            continue
        prev = profile[-1]
        for part in range(1, remaining + 1):
            stack.append((profile + (part,), remaining - part, value + (prev - 1) * part))
    return best_val, best_profiles


def test_criterion_6_exhaustive_two_front_optimum():
    with criterion(6, "enumerating every front profile up to N=24 confirms the two-front split maximizes the linear worst case"):
        started = time.perf_counter()
        for n in range(4, 25):
            best_val, best_profiles = _exhaustive_best(n)
            split = worst_split(n)
            assert max_comp_linear(split) == best_val, n
            assert split.sizes in best_profiles, n
            if n % 2 == 0:
                # even N: the stated split is the unique maximizer
                assert best_profiles == [split.sizes], n
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


# --- 7. online sorting stays within the N-competitive bound ---------------------

def test_criterion_7_online_sort_competitiveness():
    with criterion(7, "online sorting costs at most N times one full sort on chain, antichain, and random streams"):
        rng = random.Random(2024)
        for n in (32, 64, 128):
            streams = {
                "chain-worst-to-best": list(reversed(gen_chain(n))),
                "chain-best-to-worst": gen_chain(n),
                "antichain": gen_antichain(n),
                "random": [
                    Solution(f"r{i}", (rng.random(), rng.random(), rng.random()))
                    for i in range(n)
                ],
            }
            for label, stream in streams.items():
                offline = Counter()
                reference = full_sort(stream, counter=offline)
                bound = n * offline.pair_compares
                for approach in ("linear", "ltree", "rtree"):
                    online = Counter()
                    fs = sort_online(stream, stream[0].m, approach, online)
                    assert same_partition(fs, reference), (n, label, approach)
                    assert online.pair_compares <= bound, (n, label, approach)


# --- 8. navigation trace length bound -------------------------------------------

def _staircase(rng: random.Random, k: int, max_width: int) -> FrontSet:
    sep = max_width + 1
    fronts = []
    for f in range(1, k + 1):
        width = rng.randint(1, max_width)
        base = f * sep
        fronts.append(
            [
                Solution(f"t{f}_{j}", (float(base + j), float(base + width + 1 - j)))
                for j in range(1, width + 1)
            ]
        )
    return FrontSet(2, fronts)


def test_criterion_8_trace_length_bound():
    with criterion(8, "fuzzed navigations over up to 4096 fronts never exceed floor(log2 K)+1 trace records"):
        rng = random.Random(77)
        cases = 0
        for trial in range(160):
            k = min(4096, 2 + int(2 ** (rng.random() * 12)))
            if trial < 4:
                k = 4096  # always exercise the cap
            fs = _staircase(rng, k, 3)
            top = (k + 1) * 4 + 2
            probes = [
                Solution("p", (rng.uniform(0, top), rng.uniform(0, top))),
                Solution("p", (0.0, 0.0)),
                Solution("p", (float(top), float(top))),
            ]
            for probe in probes:
                for variant in (TreeVariant.LEFT_BALANCED, TreeVariant.RIGHT_BALANCED):
                    trace = navigate(fs, probe, variant, Counter())
                    assert len(trace) <= math.floor(math.log2(k)) + 1, (trial, k)
                    cases += 1
        assert cases == 160 * 6
