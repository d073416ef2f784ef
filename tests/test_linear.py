"""Linear-scan insertion, deletion, lookup, and their cascade procedures."""

from __future__ import annotations

import random
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import ndfronts
from ndfronts import (
    ContractViolationError,
    Counter,
    DuplicateIdError,
    FrontSet,
    MissingSolutionError,
    Position,
    Solution,
    delete,
    dom_set,
    full_sort,
    gen_chain,
    gen_equal_fronts,
    gen_worst_two_front,
    insert_linear,
    locate_sequential,
    same_partition,
    update_delete,
    update_insert,
    validate,
    worst_split,
)
from ndfronts.cli import APPROACHES, delete_with, insert_with
from tests.conftest import NINE_LEVELS, dominates, random_population, s


def fs_of(*levels):
    m = len(levels[0][0].objectives)
    return FrontSet(m, [list(level) for level in levels])


# --- insert_linear -----------------------------------------------------------

def test_insert_non_dominated_merges():
    fs = fs_of([s("a", 2, 2)])
    insert_linear(fs, s("n", 1, 3), Counter())
    assert fs.level_ids() == [{"a", "n"}]


def test_insert_dominated_by_every_front_becomes_last_front():
    fs = fs_of([s("a", 1, 1)], [s("b", 2, 2)])
    insert_linear(fs, s("n", 3, 3), Counter())
    assert fs.level_ids() == [{"a"}, {"b"}, {"n"}]


def test_insert_displacing_part_of_an_antichain():
    # eight mutually non-dominated solutions; the new one dominates three
    pop = [s(f"a{i}", i, 9 - i) for i in range(1, 9)]
    fs = fs_of(pop)
    new = Solution("n", (3.5, 2.5))
    dominated = {p.id for p in pop if dominates(new, p)}
    assert len(dominated) == 3
    c = Counter()
    insert_linear(fs, new, c)
    assert fs.level_ids() == [{p.id for p in pop} - dominated | {"n"}, dominated]
    assert same_partition(fs, full_sort(pop + [new]))
    # every stored solution is examined exactly once
    assert c.pair_compares == 8


def test_insert_dominating_whole_front_shifts_ranks():
    fs = fs_of([s("a", 5, 5)], [s("b", 6, 6)])
    c = Counter()
    insert_linear(fs, s("n", 1, 1), c)
    assert fs.level_ids() == [{"n"}, {"a"}, {"b"}]
    assert c.pair_compares == 1


def test_insert_duplicate_id_rejected():
    fs = fs_of([s("a", 1, 1)])
    with pytest.raises(DuplicateIdError):
        insert_linear(fs, s("a", 2, 2), Counter())


def test_insert_dimension_mismatch_rejected():
    from ndfronts import DimensionMismatchError

    fs = fs_of([s("a", 1, 1)])
    with pytest.raises(DimensionMismatchError):
        insert_linear(fs, Solution("n", (1.0, 2.0, 3.0)), Counter())


def test_insert_duplicate_vector_allowed_same_level():
    fs = fs_of([s("a", 1, 1)])
    insert_linear(fs, s("twin", 1, 1), Counter())
    assert fs.level_ids() == [{"a", "twin"}]


def test_insert_into_empty_front_set():
    fs = FrontSet(2)
    insert_linear(fs, s("n", 1, 1), Counter())
    assert fs.level_ids() == [{"n"}]


# --- dom_set -----------------------------------------------------------------

def test_dom_set_moves_dominated_tail():
    front = [s("a", 3, 3), s("b", 1, 4)]
    moved = []
    dom_set(front, s("n", 2, 2), 1, moved, Counter())
    assert [sol.id for sol in moved] == ["a"]
    assert [sol.id for sol in front] == ["b"]


def test_dom_set_no_dominated_members():
    front = [s("a", 1, 4), s("b", 4, 1)]
    moved = []
    dom_set(front, s("n", 2, 2), 1, moved, Counter())
    assert moved == []
    assert [sol.id for sol in front] == ["a", "b"]


def test_dom_set_respects_start_and_counts_each_candidate_once():
    front = [s(f"a{i}", i, 12 - i) for i in range(1, 11)]
    new = Solution("n", (4.5, 3.5))
    for start in (1, 3, 7):
        work = list(front)
        moved = []
        c = Counter()
        dom_set(work, new, start, moved, c)
        expected = [p.id for p in front[start - 1 :] if dominates(new, p)]
        assert [p.id for p in moved] == expected
        assert [p.id for p in work] == [
            p.id for p in front[: start - 1]
        ] + [p.id for p in front[start - 1 :] if not dominates(new, p)]
        assert c.pair_compares == len(front) - start + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_dom_set_matches_brute_force_filter(seed):
    rng = random.Random(seed)
    raw = random_population(rng, 10, 2, grid=8)
    front = [p for p in full_sort(raw).fronts[0]]
    new = Solution("n", (float(rng.randrange(8)), float(rng.randrange(8))))
    work = list(front)
    moved = []
    dom_set(work, new, 1, moved, Counter())
    assert {p.id for p in moved} == {p.id for p in front if dominates(new, p)}


# --- update_insert -----------------------------------------------------------

def test_update_insert_nothing_promoted_shifts_down():
    fs = fs_of([s("a", 1, 1)], [s("b", 5, 5)])
    update_insert(fs, [s("m", 3, 3)], 2, Counter())
    assert fs.level_ids() == [{"a"}, {"m"}, {"b"}]


def test_update_insert_whole_front_absorbed():
    fs = fs_of([s("a", 1, 1)], [s("b", 3, 3)])
    update_insert(fs, [s("m", 2, 4)], 2, Counter())
    assert fs.level_ids() == [{"a"}, {"m", "b"}]


def test_update_insert_past_last_front_appends():
    fs = fs_of([s("a", 1, 1)])
    update_insert(fs, [s("m", 2, 2)], 2, Counter())
    assert fs.level_ids() == [{"a"}, {"m"}]


def test_update_insert_cascade_matches_full_resort():
    # displaced set pushes part of each lower level one rank down
    lv1 = [s("a1", 1, 1)]
    lv2 = [s("b1", 2, 6), s("b2", 6, 2)]
    lv3 = [s("c1", 3, 7), s("c2", 7, 3)]
    fs = fs_of(lv1, lv2, lv3)
    assert validate(fs) == []
    new = Solution("n", (1.5, 1.5))
    insert_linear(fs, new, Counter())
    assert same_partition(fs, full_sort(lv1 + lv2 + lv3 + [new]))
    assert validate(fs) == []


def test_update_insert_rejects_dominated_displaced_set():
    fs = fs_of([s("a", 1, 1)], [s("b", 9, 9)])
    with pytest.raises(ContractViolationError):
        update_insert(fs, [s("m", 3, 3), s("w", 4, 4)], 2, Counter())


def test_update_insert_rejects_empty_or_top_rank():
    fs = fs_of([s("a", 1, 1)], [s("b", 9, 9)])
    with pytest.raises(ContractViolationError):
        update_insert(fs, [], 2, Counter())
    with pytest.raises(ContractViolationError):
        update_insert(fs, [s("m", 3, 3)], 1, Counter())
    with pytest.raises(ContractViolationError):
        update_insert(fs, [s("m", 3, 3)], 4, Counter())


def test_delete_rejects_unknown_strategy():
    fs = fs_of([s("a", 1, 1)])
    with pytest.raises(ValueError):
        delete(fs, s("a", 1, 1), "bogus", Counter())


# --- locate_sequential -------------------------------------------------------

def test_locate_sequential_chain_counts():
    chain = gen_chain(12)
    fs = FrontSet(2, [[sol] for sol in chain])
    c = Counter()
    assert locate_sequential(fs, chain[-1], c) == Position(12, 1)
    assert c.pair_compares == 12
    c = Counter()
    assert locate_sequential(fs, chain[0], c) == Position(1, 1)
    assert c.pair_compares == 1


def test_locate_sequential_equal_fronts_worst_case():
    pop = gen_equal_fronts(100, 10)
    fs = FrontSet(2, [pop[i * 10 : (i + 1) * 10] for i in range(10)])
    c = Counter()
    assert locate_sequential(fs, pop[-1], c) == Position(10, 10)
    assert c.pair_compares == 10 + 10 - 1


def test_locate_sequential_absent_probe():
    fs = fs_of([s("a", 1, 2), s("b", 2, 1)])
    assert locate_sequential(fs, s("x", 1.5, 1.4), Counter()) is None


# --- delete and update_delete ------------------------------------------------

@pytest.mark.parametrize("strategy", ["sequential", "tree"])
def test_delete_promotes_exactly_the_uncovered_solutions(nine_in_four_levels, strategy):
    by_id = nine_in_four_levels
    fs = full_sort(list(by_id.values()))
    assert fs.level_ids() == NINE_LEVELS
    delete(fs, by_id["4"], strategy, Counter())
    assert fs.level_ids() == [{"2"}, {"1", "3", "6"}, {"8", "5", "7"}, {"9"}]
    assert same_partition(fs, full_sort([sol for sid, sol in by_id.items() if sid != "4"]))
    assert validate(fs) == []


def test_delete_last_front_member_is_local():
    front = [s(f"a{i}", i, 9 - i) for i in range(1, 9)]
    fs = fs_of(front)
    c = Counter()
    delete(fs, front[-1], "sequential", c)
    assert fs.level_ids() == [{p.id for p in front[:-1]}]
    assert c.pair_compares == len(front)  # the search alone


def test_delete_emptied_front_is_dropped():
    fs = fs_of([s("a", 1, 1)], [s("b", 2, 2)], [s("c", 3, 3)])
    delete(fs, s("b", 2, 2), "sequential", Counter())
    assert fs.level_ids() == [{"a"}, {"c"}]
    assert validate(fs) == []


def test_delete_missing_solution_raises():
    fs = fs_of([s("a", 1, 1)])
    with pytest.raises(MissingSolutionError):
        delete(fs, s("x", 0.5, 0.4), "sequential", Counter())


def test_update_delete_no_promotion_stops():
    fs = fs_of([s("a", 1, 1)], [s("b", 2, 2)])
    c = Counter()
    update_delete(fs, 1, c)
    assert fs.level_ids() == [{"a"}, {"b"}]
    assert c.pair_compares == 1


def test_update_delete_empty_upper_front_promotes_all_for_free():
    # direct call on a structure whose upper front was emptied by hand
    fs = FrontSet(2, [[], [s("b", 2, 6), s("c", 6, 2)], [s("d", 7, 7)]])
    c = Counter()
    update_delete(fs, 1, c)
    assert fs.level_ids() == [{"b", "c"}, {"d"}]
    assert c.pair_compares == 0


def test_update_delete_chain_of_equal_fronts_cost():
    pop = gen_equal_fronts(12, 4)
    fronts = [pop[i * 3 : (i + 1) * 3] for i in range(4)]
    fs = FrontSet(2, fronts)
    c = Counter()
    delete(fs, fronts[0][-1], "sequential", c)
    # search: 3 compares; cascade: 3 candidates against the 2 survivors, no
    # promotion (chain-dominated), then stop
    assert c.pair_compares == 3 + 3 * 2
    assert same_partition(fs, full_sort(pop[:2] + pop[3:]))


def test_update_delete_index_out_of_range():
    fs = fs_of([s("a", 1, 1)], [s("b", 2, 2)])
    with pytest.raises(IndexError):
        update_delete(fs, 2, Counter())
    with pytest.raises(IndexError):
        update_delete(fs, 0, Counter())


# --- worst case and whole-workload properties --------------------------------

def test_worst_case_insert_count_even_and_odd():
    for n in (20, 100, 21, 101):
        pop, probe = gen_worst_two_front(n)
        n1 = worst_split(n).sizes[0]
        fs = FrontSet(2, [pop[:n1], pop[n1:]])
        c = Counter()
        insert_linear(fs, probe, c)
        if n % 2 == 0:
            assert c.pair_compares == n * n // 4 + 1
        else:
            assert c.pair_compares == (n * n + 3) // 4  # == ceil(n^2/4)
        assert same_partition(fs, full_sort(pop + [probe]))


def test_worst_case_delete_count():
    pop, _ = gen_worst_two_front(100)
    n1 = worst_split(100).sizes[0]
    fs = FrontSet(2, [pop[:n1], pop[n1:]])
    c = Counter()
    delete(fs, pop[n1 - 1], "sequential", c)  # last solution of the first front
    assert c.pair_compares == 100 * 100 // 4 + 1
    assert same_partition(fs, full_sort(pop[: n1 - 1] + pop[n1:]))


def _two_wide_ladder(k):
    """k fronts of two solutions each, built so one solution per level promotes
    (or sinks) when the ladder is perturbed at the top, cascading level by
    level through the whole structure."""
    big = 10_000.0
    xs = [s(f"x{j}", j - 1 - 1 / j, big + j) for j in range(1, k + 1)]
    ys = [s(f"y{j}", j, j) for j in range(1, k + 1)]
    return xs, ys


def test_delete_cascade_through_thousands_of_levels():
    k = 2000
    xs, ys = _two_wide_ladder(k)
    fs = FrontSet(2, [[xs[j], ys[j]] for j in range(k)])
    c = Counter()
    delete(fs, xs[0], "sequential", c)
    # locate costs 1; each of the k-1 cascade levels compares two candidates
    # against the single pre-promotion occupant
    assert c.pair_compares == 1 + 2 * (k - 1)
    assert fs.level_ids()[0] == {"y1", "x2"}
    assert fs.level_ids()[-1] == {f"y{k}"}
    assert same_partition(fs, full_sort(xs[1:] + ys))


def test_insert_cascade_through_thousands_of_levels():
    k = 2000
    xs, ys = _two_wide_ladder(k)
    fs = FrontSet(2, [[xs[j], ys[j]] for j in range(k)])
    probe = s("probe", -2, 10_000.5)  # dominates x1 only, non-dominated with y1
    c = Counter()
    insert_linear(fs, probe, c)
    assert c.pair_compares == 2 + 2 * (k - 1)
    assert fs.level_ids()[0] == {"y1", "probe"}
    assert fs.level_ids()[-1] == {f"x{k}"}
    assert fs.k == k + 1
    assert same_partition(fs, full_sort(xs + ys + [probe]))


# --- kernel-call audit --------------------------------------------------------

def _audit_kernel(monkeypatch):
    """Count every real dominance-kernel call, in each ``ndfronts`` namespace
    that binds the kernel, and record the entry width of every
    ``update_insert`` call.  Returns ``(calls, widths)``; ``calls[0]`` is the
    running tally."""
    calls = [0]
    widths: list[int] = []

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    def recorded(fs, displaced, index, counter):
        widths.append(len(displaced))
        return original_update_insert(fs, displaced, index, counter)

    original_update_insert = ndfronts.update_insert
    wrappers = {
        "dom_nature": counted(ndfronts.dom_nature),
        "check_dom": counted(ndfronts.check_dom),
        "update_insert": recorded,
    }
    originals = {name: getattr(ndfronts, name) for name in wrappers}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "ndfronts" or mod_name.startswith("ndfronts."):
            for name, wrapper in wrappers.items():
                if getattr(module, name, None) is originals[name]:
                    monkeypatch.setattr(module, name, wrapper)
    return calls, widths


def _two_column_ladder(k):
    """k fronts of three: two chains xa, xb and a chain y.  A probe that
    dominates xa1 and xb1 but not y1 displaces both, and the pair then sinks
    one rank per front while each y moves up beside it."""
    big = 10_000.0
    return [
        [
            s(f"xa{j}", j - 1 - 1 / j, big + j),
            s(f"xb{j}", j - 1.01 - 1 / j, big + j + 0.01),
            s(f"y{j}", j, j),
        ]
        for j in range(1, k + 1)
    ]


@pytest.mark.parametrize("approach", APPROACHES)
def test_insert_cascade_kernel_calls_are_counted_except_the_entry_check(monkeypatch, approach):
    k = 6
    fronts = _two_column_ladder(k)
    fs = FrontSet(2, [list(front) for front in fronts])
    assert validate(fs) == []
    probe = s("probe", -2, 10_000.5)
    calls, widths = _audit_kernel(monkeypatch)
    c = Counter()
    insert_with(fs, probe, approach, c)
    assert fs.k == k + 1  # the displaced pair crossed every rank below the first
    assert widths == [2]
    assert calls[0] == c.pair_compares + comb(2, 2)
    assert same_partition(fs, full_sort([sol for front in fronts for sol in front] + [probe]))


@pytest.mark.parametrize("approach", APPROACHES)
def test_worst_case_insert_kernel_calls(monkeypatch, approach):
    pop, probe = gen_worst_two_front(100)
    n1 = worst_split(100).sizes[0]
    fs = FrontSet(2, [pop[:n1], pop[n1:]])
    calls, widths = _audit_kernel(monkeypatch)
    c = Counter()
    insert_with(fs, probe, approach, c)
    assert widths == [50]
    assert calls[0] == c.pair_compares + comb(50, 2)
    if approach == "linear":
        assert (calls[0], c.pair_compares) == (3726, 2501)


@pytest.mark.parametrize("approach", APPROACHES)
def test_delete_cascade_kernel_calls_are_all_counted(monkeypatch, approach):
    k = 50
    xs, ys = _two_wide_ladder(k)
    fs = FrontSet(2, [[xs[j], ys[j]] for j in range(k)])
    calls, widths = _audit_kernel(monkeypatch)
    c = Counter()
    delete_with(fs, xs[0], approach, c)
    assert fs.level_ids()[-1] == {f"y{k}"}  # the cascade reached the last rank
    assert widths == []
    assert calls[0] == c.pair_compares


def test_insert_then_delete_round_trip():
    rng = random.Random(7)
    pop = random_population(rng, 40, 3)
    fs = full_sort(pop)
    before = fs.level_ids()
    extra = Solution("extra", (rng.random(), rng.random(), rng.random()))
    insert_linear(fs, extra, Counter())
    delete(fs, extra, "sequential", Counter())
    assert fs.level_ids() == before


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 4))
def test_random_workload_matches_resort(seed, m):
    rng = random.Random(seed)
    fs = FrontSet(m)
    live: dict[str, Solution] = {}
    for step in range(60):
        if rng.random() < 0.65 or len(live) < 2:
            sol = Solution(f"s{step}", tuple(rng.random() for _ in range(m)))
            insert_linear(fs, sol, Counter())
            live[sol.id] = sol
        else:
            victim = live.pop(rng.choice(sorted(live)))
            delete(fs, victim, "sequential", Counter())
        assert same_partition(fs, full_sort(list(live.values()), m))
        assert validate(fs) == []


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32))
def test_grid_coordinates_with_ties_keep_level_vectors_right(seed):
    # duplicate vectors possible: compare levels as multisets of vectors
    rng = random.Random(seed)
    fs = FrontSet(2)
    live: list[Solution] = []
    for step in range(40):
        if rng.random() < 0.7 or len(live) < 2:
            sol = Solution(f"s{step}", (float(rng.randrange(5)), float(rng.randrange(5))))
            insert_linear(fs, sol, Counter())
            live.append(sol)
        else:
            # the search may remove a twin with the same vector, so levels are
            # compared below as multisets of vectors, not ids
            victim = live.pop(rng.randrange(len(live)))
            delete(fs, victim, "sequential", Counter())
        got = [sorted(sol.objectives for sol in front) for front in fs.fronts]
        want = [
            sorted(sol.objectives for sol in front)
            for front in full_sort(live, 2).fronts
        ]
        assert got == want
        assert validate(fs) == []
