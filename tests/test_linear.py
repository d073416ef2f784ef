"""Linear-scan insertion, deletion, lookup, and their cascade procedures."""

from __future__ import annotations

import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ndfronts
from ndfronts import (
    APPROACHES,
    ContractViolationError,
    Counter,
    DimensionMismatchError,
    DuplicateIdError,
    FrontSet,
    MissingSolutionError,
    Position,
    Solution,
    delete,
    dom_nature,
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
from tests.conftest import NINE_LEVELS, assert_columns_consistent, dominates, random_population, s


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
    fs = fs_of([s("a", 1, 1)])
    with pytest.raises(DimensionMismatchError):
        insert_linear(fs, Solution("n", (1.0, 2.0, 3.0)), Counter())


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize(
    "new, error",
    [(s("b", 9, 9), DuplicateIdError), (Solution("n", (0.0, 0.0, 0.0)), DimensionMismatchError)],
    ids=["stored-id", "wrong-m"],
)
def test_rejected_insert_compares_and_moves_nothing(approach, new, error):
    fs = fs_of([s("a", 1, 1)], [s("b", 2, 2)], [s("c", 3, 3)])
    before = fs.level_ids()
    c = Counter()
    with pytest.raises(error):
        APPROACHES[approach].insert(fs, new, c)
    assert c.pair_compares == 0
    assert fs.level_ids() == before
    assert "n" not in fs


def test_insert_duplicate_vector_allowed_same_level():
    fs = fs_of([s("a", 1, 1)])
    insert_linear(fs, s("twin", 1, 1), Counter())
    assert fs.level_ids() == [{"a", "twin"}]


def test_insert_into_empty_front_set():
    fs = FrontSet(2)
    insert_linear(fs, s("n", 1, 1), Counter())
    assert fs.level_ids() == [{"n"}]


# --- dom_set -----------------------------------------------------------------

def test_dom_set_flags_the_dominated_tail():
    fs = fs_of([s("a", 3, 3), s("b", 1, 4)])
    front = fs.fronts[0]
    assert dom_set(fs, front, s("n", 2, 2), 1, Counter()).tolist() == [False, True]
    assert [sol.id for sol in front] == ["a", "b"]


def test_dom_set_no_dominated_members():
    fs = fs_of([s("a", 1, 4), s("b", 4, 1)])
    front = fs.fronts[0]
    assert dom_set(fs, front, s("n", 2, 2), 1, Counter()).tolist() == [True, True]
    assert [sol.id for sol in front] == ["a", "b"]


def test_dom_set_respects_start_and_counts_each_candidate_once():
    fs = fs_of([s(f"a{i}", i, 12 - i) for i in range(1, 11)])
    front = fs.fronts[0]
    new = Solution("n", (4.5, 3.5))
    for start in (1, 3, 7):
        c = Counter()
        stays = dom_set(fs, front, new, start, c)
        assert stays.tolist() == [i < start - 1 or not dominates(new, p) for i, p in enumerate(front)]
        assert c.pair_compares == len(front) - start + 1


@pytest.mark.parametrize("start", [0, -1, 5])
def test_dom_set_start_out_of_range_raises_and_counts_nothing(start):
    # 0 and negative starts must not wrap to the end of the front
    fs = fs_of([s("a", 1, 4), s("b", 3, 3), s("c", 4, 1)])
    c = Counter()
    with pytest.raises(IndexError):
        dom_set(fs, fs.fronts[0], s("n", 2, 2), start, c)
    assert c.pair_compares == 0
    assert dom_set(fs, fs.fronts[0], s("n", 2, 2), 4, c).tolist() == [True] * 3  # an empty tail
    assert c.pair_compares == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_dom_set_matches_brute_force_filter(seed):
    rng = random.Random(seed)
    raw = random_population(rng, 10, 2, grid=8)
    fs = full_sort(raw)
    front = fs.fronts[0]
    new = Solution("n", (float(rng.randrange(8)), float(rng.randrange(8))))
    stays = dom_set(fs, front, new, 1, Counter())
    assert stays.tolist() == [not dominates(new, p) for p in front]


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
    with pytest.raises(ContractViolationError, match="internally dominated: 'm' vs 'w'"):
        update_insert(fs, [s("m", 3, 3), s("w", 4, 4)], 2, Counter())


def test_update_insert_rejects_empty_or_top_rank():
    fs = fs_of([s("a", 1, 1)], [s("b", 9, 9)])
    with pytest.raises(ContractViolationError):
        update_insert(fs, [], 2, Counter())
    with pytest.raises(ContractViolationError):
        update_insert(fs, [s("m", 3, 3)], 1, Counter())
    with pytest.raises(ContractViolationError):
        update_insert(fs, [s("m", 3, 3)], 4, Counter())


@pytest.mark.parametrize(
    "displaced, error",
    [
        ([Solution("a", (3, 3))], DuplicateIdError),  # "a" is stored
        ([s("m", 2, 4), s("m", 4, 2)], DuplicateIdError),
        ([Solution("m", (3, 3, 3))], DimensionMismatchError),
    ],
    ids=["stored-id", "repeated-id", "wrong-m"],
)
def test_update_insert_rejects_bad_solutions_before_any_work(displaced, error):
    fs = fs_of([s("a", 1, 1)], [s("b", 9, 9)])
    before = fs.level_ids()
    c = Counter()
    with pytest.raises(error):
        update_insert(fs, displaced, 2, c)
    assert c.pair_compares == 0
    assert fs.level_ids() == before
    assert "m" not in fs and validate(fs) == []


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


def test_locate_sequential_absent_probe_stops_at_the_first_front_it_is_not_below():
    chain = gen_chain(100)
    fs = FrontSet(2, [[sol] for sol in chain])
    probe = s("x", 0, 0)  # dominates every stored solution
    c = Counter()
    assert locate_sequential(fs, probe, c) is None
    assert c.pair_compares == 1
    with pytest.raises(MissingSolutionError):
        delete(fs, probe, "sequential", Counter())
    assert fs.k == 100


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
    """Count every pair the dominance kernel tests, in each ``ndfronts``
    namespace that binds the kernel, and record the width of the front
    every cascade (``linear._cascade``) starts from.  A ``dom_nature`` call is
    one pair; a block on ``core._dominated``'s unrolled M = 2 path
    (``core._dominated_m2``) is the product of its two tuple lists' lengths,
    and on its numpy path (``core._dominated_cols``) the product of its two
    column arrays' widths; a front scan (``linear._first_witness``, bound
    in ``linear`` and ``dbst``) is the pairs :func:`_loop_scan` tests at
    each rank from ``lo`` to the rank the scan returns: up to the member
    where it stops, or the whole front when it finds nothing.  Returns
    ``(calls, widths)``; ``calls[0]`` is the running tally."""
    calls = [0]
    widths: list[int] = []

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    def counted_block(fn):
        def wrapper(a, b):
            calls[0] += a.shape[1] * b.shape[1]
            return fn(a, b)

        return wrapper

    def counted_witness(fn):
        def wrapper(fs, probe, lo, hi, counter, find_id):
            probed = fn(fs, probe, lo, hi, counter, find_id)
            reference = Counter()
            for front in fs.fronts[lo - 1 : probed[1]]:
                _loop_scan(front, probe, reference, find_id)
            calls[0] += reference.pair_compares
            return probed

        return wrapper

    def counted_unrolled(fn):
        def wrapper(peer_objs, member_objs):
            calls[0] += len(peer_objs) * len(member_objs)
            return fn(peer_objs, member_objs)

        return wrapper

    monkeypatch.setattr(ndfronts.core, "_dominated_cols", counted_block(ndfronts.core._dominated_cols))
    monkeypatch.setattr(ndfronts.core, "_dominated_m2", counted_unrolled(ndfronts.core._dominated_m2))
    witness = counted_witness(ndfronts.linear._first_witness)
    for module in (ndfronts.linear, ndfronts.dbst):
        monkeypatch.setattr(module, "_first_witness", witness)

    def recorded(fs, index, counter):
        widths.append(len(fs.fronts[index - 1]))
        return cascade(fs, index, counter)

    cascade = ndfronts.linear._cascade
    monkeypatch.setattr(ndfronts.linear, "_cascade", recorded)
    wrappers = {
        "dom_nature": counted(ndfronts.dom_nature),
        "check_dom": counted(ndfronts.check_dom),
    }
    originals = {name: getattr(ndfronts, name) for name in wrappers}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "ndfronts" or mod_name.startswith("ndfronts."):
            for name, wrapper in wrappers.items():
                if getattr(module, name, None) is originals[name]:
                    monkeypatch.setattr(module, name, wrapper)
    return calls, widths


def _column_ladder(k, columns=2):
    """k fronts of ``columns + 1``: chains xa, xb, ... and a chain y.  A
    probe that dominates every x of rank 1 but not y1 displaces them all,
    and they then sink one rank per front while each y moves up beside
    them.  Deleting y1 instead moves each y up one rank past the xs."""
    big = 10_000.0
    return [
        [s(f"x{chr(97 + c)}{j}", j - (1 + c / 100) - 1 / j, big + j + c / 100) for c in range(columns)]
        + [s(f"y{j}", j, j)]
        for j in range(1, k + 1)
    ]


@pytest.mark.parametrize("approach", APPROACHES)
def test_insert_cascade_kernel_calls_are_all_counted(monkeypatch, approach):
    k = 6
    fronts = _column_ladder(k)
    fs = FrontSet(2, [list(front) for front in fronts])
    assert validate(fs) == []
    probe = s("probe", -2, 10_000.5)
    calls, widths = _audit_kernel(monkeypatch)
    c = Counter()
    APPROACHES[approach].insert(fs, probe, c)
    assert fs.k == k + 1  # the displaced pair crossed every rank below the first
    assert widths == [2]
    assert calls[0] == c.pair_compares
    assert same_partition(fs, full_sort([sol for front in fronts for sol in front] + [probe]))


@pytest.mark.parametrize("approach", APPROACHES)
def test_worst_case_insert_kernel_calls(monkeypatch, approach):
    pop, probe = gen_worst_two_front(100)
    n1 = worst_split(100).sizes[0]
    fs = FrontSet(2, [pop[:n1], pop[n1:]])
    calls, widths = _audit_kernel(monkeypatch)
    c = Counter()
    APPROACHES[approach].insert(fs, probe, c)
    assert widths == [50]
    assert calls[0] == c.pair_compares
    if approach == "linear":
        assert (calls[0], c.pair_compares) == (2501, 2501)


@pytest.mark.parametrize("approach", APPROACHES)
def test_delete_cascade_kernel_calls_are_all_counted(monkeypatch, approach):
    k = 50
    xs, ys = _two_wide_ladder(k)
    fs = FrontSet(2, [[xs[j], ys[j]] for j in range(k)])
    calls, widths = _audit_kernel(monkeypatch)
    c = Counter()
    APPROACHES[approach].delete(fs, xs[0], c)
    assert fs.level_ids()[-1] == {f"y{k}"}  # the cascade reached the last rank
    assert widths == [1]
    assert calls[0] == c.pair_compares


@pytest.mark.parametrize("approach", APPROACHES)
def test_worst_case_delete_kernel_calls_take_the_block_path(monkeypatch, approach):
    pop, _ = gen_worst_two_front(100)
    n1 = worst_split(100).sizes[0]
    fs = FrontSet(2, [pop[:n1], pop[n1:]])
    calls, widths = _audit_kernel(monkeypatch)
    blocks = []
    audited = ndfronts.core._dominated_cols

    def numpy_path(a, b):
        blocks.append((a.shape[1], b.shape[1]))
        return audited(a, b)

    monkeypatch.setattr(ndfronts.core, "_dominated_cols", numpy_path)
    c = Counter()
    APPROACHES[approach].delete(fs, pop[n1 - 1], c)
    # the whole lower front is one block against the survivors of the upper one
    assert blocks == [(n1 - 1, 100 - n1)]
    assert widths == [n1 - 1]
    assert calls[0] == c.pair_compares
    if approach == "linear":
        assert c.pair_compares == 2501
    assert same_partition(fs, full_sort(pop[: n1 - 1] + pop[n1:]))


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("op", ["insert", "delete"])
def test_only_a_delete_cascade_goes_through_update_delete(monkeypatch, approach, op):
    # the tracer's update_delete span must time deletes only
    k = 6
    fronts = _column_ladder(k)
    fs = FrontSet(2, [list(front) for front in fronts])
    entered = []  # the rank update_delete is called with, per call
    entry = ndfronts.linear.update_delete

    def counted(*args):
        entered.append(args[1])
        return entry(*args)

    for module in (ndfronts.linear, ndfronts.dbst):
        monkeypatch.setattr(module, "update_delete", counted)
    started = []  # the rank each cascade starts from
    cascade = ndfronts.linear._cascade
    monkeypatch.setattr(ndfronts.linear, "_cascade", lambda *args: started.append(args[1]) or cascade(*args))
    if op == "insert":
        APPROACHES[approach].insert(fs, s("probe", -2, 10_000.5), Counter())  # displaces both x of rank 1
        assert fs.k == k + 1
        assert (started, entered) == ([2], [])
    else:
        APPROACHES[approach].delete(fs, fronts[0][-1], Counter())  # y1: each y moves up one rank
        assert fs.level_ids()[-1] == {"xa6", "xb6"}
        assert (started, entered) == ([1], [1])
    assert validate(fs) == []


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("op", ["insert", "delete"])
def test_a_cascade_builds_each_fronts_columns_at_most_once(monkeypatch, approach, op):
    # x chains and one y: every cascade block is columns x (columns + 1), past
    # the unrolled M = 2 path onto the numpy one, but far below the record width
    k = 50
    columns = math.isqrt(ndfronts.core._BLOCK_MAX_PAIRS_M2)
    assert columns * (columns + 1) > ndfronts.core._BLOCK_MAX_PAIRS_M2
    fronts = _column_ladder(k, columns)
    fs = FrontSet(2, [list(front) for front in fronts])
    pop = [sol for front in fronts for sol in front]
    builds = []  # the ids of every array core._cols builds from tuples
    build = ndfronts.core._cols

    def recorded(sols, m):
        builds.append([sol.id for sol in sols])
        return build(sols, m)

    monkeypatch.setattr(ndfronts.core, "_cols", recorded)
    calls, _ = _audit_kernel(monkeypatch)
    c = Counter()
    if op == "insert":
        probe = s("probe", -2, 10_000.5)  # displaces every x of rank 1
        APPROACHES[approach].insert(fs, probe, c)
        assert fs.k == k + 1 and fs.level_ids()[-1] == {f"x{chr(97 + col)}{k}" for col in range(columns)}
        pop.append(probe)
    else:
        APPROACHES[approach].delete(fs, fronts[0][-1], c)
        assert fs.level_ids()[-1] == {f"x{chr(97 + col)}{k}" for col in range(columns)}
        pop.remove(fronts[0][-1])
    # a step's survivors are the next step's group: their columns are carried
    built = [sol_id for ids in builds for sol_id in ids]
    assert built and len(built) == len(set(built))
    assert len(builds) <= k
    assert calls[0] == c.pair_compares
    assert same_partition(fs, full_sort(pop))


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_a_cascade_rejects_a_front_with_compensating_m_members(op):
    fs = FrontSet(3, [[s(f"{name}{i}", i + x, 12 - i + x, x) for i in range(12)] for name, x in (("t", 0), ("b", 0.5))])
    # an M=2 and an M=4 member: their lengths sum to what two M=3 members' would
    fs.fronts[1][1] = s("two", 1.5, 11.5)
    fs.fronts[1][2] = s("four", 2.5, 10.5, 0.5, 0.5)
    c = Counter()
    with pytest.raises(DimensionMismatchError):
        if op == "delete":
            update_delete(fs, 1, c)  # a 12 x 12 block
        else:
            # three new solutions above the edited front: a 3 x 12 block
            update_insert(fs, [s(f"n{i}", i + 0.25, 12.25 - i, 0.25) for i in range(3)], 2, c)
    assert c.pair_compares == 0


CROSSOVER = ndfronts.core._SCAN_MIN_WIDTH
WIDE = CROSSOVER + 20


def _three_wide_fronts():
    """Three antidiagonals of WIDE members; ``b{i}`` is dominated only by
    ``t{i}`` and ``c{i}`` only by ``b{i}``."""
    return [
        [s(f"{name}{i}", i + shift, WIDE - i + shift) for i in range(WIDE)]
        for name, shift in (("t", 0.0), ("b", 0.5), ("c", 1.0))
    ]


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize(
    "probe",
    [
        s("dominating", WIDE // 2 - 0.25, WIDE - WIDE // 2 - 0.25),  # displaces t{WIDE//2}: a cascade
        s("non-dominated", -1.0, WIDE + 10.0),  # joins the first front after a full scan of it
        s("dominated", WIDE + 5.0, WIDE + 5.0),  # below every front
        s("middle", 3.25, WIDE - 2.75),  # below t3, above b3: a cascade from rank 2
    ],
    ids=lambda probe: probe.id,
)
def test_wide_front_insert_kernel_calls_are_all_counted(monkeypatch, approach, probe):
    fronts = _three_wide_fronts()
    fs = FrontSet(2, [list(front) for front in fronts])
    calls, _ = _audit_kernel(monkeypatch)
    scans = []
    audited = ndfronts.linear._scan_columns

    def numpy_scan(cols, ids, probe):
        scans.append(cols.shape[1])
        return audited(cols, ids, probe)

    monkeypatch.setattr(ndfronts.linear, "_scan_columns", numpy_scan)
    c = Counter()
    APPROACHES[approach].insert(fs, probe, c)
    assert scans and min(scans) >= WIDE
    assert calls[0] == c.pair_compares
    assert_columns_consistent(fs)
    assert same_partition(fs, full_sort([sol for front in fronts for sol in front] + [probe]))


def test_wide_front_scan_rejects_a_probe_of_another_m():
    fs = FrontSet(2, _three_wide_fronts()[:1])
    c = Counter()
    with pytest.raises(DimensionMismatchError):
        locate_sequential(fs, Solution("p", (1.0, 2.0, 3.0)), c)
    assert c.pair_compares == 0


@pytest.mark.parametrize("approach", APPROACHES)
def test_narrow_front_scan_rejects_a_probe_of_another_m(approach):
    fs = fs_of([s("a", 1, 5), s("b", 2, 4), s("c", 3, 3)], [s("d", 4, 4)])
    c = Counter()
    with pytest.raises(DimensionMismatchError):
        APPROACHES[approach].lookup(fs, Solution("b", (2.0, 4.0, 0.0)), c)
    assert c.pair_compares == 0


@pytest.mark.parametrize("find_id", [True, False])
@pytest.mark.parametrize(
    "probe, odd",
    [
        ((4.5, 1.5), (3.0, 3.0, 3.0)),
        ((4.5, 1.5, 0.0), (3.0, 3.0)),
        ((4.5, 1.5, 0.0), (3.0, 3.0, 0.0, 0.0)),
        ((4.5, 1.5, 0.0, 0.0), (3.0, 3.0, 0.0)),
        ((4.5, 1.5, 0.0, 0.0, 0.0), (3.0, 3.0)),
    ],
    ids=["m2-meets-m3", "m3-meets-m2", "m3-meets-m4", "m4-meets-m3", "m5-meets-m2"],
)
def test_narrow_front_scan_rejects_an_odd_m_member_and_charges_nothing(probe, odd, find_id):
    # the probe is non-dominated with the first two members of rank 3, so the
    # scan reaches the hand-edited third; ranks 1 and 2 each hold a member
    # non-dominated with the probe, then one dominating it
    m = len(probe)
    pad = (0.0,) * (m - 2)
    above = [[Solution(f"u{r}", (r / 4 - 1, r / 4 + 10, *pad)), Solution(f"d{r}", (r / 4, r / 4, *pad))] for r in range(2)]
    fs = FrontSet(m, above + [[Solution(f"s{i}", (float(i), 6.0 - i, *pad)) for i in range(1, 5)]])
    fs.fronts[2][2] = Solution("odd", odd)
    message = rf"^cannot compare 'p' \(M={m}\) with 'odd' \(M={len(odd)}\)$"
    for lo in (1, 2, 3):
        c = Counter()
        with pytest.raises(DimensionMismatchError, match=message):
            ndfronts.linear._first_witness(fs, Solution("p", probe), lo, 3, c, find_id)
        assert c.pair_compares == 2 * (3 - lo)  # two pairs for each rank lo..2, none for rank 3


def _loop_scan(front, probe, counter, find_id):
    """The sequential front scan, the reference for every scan of one front.
    It calls this module's binding of ``dom_nature``, which
    :func:`_audit_kernel` leaves unwrapped."""
    for pos, sol in enumerate(front, 1):
        nat = dom_nature(probe, sol, counter)
        if nat != 0 or (find_id and sol.id == probe.id):
            return nat, pos
    return 0, 0


@pytest.mark.parametrize("find_id", [True, False])
@pytest.mark.parametrize("m", [2, 3])
def test_unrolled_scan_matches_the_dom_nature_loop_on_a_tie_grid(m, find_id):
    # every vector over {-0.0, 0.0, 1.0}^M is a member; each rotation of the
    # front puts another one first, so every probe meets every member at
    # position 1, and the probe's id, when stored, sits at a moving position
    grid = [Solution(f"s{i}", vec) for i, vec in enumerate(itertools.product([-0.0, 0.0, 1.0], repeat=m))]
    n = len(grid)
    for r in range(n):
        front = grid[r:] + grid[:r]
        fs = FrontSet(m, [front])
        assert fs._columns(front) is None  # narrow: the member-by-member scan
        for i, member in enumerate(grid):
            for pid in ("absent", grid[(r + i) % n].id):
                probe = Solution(pid, member.objectives)
                want_counter, got_counter = Counter(), Counter()
                want = _loop_scan(front, probe, want_counter, find_id)
                got = ndfronts.linear._first_witness(fs, probe, 1, 1, got_counter, find_id)
                assert got == (want[0], 1, want[1]), (probe, r)
                assert got_counter.pair_compares == want_counter.pair_compares


@pytest.mark.parametrize("find_id", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_rank_loop_matches_the_dom_nature_loop_rank_by_rank(monkeypatch, m, find_id):
    # a stack of subsets of the tie grid over {-0.0, 0.0, 1.0}^M, with a front
    # of the whole grid repeated past the record width at rank 3, so a run of
    # ranks reads a record mid-run; the scan only reads the fronts, so they
    # need not be a valid partition
    rng = random.Random(m)
    grid = list(itertools.product([-0.0, 0.0, 1.0], repeat=m))
    narrow = [rng.sample(grid, rng.randrange(3, len(grid))) for _ in range(4)]
    wide = grid * -(-CROSSOVER // len(grid))
    stack = [[Solution(f"r{r}-{i}", vec) for i, vec in enumerate(front)] for r, front in enumerate(narrow[:2] + [wide] + narrow[2:], 1)]
    fs = FrontSet(m, stack)
    assert [fs._columns(front) is not None for front in fs.fronts] == [False, False, True, False, False]
    wide_scans = []
    scan = ndfronts.linear._scan_columns
    monkeypatch.setattr(ndfronts.linear, "_scan_columns", lambda *args: wide_scans.append(args[0].shape[1]) or scan(*args))
    k = fs.k
    vectors = grid[:: max(1, len(grid) // 27)] + [(2.0,) * m]  # the last is dominated by every front
    reached = set()  # (lo, the rank the run stopped at) for each run the record decided or passed
    for vec in vectors:
        for pid in ("absent", "r3-5", "r4-1"):
            probe = Solution(pid, vec)
            for lo in range(1, k + 1):
                for hi in range(lo, k + 1):
                    want_counter, got_counter = Counter(), Counter()
                    nat, pos = -1, 0
                    for rank in range(lo, hi + 1):
                        nat, pos = _loop_scan(fs.fronts[rank - 1], probe, want_counter, find_id)
                        if nat != -1:
                            break
                    del wide_scans[:]
                    got = ndfronts.linear._first_witness(fs, probe, lo, hi, got_counter, find_id)
                    assert got == (nat, rank, pos), (probe, lo, hi)
                    assert got_counter.pair_compares == want_counter.pair_compares, (probe, lo, hi)
                    assert len(wide_scans) == (lo <= 3 <= rank)
                    if wide_scans:
                        reached.add((lo, rank))
    assert {(1, 3), (1, 4), (1, 5)} <= reached  # the record decided a run, and runs passed it


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 4),
    st.sampled_from([1, 7, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, WIDE + 17]),
    st.sampled_from(["grid", "line"]),
    st.integers(0, 2**32),
    st.sampled_from(["absent", "present", "member"]),
    st.booleans(),
)
def test_wide_front_scan_matches_the_dom_nature_loop(m, n, shape, seed, probe_kind, find_id):
    rng = random.Random(seed)
    zero = lambda: rng.choice([0.0, -0.0])  # noqa: E731
    if shape == "grid":  # ties and dominance everywhere, so witnesses come early
        grid = [-0.0, 0.0, 1.0, 2.0]
        vecs = [tuple(rng.choice(grid) for _ in range(m)) for _ in range(n)]
        probe_vec = tuple(rng.choice(grid) for _ in range(m))
    else:  # an antichain: no witness, so only an id match or the end stops the scan
        vecs = [(float(i), float(n - i), *(zero() for _ in range(m - 2))) for i in range(n)]
        x = rng.randrange(2 * n + 1) / 2  # a member's vector when whole
        probe_vec = (x, n - x, *(zero() for _ in range(m - 2)))
    front = [Solution(f"s{i}", vec) for i, vec in enumerate(vecs)]
    target = rng.randrange(n)
    if probe_kind == "member":  # the stored solution itself
        probe = front[target]
    else:
        probe = Solution(f"s{target}" if probe_kind == "present" else "absent", probe_vec)
    fs = FrontSet(m, [front])
    want_counter, got_counter = Counter(), Counter()
    nat, pos = _loop_scan(front, probe, want_counter, find_id)
    assert ndfronts.linear._first_witness(fs, probe, 1, 1, got_counter, find_id) == (nat, 1, pos)
    assert got_counter.pair_compares == want_counter.pair_compares


@pytest.mark.parametrize("approach", APPROACHES)
def test_library_edits_of_a_wide_front_are_seen_by_its_scans(approach):
    fronts = _three_wide_fronts()
    fs = FrontSet(2, [list(front) for front in fronts])
    ops = APPROACHES[approach]
    assert ops.lookup(fs, fronts[0][5], Counter()) == Position(1, 6)  # builds the array
    assert fs.fronts[0].buf is not None
    ops.delete(fs, fronts[0][7], Counter())  # a removed member: b7 and c7 move up
    ops.insert(fs, s("r", 3.5, WIDE - 3.5), Counter())  # a new one, above b3 and b4
    assert fs.fronts[0].buf is not None and validate(fs) == []
    fresh = FrontSet(2, [list(front) for front in fs.fronts])
    for sol in (fs.fronts[0][-1], fronts[0][3], fronts[0][7], fronts[1][7], fronts[0][WIDE - 1], fronts[1][40]):
        got, want = Counter(), Counter()
        assert ops.lookup(fs, sol, got) == ops.lookup(fresh, sol, want)
        assert got.pair_compares == want.pair_compares
    for sol in (s("n1", 2.25, WIDE - 1.75), s("n2", 30.25, WIDE - 30.25), s("n3", -1.0, WIDE + 10.0)):
        got, want = Counter(), Counter()
        ops.insert(fs, sol, got)
        ops.insert(fresh, sol, want)
        assert got.pair_compares == want.pair_compares
        assert [[x.id for x in front] for front in fs.fronts] == [[x.id for x in front] for front in fresh.fronts]
    assert_columns_consistent(fs)


@pytest.mark.parametrize("approach", APPROACHES)
def test_a_record_moved_by_a_cascade_after_library_edits_matches_its_fronts(approach):
    fronts = _three_wide_fronts()
    fs = FrontSet(2, [list(front) for front in fronts])
    ops = APPROACHES[approach]
    for f_index, front in enumerate(fronts, 1):
        assert ops.lookup(fs, front[0], Counter()) == Position(f_index, 1)  # builds the arrays
    assert all(front.buf is not None for front in fs.fronts)
    # b100 leaves and e takes its place in rank 2: below t100, above c100
    ops.delete(fs, fronts[1][100], Counter())
    edit = s("e", 100.5, WIDE - 99.6)
    ops.insert(fs, edit, Counter())
    assert ops.lookup(fs, edit, Counter()).f_index == 2
    assert_columns_consistent(fs)
    # displaces t60 alone: the cascade splits every record on its way down
    ops.insert(fs, s("n", 59.9, WIDE - 60.1), Counter())
    assert_columns_consistent(fs)
    assert validate(fs) == []
    assert same_partition(fs, full_sort(list(fs.solutions())))
    fresh = FrontSet(2, [list(front) for front in fs.fronts])
    for sol in list(fs.solutions()):
        got, want = Counter(), Counter()
        assert ops.lookup(fs, sol, got) == ops.lookup(fresh, sol, want)
        assert got.pair_compares == want.pair_compares


def _wide_cascade(approach, op):
    """The three wide fronts with every record built, and the cascade ``op``
    to run on them: an insert whose probe displaces 115 members of the first
    front, or a delete from it.  Either way each cascade block tests 115
    members against a whole wide front."""
    fronts = _three_wide_fronts()
    fs = FrontSet(2, [list(front) for front in fronts])
    ops = APPROACHES[approach]
    for f_index, front in enumerate(fronts, 1):
        assert ops.lookup(fs, front[0], Counter()) == Position(f_index, 1)  # builds the arrays
    if op == "insert":
        probe = s("n", 0.5, 0.5)  # dominates every t but t0
        return fs, lambda: ops.insert(fs, probe, Counter()), lambda pop: pop + [probe]
    target = fronts[0][5]
    return fs, lambda: ops.delete(fs, target, Counter()), lambda pop: [sol for sol in pop if sol is not target]


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("op", ["insert", "delete"])
def test_wide_cascade_blocks_read_the_records(monkeypatch, approach, op):
    fs, run, _ = _wide_cascade(approach, op)
    blocks = []
    audited = ndfronts.core._dominated_cols

    def numpy_path(a, b):
        # a record's slice shares its buffer; an array built from tuples is new
        read = [any(np.shares_memory(side, front.buf) for front in fs.fronts if front.buf is not None) for side in (a, b)]
        blocks.append((a.shape[1], b.shape[1], *read))
        return audited(a, b)

    monkeypatch.setattr(ndfronts.core, "_dominated_cols", numpy_path)
    run()
    cascade = [(WIDE - 1, WIDE, True, True)] * 2
    # an insert's dom_set tail is the record's slice after the witness t1
    assert blocks == ([(1, WIDE - 2, False, True)] + cascade if op == "insert" else cascade)
    assert_columns_consistent(fs)


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("op", ["insert", "delete"])
@pytest.mark.parametrize(
    "f_index, member",
    [
        (0, s("e", 99.9, WIDE - 100.1)),  # non-dominated with t and above b100 alone
        (1, s("e", 100.5, WIDE - 99.6)),  # below t100 and above b100 and c100
    ],
    ids=["first-front", "second-front"],
)
def test_a_cascade_after_a_library_edit_of_a_wide_front_ends_sorted(approach, op, f_index, member):
    fs, run, apply = _wide_cascade(approach, op)
    ops = APPROACHES[approach]
    # member 100 of the front leaves and ``member`` joins it, both through the library
    ops.delete(fs, fs.fronts[f_index][100], Counter())
    ops.insert(fs, member, Counter())
    assert any(sol is member for sol in fs.fronts[f_index])
    assert fs.fronts[f_index].buf is not None
    want = full_sort(apply(list(fs.solutions())))
    run()
    assert same_partition(fs, want)
    assert_columns_consistent(fs)


def test_a_delete_cascade_reads_the_record_remove_left_of_its_upper_front():
    fs, _, _ = _wide_cascade("linear", "delete")  # every record built
    assert fs.remove(1, 6)  # t5 leaves its front's record too, so b5 is no longer dominated
    assert fs.fronts[0].buf is not None
    want = full_sort(list(fs.solutions()))
    update_delete(fs, 1, Counter())
    assert same_partition(fs, want)
    assert_columns_consistent(fs)


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
            # deletes find their target by id; levels are compared below as
            # multisets of vectors (tests/test_stateful.py compares ids)
            victim = live.pop(rng.randrange(len(live)))
            delete(fs, victim, "sequential", Counter())
        got = [sorted(sol.objectives for sol in front) for front in fs.fronts]
        want = [
            sorted(sol.objectives for sol in front)
            for front in full_sort(live, 2).fronts
        ]
        assert got == want
        assert validate(fs) == []
