"""Linear-scan insertion, deletion, lookup, and their cascade procedures."""

from __future__ import annotations

import collections
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
    stays = dom_set(fs, fs.fronts[0], s("n", 2, 2), 4, c)  # an empty tail
    assert stays.dtype == bool and stays.tolist() == [True] * 3
    assert c.pair_compares == 0


def _dom_set_path(monkeypatch, fs):
    """Spy on the block paths of ``core._dominated``; returns the list of
    paths taken, named ``dom_nature``, ``unrolled``, ``numpy`` (columns
    built from tuples) or ``record`` (a slice of a front's record)."""
    taken = []
    core = ndfronts.core
    loop, unrolled, numpy_path = core.dom_nature, core._dominated_m2, core._dominated_cols

    def spy_loop(*args):
        taken.append("dom_nature")
        return loop(*args)

    def spy_unrolled(*args):
        taken.append("unrolled")
        return unrolled(*args)

    def spy_numpy(a, b):
        read = any(front.buf is not None and np.shares_memory(b, front.buf) for front in fs.fronts)
        taken.append("record" if read else "numpy")
        return numpy_path(a, b)

    monkeypatch.setattr(core, "dom_nature", spy_loop)
    monkeypatch.setattr(core, "_dominated_m2", spy_unrolled)
    monkeypatch.setattr(core, "_dominated_cols", spy_numpy)
    return taken


@pytest.mark.parametrize(
    "m, width, path",
    [
        (2, 1, "dom_nature"),
        (2, 3, "dom_nature"),
        (2, ndfronts.core._BLOCK_MIN_PAIRS - 1, "dom_nature"),
        (2, 40, "unrolled"),
        (2, ndfronts.core._SCAN_MIN_WIDTH - 1, "unrolled"),
        # at M >= 3 dom_set reads the front's record at every width
        (3, 40, "record"),
        (5, 40, "record"),
        # a front this wide has a record, so an M = 2 tail of more than 256
        # pairs, or of 200, is a slice of it: M = 2 blocks from tuples stop at 95
        (2, 120, "record"),
        (2, 200, "record"),
        (2, ndfronts.core._BLOCK_MAX_PAIRS_M2 + 1, "record"),
        (3, 120, "record"),
    ],
)
@pytest.mark.parametrize("twins_at", ["first", "middle", "last", "first-middle-last"])
def test_dom_set_keeps_a_member_equal_to_the_new_solution(monkeypatch, m, width, path, twins_at):
    # dom_set is public and may be handed a copy of one or several members:
    # its weak block hits them, on every path but the dom_nature loop, and
    # dom_set itself keeps them
    at = {"first": {0}, "middle": {width // 2}, "last": {width - 1}}.get(twins_at, {0, width // 2, width - 1})
    pad = (1.0,) * (m - 2)
    # an anti-diagonal, each point non-dominated with the twins' vector
    vec = (width / 2 + 0.75, width / 2 + 0.25) + pad
    front = [Solution(f"t{i}", vec) if i in at else s(f"x{i}", i + 1, width - i, *pad) for i in range(width)]
    fs = fs_of(front)
    assert validate(fs) == []
    taken = _dom_set_path(monkeypatch, fs)
    searched = []  # one entry per search of a block's hits for a twin
    search = ndfronts.linear.compress
    monkeypatch.setattr(ndfronts.linear, "compress", lambda *args: searched.append(args) or search(*args))
    for start in sorted({1, min(at) + 1}):
        c = Counter()
        taken.clear()
        del searched[:]
        stays = dom_set(fs, fs.fronts[0], Solution("new", vec), start, c)
        assert stays.dtype == bool and stays.tolist() == [True] * width
        assert c.pair_compares == width - start + 1
        tail_path = path if start == 1 else _tail_path(m, width - start + 1, path)
        assert set(taken) == {tail_path}
        # every path's hits are searched for a twin: the weak paths' hold the
        # tail's twins, and the floor's, strict, hold none
        assert len(searched) == 1
        tail_twins = sum(i >= start - 1 for i in at)
        assert sum(searched[0][1]) == (0 if tail_path == "dom_nature" else tail_twins)


def _tail_path(m: int, tail: int, path: str) -> str:
    """The path of a 1 x ``tail`` block on a front whose whole-width block takes ``path``."""
    if tail < ndfronts.core._BLOCK_MIN_PAIRS:
        return "dom_nature"
    if path == "record":
        return path
    return "unrolled" if m == 2 and tail <= ndfronts.core._BLOCK_MAX_PAIRS_M2 else "numpy"


@pytest.mark.parametrize("m, width", [(2, 10), (2, 40), (2, 200), (3, 40), (2, 120), (3, 120), (2, 300)])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_dom_set_matches_brute_force_filter(m, width, seed):
    # a front drawn with repeats from an integer anti-diagonal holds many
    # equal vectors, and the new solution, near the diagonal, may equal some
    # of them, dominate some or neither; widths reach every block path
    rng = random.Random(seed)
    diag = 6 * m
    points = [vec for vec in itertools.product(range(diag + 1), repeat=m) if sum(vec) == diag]
    fs = fs_of([Solution(f"x{i}", rng.choice(points)) for i in range(width)])
    front = fs.fronts[0]
    near = list(rng.choice(points))
    near[rng.randrange(m)] += rng.choice([-1, 0, 0, 1])
    new = Solution("n", tuple(near))
    start = rng.choice([1, 1, rng.randrange(1, width + 2)])
    stays = dom_set(fs, front, new, start, Counter())
    assert stays.dtype == bool
    assert stays.tolist() == [i < start - 1 or not dominates(new, p) for i, p in enumerate(front)]


# --- update_insert -----------------------------------------------------------

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


def test_update_insert_index_out_of_range():
    # only a rank with a front above it can hold a displaced set
    fs = fs_of([s("a", 1, 1)], [s("b", 2, 2)], [s("c", 3, 3)])
    for index in (1, 4, 0):
        c = Counter()
        with pytest.raises(IndexError):
            update_insert(fs, index, c)
        assert c.pair_compares == 0
    c = Counter()
    update_insert(fs, 3, c)  # a displaced last front: nothing below it
    assert c.pair_compares == 0
    assert fs.level_ids() == [{"a"}, {"b"}, {"c"}]


@pytest.mark.parametrize("m, grid", [(2, 6), (2, 30), (3, 4), (5, 3)])
def test_update_insert_on_a_set_as_settle_leaves_it_matches_full_sort(m, grid):
    # the insert's front scan and dom_set done by hand: the new solution
    # joins its front, the members it dominates there become the next front,
    # and update_insert must leave what an insert leaves, member order too.
    # Small grids make equal vectors common, also across fronts
    rng = random.Random(1000 * m + grid)
    cases = 0
    while cases < 40:
        pop = random_population(rng, rng.randrange(4, 30), m, grid=grid)
        new = Solution("n", tuple(float(rng.randrange(grid)) for _ in range(m)))
        before = full_sort(pop)
        rank = next(r for r, ids in enumerate(full_sort(pop + [new]).level_ids(), 1) if "n" in ids)
        if rank > before.k:
            continue
        front = before.fronts[rank - 1]
        displaced = [sol for sol in front if dominates(new, sol)]
        if not displaced:
            continue
        cases += 1
        kept = [sol for sol in front if sol not in displaced] + [new]
        fs = FrontSet(m, before.fronts[: rank - 1] + [kept, displaced] + before.fronts[rank:])
        update_insert(fs, rank + 1, Counter())
        assert same_partition(fs, full_sort(pop + [new]))
        assert validate(fs) == []
        inserted = full_sort(pop)
        insert_linear(inserted, new, Counter())
        assert [[sol.id for sol in f] for f in fs.fronts] == [[sol.id for sol in f] for f in inserted.fronts]


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
        def wrapper(fs, probe, lo, hi, counter):
            probed = fn(fs, probe, lo, hi, counter)
            reference = Counter()
            for front in fs.fronts[lo - 1 : probed[1]]:
                _loop_scan(front, probe, reference)
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
@pytest.mark.parametrize("op", ["insert", "shift", "delete"])
def test_only_an_insert_cascade_goes_through_update_insert(monkeypatch, approach, op):
    # the tracer's update_insert span must time insert cascades only
    k = 6
    fronts = _column_ladder(k)
    fs = FrontSet(2, [list(front) for front in fronts])
    entered = []  # the rank update_insert is called with, per call
    entry = ndfronts.linear.update_insert

    def counted(*args):
        entered.append(args[1])
        return entry(*args)

    monkeypatch.setattr(ndfronts.linear, "update_insert", counted)
    started = []  # the rank each cascade starts from
    cascade = ndfronts.linear._cascade
    monkeypatch.setattr(ndfronts.linear, "_cascade", lambda *args: started.append(args[1]) or cascade(*args))
    if op == "insert":
        APPROACHES[approach].insert(fs, s("probe", -2, 10_000.5), Counter())  # displaces both x of rank 1
        assert fs.k == k + 1
        assert (started, entered) == ([2], [2])
    elif op == "shift":
        APPROACHES[approach].insert(fs, s("probe", -100, -100), Counter())  # dominates all of rank 1
        assert fs.k == k + 1 and fs.level_ids()[0] == {"probe"}
        assert (started, entered) == ([], [])
    else:
        APPROACHES[approach].delete(fs, fronts[0][-1], Counter())  # y1: each y moves up one rank
        assert (started, entered) == ([1], [])
    assert validate(fs) == []


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("op", ["insert", "delete"])
def test_a_cascade_builds_each_fronts_columns_at_most_twice(monkeypatch, approach, op):
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
    # no front this narrow keeps a record at M = 2, so each step builds both
    # its sides from tuples: a step's survivors, built as its lower side, are
    # built again as the next step's upper side, and no solution a third time
    per_id = collections.Counter(sol_id for ids in builds for sol_id in ids)
    assert per_id and max(per_id.values()) <= 2
    assert len(builds) <= 2 * (k - 1)
    assert calls[0] == c.pair_compares
    assert same_partition(fs, full_sort(pop))


@pytest.mark.parametrize("approach", APPROACHES)
def test_a_second_delete_cascade_at_m3_builds_no_columns_from_tuples(monkeypatch, approach):
    # k fronts of `columns` chains, each chain's member dominating only its
    # own chain's member one rank down: deleting a rank-1 member promotes its
    # chain one rank all the way down, through every front, in blocks of
    # about columns x columns pairs on the numpy path.  At M = 3 the first
    # cascade builds each front's record, and the fronts keep them, narrow
    # as they are, so the second cascade over the same fronts builds none
    k, columns = 12, 8
    assert (columns - 1) * columns >= ndfronts.core._BLOCK_MIN_PAIRS and columns < ndfronts.core._SCAN_MIN_WIDTH
    fronts = [[s(f"c{c}r{r}", 2 * c + r, 2 * (columns - c) + r, r) for c in range(columns)] for r in range(k)]
    fs = FrontSet(3, fronts)
    assert validate(fs) == []
    pop = [sol for front in fronts for sol in front]
    builds = []  # the ids of every array core._cols builds from tuples
    build = ndfronts.core._cols

    def recorded(sols, m):
        builds.append([sol.id for sol in sols])
        return build(sols, m)

    monkeypatch.setattr(ndfronts.core, "_cols", recorded)
    calls, _ = _audit_kernel(monkeypatch)
    for n_deleted, c in enumerate((2, 5), 1):
        del builds[:]
        calls[0] = 0
        counter = Counter()
        APPROACHES[approach].delete(fs, fronts[0][c], counter)
        pop.remove(fronts[0][c])
        assert calls[0] == counter.pair_compares
        # the chain moved up one rank at every front, so the cascade ran through all of them
        assert fs.k == k and len(fs.fronts[-1]) == columns - n_deleted
        assert same_partition(fs, full_sort(pop))
        assert_columns_consistent(fs)
        assert all(front.buf is not None for front in fs.fronts)
        if n_deleted == 1:
            built = [sol_id for ids in builds for sol_id in ids]
            assert len(builds) == k and len(built) == len(set(built))  # each front once
        else:
            assert builds == []


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_a_cascade_rejects_a_front_with_compensating_m_members(op):
    top = [s(f"t{i}", i, 12 - i, 0) for i in range(12)]
    bottom = [s(f"b{i}", i + 0.5, 12.5 - i, 0.5) for i in range(12)]
    if op == "delete":
        fs = FrontSet(3, [top, bottom])
    else:
        # three solutions an insert displaced from the front above, as
        # _settle leaves them before their cascade
        fs = FrontSet(3, [top, [s(f"n{i}", i + 0.25, 12.25 - i, 0.25) for i in range(3)], bottom])
    # an M=2 and an M=4 member: their lengths sum to what two M=3 members' would
    fs.fronts[-1][1] = s("two", 1.5, 11.5)
    fs.fronts[-1][2] = s("four", 2.5, 10.5, 0.5, 0.5)
    c = Counter()
    with pytest.raises(DimensionMismatchError):
        if op == "delete":
            update_delete(fs, 1, c)  # a 12 x 12 block
        else:
            update_insert(fs, 2, c)  # a 3 x 12 block
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

    def numpy_scan(cols, *args):
        scans.append(cols.shape[1])
        return audited(cols, *args)

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
    # at M = 5 a narrow front is scanned in numpy too: a probe of a larger or
    # a smaller M is rejected before that front is charged, from rank 1 or 2
    narrow = FrontSet(
        5, [[Solution(f"{name}{i}", (i + d, 8.0 - i + d, 0.0, 0.0, 0.0)) for i in range(8)] for name, d in (("t", 0.0), ("b", 0.5))]
    )
    assert validate(narrow) == [] and max(map(len, narrow.fronts)) < CROSSOVER
    for objs in ((1.0, 2.0, 3.0, 4.0), (1.0, 2.0)):
        probe = Solution("p", objs)
        for lo in (1, 2):
            c = Counter()
            with pytest.raises(DimensionMismatchError, match=rf"^cannot compare 'p' \(M={len(objs)}\) with '[tb]0' \(M=5\)$"):
                ndfronts.linear._first_witness(narrow, probe, lo, 2, c)
            assert c.pair_compares == 0
        c = Counter()
        with pytest.raises(DimensionMismatchError):
            locate_sequential(narrow, probe, c)
        assert c.pair_compares == 0


@pytest.mark.parametrize("approach", APPROACHES)
def test_narrow_front_scan_rejects_a_probe_of_another_m(approach):
    fs = fs_of([s("a", 1, 5), s("b", 2, 4), s("c", 3, 3)], [s("d", 4, 4)])
    c = Counter()
    with pytest.raises(DimensionMismatchError):
        APPROACHES[approach].lookup(fs, Solution("b", (2.0, 4.0, 0.0)), c)
    assert c.pair_compares == 0


@pytest.mark.parametrize("pid", ["p", "s1"], ids=["absent-id", "stored-id"])
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
def test_narrow_front_scan_rejects_an_odd_m_member_and_charges_nothing(probe, odd, pid):
    # the probe is non-dominated with the first two members of rank 3, so the
    # scan reaches the hand-edited third, also when the probe carries the
    # first one's id under another vector; ranks 1 and 2 each hold a member
    # non-dominated with the probe, then one dominating it.  At M > 3 every
    # front is scanned through its record, and building rank 3's from its
    # members' tuples (core._cols) is what raises
    m = len(probe)
    pad = (0.0,) * (m - 2)
    above = [[Solution(f"u{r}", (r / 4 - 1, r / 4 + 10, *pad)), Solution(f"d{r}", (r / 4, r / 4, *pad))] for r in range(2)]
    fs = FrontSet(m, above + [[Solution(f"s{i}", (float(i), 6.0 - i, *pad)) for i in range(1, 5)]])
    fs.fronts[2][2] = Solution("odd", odd)
    if m > 3:
        message = rf"^solution 'odd' has M={len(odd)}, expected M={m}$"
    else:
        message = rf"^cannot compare '{pid}' \(M={m}\) with 'odd' \(M={len(odd)}\)$"
    for lo in (1, 2, 3):
        c = Counter()
        with pytest.raises(DimensionMismatchError, match=message):
            ndfronts.linear._first_witness(fs, Solution(pid, probe), lo, 3, c)
        assert c.pair_compares == 2 * (3 - lo)  # two pairs for each rank lo..2, none for rank 3


def _loop_scan(front, probe, counter):
    """The sequential front scan, the reference for every scan of one front:
    it stops at a dominance either way or at the probe itself, its id under
    its vector.  It calls this module's binding of ``dom_nature``, which
    :func:`_audit_kernel` leaves unwrapped."""
    for pos, sol in enumerate(front, 1):
        nat = dom_nature(probe, sol, counter)
        if nat != 0 or (sol.id == probe.id and sol.objectives == probe.objectives):
            return nat, pos
    return 0, 0


@pytest.mark.parametrize("pid_kind", ["absent", "member", "another-member"])
@pytest.mark.parametrize("m", [2, 3])
def test_unrolled_scan_matches_the_dom_nature_loop_on_a_tie_grid(monkeypatch, m, pid_kind):
    # every vector over {-0.0, 0.0, 1.0}^M is a member; each rotation of the
    # front puts another one first, so every probe meets every member at
    # position 1.  The probe takes each member's vector under an absent id,
    # under that member's id (the member itself, at a moving position), or
    # under the next member's id, a stored id under another vector (or under
    # an equal one, where -0.0 meets 0.0), which stops the scan only as the
    # member itself would
    grid = [Solution(f"s{i}", vec) for i, vec in enumerate(itertools.product([-0.0, 0.0, 1.0], repeat=m))]
    n = len(grid)
    monkeypatch.setattr(ndfronts.linear, "_scan_columns", None)  # narrow: never the numpy scan
    for r in range(n):
        fs = FrontSet(m, [grid[r:] + grid[:r]])
        front = fs.fronts[0]
        # a narrow front keeps a record once read at M = 3, and still takes the member-by-member scan
        assert (fs._columns(front) is not None) == (m > 2) == (front.buf is not None)
        for i, member in enumerate(grid):
            pid = {"absent": "absent", "member": member.id, "another-member": grid[(i + 1) % n].id}[pid_kind]
            probe = Solution(pid, member.objectives)
            want_counter, got_counter = Counter(), Counter()
            want = _loop_scan(front, probe, want_counter)
            got = ndfronts.linear._first_witness(fs, probe, 1, 1, got_counter)
            assert got == (want[0], 1, want[1]), (probe, r)
            assert got_counter.pair_compares == want_counter.pair_compares


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_rank_loop_matches_the_dom_nature_loop_rank_by_rank(monkeypatch, m):
    # a stack of antichains drawn from the tie grid over {-0.0, 0.0, 1.0}^M,
    # each front one coordinate-sum level of it, duplicates allowed, so
    # every front keeps tied vectors: narrower than the record width, with a
    # front past it at rank 3, so a run of ranks reads a record mid-run.  The
    # numpy scan relies on each front being an antichain, and on nothing
    # else: the stack need not be a valid partition
    rng = random.Random(m)
    grid = list(itertools.product([-0.0, 0.0, 1.0], repeat=m))
    levels = [[vec for vec in grid if sum(vec) == total] for total in range(m + 1)]
    narrow = [rng.choices(rng.choice(levels), k=rng.randrange(3, min(len(grid), CROSSOVER))) for _ in range(4)]
    wide = rng.choices(levels[m // 2], k=CROSSOVER + 7)
    stack = [[Solution(f"r{r}-{i}", vec) for i, vec in enumerate(front)] for r, front in enumerate(narrow[:2] + [wide] + narrow[2:], 1)]
    assert all(dom_nature(a, b, Counter()) == 0 for front in stack for a, b in itertools.combinations(front, 2))
    fs = FrontSet(m, stack)
    # at M >= 3 the narrow fronts keep a record once read too; at M = 3 only
    # the wide one is scanned in numpy, and at M > 3 every front is
    assert [fs._columns(front) is not None for front in fs.fronts] == [m > 2, m > 2, True, m > 2, m > 2]
    assert [front.buf is not None for front in fs.fronts] == [m > 2, m > 2, True, m > 2, m > 2]
    numpy_scans = []  # the width of each front _scan_columns tests
    scan = ndfronts.linear._scan_columns
    monkeypatch.setattr(ndfronts.linear, "_scan_columns", lambda *args: numpy_scans.append(args[0].shape[1]) or scan(*args))
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
                        nat, pos = _loop_scan(fs.fronts[rank - 1], probe, want_counter)
                        if nat != -1:
                            break
                    del numpy_scans[:]
                    got = ndfronts.linear._first_witness(fs, probe, lo, hi, got_counter)
                    assert got == (nat, rank, pos), (probe, lo, hi)
                    assert got_counter.pair_compares == want_counter.pair_compares, (probe, lo, hi)
                    # the path rule, for every front the run passed or stopped at
                    in_numpy = range(lo, rank + 1) if m > 3 else [3] if lo <= 3 <= rank else []
                    assert numpy_scans == [len(fs.fronts[r - 1]) for r in in_numpy], (probe, lo, hi)
                    if lo <= 3 <= rank:
                        reached.add((lo, rank))
    assert {(1, 3), (1, 4), (1, 5)} <= reached  # the record decided a run, and runs passed it


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 4),
    st.sampled_from([1, 7, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, WIDE + 17]),
    st.sampled_from(["grid", "line"]),
    st.integers(0, 2**32),
    st.sampled_from(["absent", "present", "member"]),
)
def test_wide_front_scan_matches_the_dom_nature_loop(m, n, shape, seed, probe_kind):
    rng = random.Random(seed)
    zero = lambda: rng.choice([0.0, -0.0])  # noqa: E731
    if shape == "grid":  # one coordinate-sum level of a tie grid, duplicates allowed: an antichain full of ties
        grid = [-0.0, 0.0, 1.0, 2.0]
        total = rng.randrange(2 * m + 1)
        level = [vec for vec in itertools.product(grid, repeat=m) if sum(vec) == total]
        vecs = rng.choices(level, k=n)
        # a member's vector, or any vector of the grid, so witnesses come either way
        probe_vec = rng.choice([rng.choice(vecs), tuple(rng.choice(grid) for _ in range(m))])
    else:  # a line of distinct vectors: no witness, so only the probe itself or the end stops the scan
        vecs = [(float(i), float(n - i), *(zero() for _ in range(m - 2))) for i in range(n)]
        x = rng.randrange(2 * n + 1) / 2  # a member's vector when whole
        probe_vec = (x, n - x, *(zero() for _ in range(m - 2)))
    front = [Solution(f"s{i}", vec) for i, vec in enumerate(vecs)]
    target = rng.randrange(n)
    if probe_kind == "member":  # the stored solution itself
        probe = front[target]
    else:  # "present" is a stored id under another vector, unless the draw is its own
        probe = Solution(f"s{target}" if probe_kind == "present" else "absent", probe_vec)
    fs = FrontSet(m, [front])
    want_counter, got_counter = Counter(), Counter()
    nat, pos = _loop_scan(front, probe, want_counter)
    assert ndfronts.linear._first_witness(fs, probe, 1, 1, got_counter) == (nat, 1, pos)
    assert got_counter.pair_compares == want_counter.pair_compares


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.lists(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0]), min_size=5, max_size=5), min_size=1, max_size=40),
    st.lists(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0]), min_size=5, max_size=5), max_size=6),
)
def test_numpy_scan_matches_the_dom_nature_loop_on_every_front_of_a_sorted_population(m, rows, fresh):
    # tie-heavy integer populations, partitioned by full_sort: every front is
    # an antichain, which is all the numpy scan relies on.  Each front's
    # record is scanned for every member under its own id, for every
    # member's vector under the next solution's id, and for fresh vectors
    # under an absent id; at M = 2 a narrow front's array is built as a
    # record would be
    pop = [Solution(f"p{i}", row[:m]) for i, row in enumerate(rows)]
    fs = full_sort(pop, m)
    probes = pop + [Solution(pop[(i + 1) % len(pop)].id, sol.objectives) for i, sol in enumerate(pop)]
    probes += [Solution("fresh", row[:m]) for row in fresh]
    for front in fs.fronts:
        cols = fs._columns(front)
        if cols is None:
            cols = ndfronts.core._cols(front, m)
        for probe in probes:
            col = np.array(probe.objectives)[:, None]
            assert ndfronts.linear._scan_columns(cols, front, col, probe) == _loop_scan(front, probe, Counter()), probe


def test_a_five_objective_search_builds_one_probe_column(monkeypatch):
    # at M > 3 every front is scanned in numpy; a probe below all four fronts
    # passes each, and every scan gets the column built at the first
    fs = FrontSet(
        5,
        [[Solution(f"{name}{i}", (i + d, 8.0 - i + d, 0.0, 0.0, 0.0)) for i in range(8)] for name, d in (("t", 0.0), ("b", 0.5), ("c", 1.0), ("e", 1.5))],
    )
    assert validate(fs) == []
    columns = []
    scan = ndfronts.linear._scan_columns
    monkeypatch.setattr(ndfronts.linear, "_scan_columns", lambda cols, front, col, probe: columns.append(col) or scan(cols, front, col, probe))
    probe = Solution("p", (20.0, 20.0, 1.0, 1.0, 1.0))
    c = Counter()
    APPROACHES["linear"].insert(fs, probe, c)
    assert len(columns) == 4 and all(col is columns[0] for col in columns)
    assert columns[0].shape == (5, 1) and columns[0].ravel().tolist() == list(probe.objectives)
    assert c.pair_compares == 4 and fs.k == 5 and fs.fronts[-1] == [probe]  # each front's first member decides


def test_a_narrow_two_objective_search_builds_no_probe_column(monkeypatch):
    # narrow fronts at M = 2 are scanned member by member: with linear's numpy
    # gone, a search through three of them still gives the same answers
    fs = FrontSet(2, [[s(f"{name}{i}", i + d, 8 - i + d) for i in range(8)] for name, d in (("t", 0), ("b", 0.5), ("c", 1))])
    probes = [s("below", 20, 20), s("middle", 3.25, 5.25), s("b3", 3.5, 5.5), s("above", -1, -1)]
    want = [ndfronts.linear._first_witness(fs, probe, 1, fs.k, Counter()) for probe in probes]
    monkeypatch.setattr(ndfronts.linear, "np", None)  # any numpy call in the search raises
    assert [ndfronts.linear._first_witness(fs, probe, 1, fs.k, Counter()) for probe in probes] == want
    assert want == [(-1, 3, 1), (1, 2, 4), (0, 2, 4), (1, 1, 1)]


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
