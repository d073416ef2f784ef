"""Binary-search navigation, tree-based insertion, and tree lookup."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ndfronts import (
    APPROACHES,
    ContractViolationError,
    Counter,
    FrontSet,
    Position,
    Solution,
    TreeVariant,
    core,
    delete,
    full_sort,
    gen_chain,
    gen_equal_fronts,
    insert_linear,
    insert_tree,
    locate_sequential,
    lookup_tree,
    navigate,
    same_partition,
    validate,
)
from tests.conftest import dominates, random_population, s

LEFT = TreeVariant.LEFT_BALANCED
RIGHT = TreeVariant.RIGHT_BALANCED


def chain_front_set(n):
    return FrontSet(2, [[sol] for sol in gen_chain(n)])


def staircase_front_set(rng, k, max_width):
    """k fronts with random widths; consecutive fronts totally dominated."""
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


# --- navigate ----------------------------------------------------------------

def test_navigate_on_no_fronts_and_tree_searches_on_one_front():
    c = Counter()
    for variant in (LEFT, RIGHT):
        assert navigate(FrontSet(2), s("n", 2, 2), variant, c) == []
    assert c.pair_compares == 0
    # at K = 1 each bisection order makes the sequential scan's single probe
    front = [s(f"a{i}", i, 6 - i) for i in range(1, 6)]

    def ids(fs):
        return [[sol.id for sol in f] for f in fs.fronts]

    for probe in (s("below", 9, 9), s("above", 0, 0), s("merges", 0.5, 6.5), s("splits", 2.5, 2.5)):
        want_fs, want = FrontSet(2, [list(front)]), Counter()
        insert_linear(want_fs, probe, want)
        for variant in (LEFT, RIGHT):
            got_fs, got = FrontSet(2, [list(front)]), Counter()
            insert_tree(got_fs, probe, variant, got)
            assert (ids(got_fs), got.pair_compares) == (ids(want_fs), want.pair_compares), (probe.id, variant)
    fs = FrontSet(2, [list(front)])
    for sol in front + [s("absent", 0.5, 6.5), s("dominated", 9, 9)]:
        want, got = Counter(), Counter()
        assert lookup_tree(fs, sol, got) == locate_sequential(fs, sol, want)
        assert got.pair_compares == want.pair_compares, sol.id


def test_navigate_left_visits_descending_right_spine():
    fs = chain_front_set(15)
    trace = navigate(fs, s("n", 16, 16), LEFT, Counter())
    assert [(nat, rank) for nat, rank, _ in trace] == [(-1, 8), (-1, 12), (-1, 14), (-1, 15)]


def test_navigate_right_single_comparison_best_case():
    # two fronts, the first holding one solution the probe dominates
    fs = FrontSet(2, [[s("x", 5, 5)], [s(f"y{i}", 5 + i, 16 - i) for i in range(1, 10)]])
    c = Counter()
    trace = navigate(fs, s("n", 1, 1), RIGHT, c)
    assert trace == [(1, 1, 1)]
    assert c.pair_compares == 1


def test_navigate_left_two_comparison_best_case():
    # three fronts sized 1, 1, n-2; the probe dominates fronts 1 and 2
    f3 = [s(f"z{i}", 6 + i, 20 - i) for i in range(1, 9)]
    fs = FrontSet(2, [[s("x1", 5, 5)], [s("x2", 6, 6)], f3])
    c = Counter()
    trace = navigate(fs, s("n", 1, 1), LEFT, c)
    assert trace == [(1, 2, 1), (1, 1, 1)]
    assert c.pair_compares == 2


def test_navigate_non_dominated_front_records_zero_witness():
    fs = FrontSet(2, [[s("a", 1, 1)], [s("b", 2, 6), s("c", 6, 2)]])
    trace = navigate(fs, s("n", 3, 3), LEFT, Counter())
    assert trace[0] == (0, 2, 0)


def test_navigate_rejects_an_order_that_is_not_a_bisection():
    # SEQUENTIAL is no bisection, so navigate has no midpoint rounding to give it
    fs = chain_front_set(6)
    c = Counter()
    with pytest.raises(ValueError, match="TreeVariant.SEQUENTIAL is not a bisection order"):
        navigate(fs, s("n", 8, 8), TreeVariant.SEQUENTIAL, c)
    with pytest.raises(ValueError, match="not a bisection order"):
        navigate(fs, s("n", 8, 8), "left", c)
    assert c.pair_compares == 0
    assert [rank for _, rank, _ in navigate(fs, s("n", 8, 8), LEFT, c)] == [4, 6]
    assert [rank for _, rank, _ in navigate(fs, s("n", 8, 8), RIGHT, c)] == [3, 5, 6]


def test_navigate_is_read_only_and_deterministic():
    fs = chain_front_set(31)
    probe = s("n", 7.5, 7.5)
    before = fs.level_ids()
    c1, c2 = Counter(), Counter()
    t1 = navigate(fs, probe, LEFT, c1)
    t2 = navigate(fs, probe, LEFT, c2)
    assert t1 == t2
    assert c1.pair_compares == c2.pair_compares
    assert fs.level_ids() == before


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 300), st.integers(1, 3))
def test_navigate_trace_bound(seed, k, width):
    rng = random.Random(seed)
    fs = staircase_front_set(rng, k, width)
    hi = (k + 1) * (width + 1)
    probe = Solution("n", (rng.uniform(0, hi + 2), rng.uniform(0, hi + 2)))
    # the rank insert_linear settles at: the first front with no member
    # dominating the probe, or a new last front
    target = next(
        (f for f, front in enumerate(fs.fronts, 1) if not any(dominates(sol, probe) for sol in front)),
        k + 1,
    )
    for variant in (LEFT, RIGHT):
        trace = navigate(fs, probe, variant, Counter())
        assert len(trace) <= math.floor(math.log2(k)) + 1
        settling = [rank for nat, rank, _ in trace if nat != -1]
        assert all(a > b for a, b in zip(settling, settling[1:]))
        assert (settling[-1] if settling else k + 1) == target


# --- insert_tree -------------------------------------------------------------

def test_insert_tree_chain_probe_dominated_everywhere():
    # the round-down tree walks its right spine: floor(log2 n) + 1 fronts
    fs = chain_front_set(100)
    c = Counter()
    insert_tree(fs, s("n", 101, 101), RIGHT, c)
    assert c.pair_compares == 7
    assert fs.k == 101
    assert fs.fronts[-1][0].id == "n"


def test_insert_tree_chain_left_variant_counts():
    # round-up tree: 6 fronts on the right spine for 100 fronts, 7 on the left
    fs = chain_front_set(100)
    c = Counter()
    insert_tree(fs, s("n", 101, 101), LEFT, c)
    assert c.pair_compares == 6
    fs = chain_front_set(100)
    c = Counter()
    insert_tree(fs, s("n", 0, 0), LEFT, c)
    assert c.pair_compares == 7
    assert fs.fronts[0][0].id == "n"


def test_insert_tree_empty_front_set_delegates():
    fs = FrontSet(2)
    insert_tree(fs, s("n", 1, 1), LEFT, Counter())
    assert fs.level_ids() == [{"n"}]
    assert "n" in fs


def test_insert_tree_single_front_delegates_to_linear_scan():
    pop = [s(f"a{i}", i, 51 - i) for i in range(1, 51)]
    for variant in (LEFT, RIGHT):
        fs = FrontSet(2, [list(pop)])
        c = Counter()
        insert_tree(fs, s("n", 0.5, 51.5), variant, c)
        assert c.pair_compares == 50
        assert fs.k == 1


def test_insert_tree_merges_on_non_dominated_leaf():
    fs = FrontSet(2, [[s("a", 1, 1)], [s("b", 2, 6), s("c", 6, 2)]])
    c = Counter()
    insert_tree(fs, s("n", 6, 6), LEFT, c)
    assert fs.level_ids() == [{"a"}, {"b", "c"}, {"n"}]


def test_insert_tree_mixed_trace_resolves_at_deepest_non_dominated_record():
    # dominated at front 2 after a non-dominated front 3: the trace ends in a
    # dominated record and the resolution falls back to the last differing pair
    chain = gen_chain(4)
    fs = FrontSet(2, [[sol] for sol in chain])
    probe = s("n", 2.5, 3.5)  # dominated by fronts 1-2, non-dominated with front 3
    c = Counter()
    trace = navigate(FrontSet(2, [[sol] for sol in chain]), probe, LEFT, Counter())
    assert [nat for nat, _, _ in trace] == [0, -1]
    insert_tree(fs, probe, LEFT, c)
    assert fs.level_ids()[2] == {"c3", "n"}
    assert same_partition(fs, full_sort(chain + [probe]))
    assert validate(fs) == []


@pytest.mark.parametrize("variant", [LEFT, RIGHT])
def test_insert_tree_sweeps_every_level_of_a_chain(variant):
    # probes aimed at every rank exercise each trace shape the navigation can
    # produce, including mixed traces resolved by the backward scan
    k = 64
    chain = gen_chain(k)
    for level in range(1, k + 1):
        for probe in (
            s("n", level - 0.3, level + 0.3),  # merges into the target rank
            s("n", level - 0.5, level - 0.5),  # displaces the target rank downward
        ):
            fs = FrontSet(2, [[sol] for sol in chain])
            insert_tree(fs, probe, variant, Counter())
            assert same_partition(fs, full_sort(chain + [probe])), (variant, level, probe)
            assert validate(fs) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 5))
def test_insert_tree_equals_insert_linear(seed, m):
    rng = random.Random(seed)
    pop = random_population(rng, rng.randint(3, 45), m, grid=7)
    probe = Solution("n", tuple(float(rng.randrange(7)) for _ in range(m)))
    base = full_sort(pop)
    want = full_sort(pop + [probe])
    for variant in (LEFT, RIGHT):
        fs = base.copy()
        insert_tree(fs, probe, variant, Counter())
        assert same_partition(fs, want)
        assert validate(fs) == []
    fs = base.copy()
    insert_linear(fs, probe, Counter())
    assert same_partition(fs, want)


def test_insert_tree_deterministic_counters():
    rng = random.Random(11)
    pop = random_population(rng, 60, 3)
    base = full_sort(pop)
    probe = Solution("n", (0.4, 0.5, 0.6))
    counts = []
    for _ in range(2):
        fs = base.copy()
        c = Counter()
        insert_tree(fs, probe, LEFT, c)
        counts.append(c.pair_compares)
    assert counts[0] == counts[1]


# --- lookup_tree -------------------------------------------------------------

def test_lookup_chain_of_100_costs_seven():
    chain = gen_chain(100)
    fs = FrontSet(2, [[sol] for sol in chain])
    c = Counter()
    assert lookup_tree(fs, chain[0], c) == Position(1, 1)
    assert c.pair_compares == 7


def test_lookup_equal_fronts_worst_case():
    pop = gen_equal_fronts(100, 10)
    fs = FrontSet(2, [pop[i * 10 : (i + 1) * 10] for i in range(10)])
    # front 1 is a deepest leaf of the rank tree over ten fronts; its last
    # solution costs the full leaf scan on top of the descent
    c = Counter()
    assert lookup_tree(fs, pop[9], c) == Position(1, 10)
    assert c.pair_compares == 3 + 10


def test_lookup_missing_solution_returns_none():
    pop = gen_equal_fronts(9, 3)
    fs = FrontSet(2, [pop[i * 3 : (i + 1) * 3] for i in range(3)])
    assert lookup_tree(fs, s("x", 0.25, 0.75), Counter()) is None


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("op", ["lookup", "delete"])
@pytest.mark.parametrize(
    "vec",
    [(0, 0), (9, 9), (0.5, 1.5), (1.5, 3)],
    ids=["dominating-all", "dominated-by-all", "in-another-front", "in-its-own-front"],
)
def test_a_stored_id_under_another_vector_is_a_contract_violation(approach, op, vec):
    # found means b's id under b's vector, so the search misses an id the set
    # holds, even where the vector steers it into b's own front: that is the
    # caller's error, not an absent id
    fs = FrontSet(2, [[s("a", 1, 1)], [s("b", 2, 2)]])
    before = [list(front) for front in fs.fronts]
    with pytest.raises(ContractViolationError, match="'b'"):
        getattr(APPROACHES[approach], op)(fs, s("b", *vec), Counter())
    assert fs.fronts == before and "b" in fs and validate(fs) == []


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("m, width", [(2, 8), (2, core._SCAN_MIN_WIDTH), (3, 8), (3, core._SCAN_MIN_WIDTH), (5, 8)])
def test_a_stored_id_steered_into_its_own_front_is_a_contract_violation(approach, m, width):
    # two anti-diagonals, the second one step worse; b sits mid-way along the
    # second, and the probe, between b and its right neighbour, lies on that
    # diagonal too: every member of rank 1 that dominates b dominates it, and
    # it is non-dominated with all of rank 2.  Narrow fronts at M = 2 and 3
    # run the unrolled member loops, the rest the numpy scan
    pad = (0.0,) * (m - 2)
    fs = FrontSet(m, [[Solution(f"r{r}-{i}", (i + r, width - i + r, *pad)) for i in range(width)] for r in (0, 1)])
    j = width // 2
    b = fs.fronts[1][j]
    assert validate(fs) == [] and APPROACHES[approach].lookup(fs, b, Counter()) == Position(2, j + 1)
    elsewhere = Solution(b.id, (j + 1.5, width - j + 0.5, *pad))
    before = [list(front) for front in fs.fronts]
    for op in ("lookup", "delete"):
        with pytest.raises(ContractViolationError, match=f"'{b.id}'"):
            getattr(APPROACHES[approach], op)(fs, elsewhere, Counter())
    assert fs.fronts == before and validate(fs) == []


def test_lookup_empty_front_set():
    assert lookup_tree(FrontSet(2), s("x", 1, 2), Counter()) is None


def test_lookup_dominated_at_last_rank_gives_up():
    # absent probe below the worst front: a dominated witness at the top of the
    # range puts the target's rank past it, so the search stops at one witness
    fs = FrontSet(2, [[s("a", 1, 1)], [s("b", 2, 2)]])
    c = Counter()
    assert lookup_tree(fs, s("x", 3, 3), c) is None
    assert c.pair_compares == 1


def test_lookup_single_front():
    front = [s("a", 1, 2), s("b", 2, 1)]
    fs = FrontSet(2, [front])
    assert lookup_tree(fs, front[1], Counter()) == Position(1, 2)


def test_lookup_single_front_extreme_costs():
    from ndfronts import gen_antichain, locate_sequential

    front = gen_antichain(50)
    fs = FrontSet(2, [front])
    for search in (lookup_tree, locate_sequential):
        c = Counter()
        assert search(fs, front[-1], c) == Position(1, 50)
        assert c.pair_compares == 50
        c = Counter()
        assert search(fs, front[0], c) == Position(1, 1)
        assert c.pair_compares == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_lookup_finds_every_stored_solution_on_random_instances(seed):
    rng = random.Random(seed)
    pop = random_population(rng, rng.randint(1, 50), rng.choice((2, 3)))
    fs = full_sort(pop)
    target = pop[rng.randrange(len(pop))]
    pos = lookup_tree(fs, target, Counter())
    assert pos is not None
    assert fs.fronts[pos.f_index - 1][pos.s_index - 1].objectives == target.objectives


# --- the approach table and the public wrappers ------------------------------

WRAPPERS = {
    "linear": (insert_linear, lambda fs, sol, c: delete(fs, sol, "sequential", c), locate_sequential),
    "ltree": (lambda fs, sol, c: insert_tree(fs, sol, LEFT, c), lambda fs, sol, c: delete(fs, sol, "tree", c), lookup_tree),
    "rtree": (lambda fs, sol, c: insert_tree(fs, sol, RIGHT, c), lambda fs, sol, c: delete(fs, sol, "tree", c), lookup_tree),
}


def test_cli_runs_the_package_table():
    import ndfronts
    import ndfronts.cli

    assert ndfronts.cli.APPROACHES is ndfronts.APPROACHES
    assert set(WRAPPERS) == set(APPROACHES)


@pytest.mark.parametrize("approach", list(WRAPPERS))
@pytest.mark.parametrize("seed, m, steps, max_live", [(0, 2, 150, 40), (1, 3, 150, 40), (2, 5, 800, 400)])
def test_public_wrappers_and_approach_rows_agree_step_by_step(approach, seed, m, steps, max_live):
    # the benchmark calls the wrappers and the CLI calls the rows; every step
    # must give the same count, lookup result and partition
    from ndfronts.cli import random_workload

    ops = dict(zip(("insert", "delete", "lookup"), WRAPPERS[approach]))
    row = APPROACHES[approach]
    via_wrappers, via_row = FrontSet(m), FrontSet(m)
    live, widest = {}, 0
    for num, step in enumerate(random_workload(seed, m, steps, max_live).steps, 1):
        sol = step.solution if step.op == "insert" else live[step.id]
        live[step.id] = sol
        got = []
        for fs, op in ((via_wrappers, ops[step.op]), (via_row, getattr(row, step.op))):
            c = Counter()
            got.append((op(fs, sol, c), c.pair_compares, [[p.id for p in front] for front in fs.fronts]))
        assert got[0] == got[1], (num, step.op)
        widest = max([widest] + [len(front) for front in via_row.fronts])
    assert widest >= core._SCAN_MIN_WIDTH or m < 5  # the M = 5 run scans records
