"""Worst-case count formulas and the deterministic scenario builders."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ndfronts import (
    Counter,
    FrontProfile,
    FrontSet,
    full_sort,
    gen_antichain,
    gen_chain,
    gen_equal_fronts,
    gen_two_front,
    gen_worst_two_front,
    insert_linear,
    insert_tree,
    max_comp_left_tree,
    max_comp_linear,
    max_comp_right_tree,
    probe_path_cost,
    same_partition,
    Solution,
    validate,
    worst_split,
    TreeVariant,
)


# --- closed forms ------------------------------------------------------------

def test_max_comp_linear_values():
    assert max_comp_linear(FrontProfile((51, 49))) == 2501       # == 100^2/4 + 1
    assert max_comp_linear(FrontProfile((51, 50))) == 2551       # == ceil(101^2/4)
    assert max_comp_linear(FrontProfile((77,))) == 77            # no cascade


def test_max_comp_left_tree_values():
    assert max_comp_left_tree(FrontProfile((51, 49))) == 2550    # == 100^2/4 + 100/2
    assert max_comp_left_tree(FrontProfile((52, 50))) == 2652
    assert max_comp_left_tree(FrontProfile((51, 50))) == 2601    # == (101^2 + 2*101 + 1)/4
    assert max_comp_left_tree(FrontProfile((77,))) == 77


def test_probe_path_cost_values():
    # round-up path: ranks 3, 2, 1 of either profile; round-down: 3, 1 and 2, 1
    assert probe_path_cost(FrontProfile((3, 1, 4, 1, 5)), round_up=True) == 8
    assert probe_path_cost(FrontProfile((3, 1, 4, 1, 5)), round_up=False) == 7
    assert probe_path_cost(FrontProfile((2, 7, 1, 8)), round_up=True) == 10
    assert probe_path_cost(FrontProfile((2, 7, 1, 8)), round_up=False) == 9


def test_max_comp_right_tree_values():
    assert max_comp_right_tree(FrontProfile((51, 49))) == 2501
    assert max_comp_right_tree(FrontProfile((51, 50))) == 2551
    assert max_comp_right_tree(FrontProfile((77,))) == 77


def test_profile_validation():
    with pytest.raises(ValueError):
        FrontProfile(())
    with pytest.raises(ValueError):
        FrontProfile((3, 0))
    p = FrontProfile((4, 2))
    assert p.n == 6
    assert p.k == 2


def test_worst_split():
    assert worst_split(100).sizes == (51, 49)
    assert worst_split(101).sizes == (51, 50)
    with pytest.raises(ValueError):
        worst_split(3)


# --- generators --------------------------------------------------------------

def test_gen_chain_shape():
    pop = gen_chain(3)
    assert [sol.objectives for sol in pop] == [(1, 1), (2, 2), (3, 3)]
    assert full_sort(gen_chain(17)).k == 17
    assert full_sort(gen_chain(1)).k == 1


def test_gen_antichain_shape():
    pop = gen_antichain(9, 3)
    fs = full_sort(pop)
    assert fs.k == 1
    assert len(fs.fronts[0]) == 9
    assert full_sort(gen_antichain(1, 2)).k == 1


def test_gen_equal_fronts_shape():
    fs = full_sort(gen_equal_fronts(12, 4))
    assert [len(front) for front in fs.fronts] == [3, 3, 3, 3]
    assert validate(fs) == []
    # boundary front counts collapse to the chain and antichain shapes
    assert full_sort(gen_equal_fronts(5, 5)).k == 5
    assert full_sort(gen_equal_fronts(6, 1)).k == 1
    with pytest.raises(ValueError):
        gen_equal_fronts(10, 3)


@pytest.mark.parametrize(
    "generate, message",
    [
        (lambda: gen_chain(-1), "n must be non-negative"),
        (lambda: gen_antichain(-1), "n must be non-negative"),
        (lambda: gen_equal_fronts(4, 0), "k must be positive"),
        (lambda: gen_two_front(0, 1), "both fronts need at least one solution"),
    ],
    ids=["chain", "antichain", "equal-fronts", "two-front"],
)
def test_generators_reject_impossible_sizes(generate, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate()


def test_gen_equal_fronts_total_domination_between_neighbours():
    pop = gen_equal_fronts(12, 3)
    fronts = [pop[i * 4 : (i + 1) * 4] for i in range(3)]
    for above, below in zip(fronts, fronts[1:]):
        for p in above:
            for q in below:
                assert all(x < y for x, y in zip(p.objectives, q.objectives))


def test_gen_worst_two_front_structure():
    for n in (10, 11):
        pop, probe = gen_worst_two_front(n)
        fs = full_sort(pop)
        assert tuple(len(front) for front in fs.fronts) == worst_split(n).sizes
        assert validate(fs) == []
        assert probe.id not in fs
    with pytest.raises(ValueError):
        gen_worst_two_front(3)


def test_generators_support_more_objectives():
    for pop in (gen_chain(6, 4), gen_antichain(6, 4), gen_equal_fronts(6, 2, 4)):
        assert all(sol.m == 4 for sol in pop)
        assert validate(full_sort(pop)) == []
    pop, probe = gen_worst_two_front(8, 4)
    assert probe.m == 4
    assert validate(full_sort(pop)) == []


# --- formula vs instrumented runs -------------------------------------------

def measured_insert_cost(pop, probe, n1, variant=None):
    fs = FrontSet(probe.m, [pop[:n1], pop[n1:]])
    c = Counter()
    if variant is None:
        insert_linear(fs, probe, c)
    else:
        insert_tree(fs, probe, variant, c)
    assert same_partition(fs, full_sort(pop + [probe]))
    return c.pair_compares


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(2, 4))
def test_two_front_instances_realize_the_formulas_pointwise(n1, n2, m):
    pop, probe = gen_two_front(n1, n2, m)
    profile = FrontProfile((n1, n2))
    assert measured_insert_cost(pop, probe, n1) == max_comp_linear(profile)
    assert measured_insert_cost(pop, probe, n1, TreeVariant.LEFT_BALANCED) == max_comp_left_tree(profile)
    assert measured_insert_cost(pop, probe, n1, TreeVariant.RIGHT_BALANCED) == max_comp_right_tree(profile)


def test_formulas_bound_only_inserts_that_settle_at_rank_1():
    # profile (1, 5): the probe is dominated by front 1 and dominates all of
    # front 2, so it settles at rank 2 and displaces the whole of front 2
    pop = [Solution("x", (0.0, 0.0))] + [Solution(f"y{i}", (2.0 + i, 7.0 - i)) for i in range(1, 6)]
    probe = Solution("probe", (1.0, 1.0))
    profile = FrontProfile((1, 5))
    measured = (
        measured_insert_cost(pop, probe, 1),
        measured_insert_cost(pop, probe, 1, TreeVariant.LEFT_BALANCED),
        measured_insert_cost(pop, probe, 1, TreeVariant.RIGHT_BALANCED),
    )
    formulas = (max_comp_linear(profile), max_comp_left_tree(profile), max_comp_right_tree(profile))
    assert measured == (6, 6, 6)
    assert formulas == (1, 6, 1)


def test_worst_two_front_hits_the_optimum_counts():
    pop, probe = gen_worst_two_front(100)
    n1 = worst_split(100).sizes[0]
    assert measured_insert_cost(pop, probe, n1) == 2501
    assert measured_insert_cost(pop, probe, n1, TreeVariant.LEFT_BALANCED) == 2550
    assert measured_insert_cost(pop, probe, n1, TreeVariant.RIGHT_BALANCED) == 2501
    pop, probe = gen_worst_two_front(101)
    assert measured_insert_cost(pop, probe, 51) == 2551


# --- the two-front split maximizes the linear cascade -------------------------

def exhaustive_best(n):
    """Plain depth-first walk over every front-size profile of n solutions."""
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


def test_exhaustive_walk_agrees_with_formula_on_small_profiles():
    for n in range(3, 13):
        best_val, profiles = exhaustive_best(n)
        for profile in profiles:
            assert max_comp_linear(FrontProfile(profile)) == best_val


def test_two_front_split_attains_small_maxima():
    for n in range(4, 15):
        best_val, profiles = exhaustive_best(n)
        assert max_comp_linear(worst_split(n)) == best_val
        assert worst_split(n).sizes in profiles
        if n % 2 == 0:
            assert profiles == [worst_split(n).sizes]
