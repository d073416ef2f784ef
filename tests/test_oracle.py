"""The from-scratch sorting referee."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ndfronts import Counter, DimensionMismatchError, DuplicateIdError, FrontSet, Solution, full_sort, same_partition, validate
from tests.conftest import TWELVE_LEVELS, random_population, reference_level_ids, s


def test_five_level_example(twelve_in_five_levels):
    fs = full_sort(twelve_in_five_levels)
    assert fs.level_ids() == TWELVE_LEVELS


def test_empty_population():
    fs = full_sort([], m=3)
    assert fs.k == 0
    assert len(fs) == 0
    assert fs.m == 3


def test_full_sort_rejects_a_population_of_another_or_mixed_m():
    with pytest.raises(DimensionMismatchError, match=r"^population has M=2, expected M=3$"):
        full_sort([s("a", 1, 2)], m=3)
    with pytest.raises(DimensionMismatchError, match=r"^population mixes objective counts$"):
        full_sort([s("a", 1, 2), s("b", 1, 2, 3)])


def test_antichain_is_single_front():
    pop = [s(f"a{i}", i, 10 - i) for i in range(10)]
    fs = full_sort(pop)
    assert fs.k == 1
    assert len(fs.fronts[0]) == 10


def test_keeps_input_order_within_fronts():
    pop = [s("x", 1, 9), s("y", 5, 5), s("z", 9, 1)]
    fs = full_sort(pop)
    assert [sol.id for sol in fs.fronts[0]] == ["x", "y", "z"]


def test_rejects_duplicate_ids():
    with pytest.raises(DuplicateIdError):
        full_sort([s("a", 1, 1), s("a", 2, 2)])


def test_counter_counts_each_unordered_pair_once():
    c = Counter()
    full_sort([s(f"a{i}", i, 10 - i) for i in range(10)], counter=c)
    assert c.pair_compares == 10 * 9 // 2


def test_same_partition_reflexive_and_order_sensitive(twelve_in_five_levels):
    fs = full_sort(twelve_in_five_levels)
    assert same_partition(fs, fs)
    swapped = FrontSet(fs.m, [fs.fronts[1], fs.fronts[0], *fs.fronts[2:]])
    assert not same_partition(fs, swapped)


def test_same_partition_ignores_order_within_front():
    a = FrontSet(2, [[s("x", 1, 2), s("y", 2, 1)]])
    b = FrontSet(2, [[s("y", 2, 1), s("x", 1, 2)]])
    assert same_partition(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 40), st.integers(2, 4))
def test_matches_pure_python_reference(seed, n, m):
    pop = random_population(random.Random(seed), n, m, grid=6)
    fs = full_sort(pop)
    assert fs.level_ids() == reference_level_ids(pop)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40), st.integers(2, 4))
def test_output_is_valid_and_idempotent(seed, n, m):
    pop = random_population(random.Random(seed), n, m)
    fs = full_sort(pop)
    assert validate(fs) == []
    again = full_sort(list(fs.solutions()))
    assert same_partition(fs, again)
