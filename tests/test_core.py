"""Dominance primitives, the comparison counter, and front-set validation."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ndfronts import (
    Counter,
    DimensionMismatchError,
    DomRelation,
    DuplicateIdError,
    FrontSet,
    Solution,
    check_dom,
    core,
    dom_nature,
    full_sort,
    validate,
)
from tests.conftest import TWELVE_LEVELS, assert_columns_consistent, s

vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=5
)
pair_vectors = st.integers(min_value=2, max_value=5).flatmap(
    lambda m: st.tuples(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=m, max_size=m),
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=m, max_size=m),
    )
)


def test_dom_nature_strict_dominance():
    c = Counter()
    assert dom_nature(s("a", 1, 1), s("b", 2, 2), c) == 1
    assert dom_nature(s("b", 2, 2), s("a", 1, 1), c) == -1


def test_dom_nature_tradeoff_is_non_dominated():
    assert dom_nature(s("a", 1, 3), s("b", 2, 1), Counter()) == 0


def test_dom_nature_identical_vectors_cannot_dominate():
    assert dom_nature(s("a", 5, 5), s("b", 5, 5), Counter()) == 0


def test_dom_nature_weak_improvement_dominates():
    # equal in one coordinate, strictly better in the other
    assert dom_nature(s("a", 1, 2), s("b", 1, 3), Counter()) == 1


def test_check_dom_identical():
    assert check_dom(s("a", 1, 2), s("b", 1, 2), Counter()) is DomRelation.IDENTICAL


def test_check_dom_dominates():
    assert check_dom(s("a", 1, 2), s("b", 3, 2), Counter()) is DomRelation.DOMINATES


def test_check_dom_non_dominated():
    assert check_dom(s("a", 2, 1), s("b", 1, 2), Counter()) is DomRelation.NON_DOMINATED


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        dom_nature(s("a", 1, 2), Solution("b", (1, 2, 3)), Counter())
    with pytest.raises(DimensionMismatchError):
        check_dom(s("a", 1, 2), Solution("b", (1, 2, 3)), Counter())


def test_solution_rejects_bad_vectors():
    with pytest.raises(ValueError):
        Solution("a", (1.0,))
    with pytest.raises(ValueError):
        Solution("a", (1.0, math.inf))
    with pytest.raises(ValueError):
        Solution("a", (1.0, math.nan))


@given(pair_vectors)
def test_antisymmetry(pair):
    va, vb = pair
    a, b = Solution("a", tuple(va)), Solution("b", tuple(vb))
    c = Counter()
    assert dom_nature(a, b, c) == -dom_nature(b, a, c)


@given(pair_vectors)
def test_check_dom_consistent_with_dom_nature(pair):
    va, vb = pair
    a, b = Solution("a", tuple(va)), Solution("b", tuple(vb))
    c = Counter()
    nat = dom_nature(a, b, c)
    rel = check_dom(a, b, c)
    if nat == 1:
        assert rel is DomRelation.DOMINATES
    elif nat == -1:
        assert rel is DomRelation.DOMINATED_BY
    else:
        assert rel in (DomRelation.NON_DOMINATED, DomRelation.IDENTICAL)
    if rel is DomRelation.IDENTICAL:
        assert tuple(va) == tuple(vb)


@given(st.integers(min_value=0, max_value=200))
def test_counter_exactness(t):
    c = Counter()
    a, b = s("a", 1, 2), s("b", 2, 1)
    for _ in range(t):
        dom_nature(a, b, c)
    assert c.pair_compares == t
    c.reset()
    assert c.pair_compares == 0


# -0.0 and 0.0 compare equal; the small grid makes identical vectors common
grid_values = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])


@st.composite
def grid_blocks(draw):
    """Two lists of grid solutions with one M in {2, 3, 5}; up to 12 x 12, so
    blocks fall on both sides of the numpy crossover, empty ones included."""
    m = draw(st.sampled_from([2, 3, 5]))
    side = st.lists(st.tuples(*[grid_values] * m), max_size=12)
    peers = [Solution(f"p{i}", vec) for i, vec in enumerate(draw(side))]
    members = [Solution(f"q{j}", vec) for j, vec in enumerate(draw(side))]
    return peers, members


@given(grid_blocks())
def test_dominated_equals_dom_nature_pair_by_pair(block):
    peers, members = block
    c = Counter()
    with mock.patch.object(core, "_dominated_cols", wraps=core._dominated_cols) as numpy_path:
        mask = core._dominated(peers, members, c, None, None)[0]
    pairs = len(peers) * len(members)
    assert c.pair_compares == pairs
    assert numpy_path.called == (pairs >= core._BLOCK_MIN_PAIRS)
    assert mask.dtype == bool and mask.shape == (len(members),)
    scratch = Counter()
    assert mask.tolist() == [any(dom_nature(p, q, scratch) == 1 for p in peers) for q in members]


@pytest.mark.parametrize("width", [1, core._BLOCK_MIN_PAIRS])
def test_dominated_dimension_mismatch_counts_nothing(width):
    members = [s(f"q{j}", j, -j) for j in range(width)] + [Solution("odd", (1, 2, 3))]
    c = Counter()
    with pytest.raises(DimensionMismatchError):
        core._dominated([s("p", 0, 0)], members, c, None, None)
    with pytest.raises(DimensionMismatchError):
        core._dominated([Solution("odd", (1, 2, 3)), s("p", 0, 0)], members[:-1], c, None, None)
    assert c.pair_compares == 0


def _record_of(side: list[Solution], m: int):
    return core._Columns.of(side, m)


@given(grid_blocks(), st.sampled_from(["peers", "members", "both"]))
def test_dominated_reads_record_columns_exactly_as_tuples(block, given_side):
    peers, members = block
    m = next((sol.m for sol in peers + members), 2)
    recs = [
        _record_of(peers, m) if given_side != "members" else None,
        _record_of(members, m) if given_side != "peers" else None,
    ]
    peer_cols, member_cols = (None if rec is None else rec.cols for rec in recs)
    want_counter, got_counter = Counter(), Counter()
    want = core._dominated(peers, members, want_counter, None, None)[0]
    with mock.patch.object(core, "_dominated_cols", wraps=core._dominated_cols) as numpy_path:
        got = core._dominated(peers, members, got_counter, peer_cols, member_cols)[0]
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert got_counter.pair_compares == want_counter.pair_compares == len(peers) * len(members)
    if numpy_path.called:  # a side given as columns is read, not rebuilt
        for arg, rec in zip(numpy_path.call_args.args, recs):
            assert rec is None or np.shares_memory(arg, rec.buf)


def test_dominated_checks_a_columns_side_by_its_shape():
    members = [s(f"q{j}", j, -j) for j in range(core._BLOCK_MIN_PAIRS)]
    cols = _record_of(members, 2).cols
    odd = [Solution("odd", (1, 2, 3))]
    c = Counter()
    with pytest.raises(DimensionMismatchError):
        core._dominated(odd, members, c, None, cols)
    with pytest.raises(DimensionMismatchError):
        core._dominated(members, odd, c, cols, None)
    with pytest.raises(DimensionMismatchError):
        core._dominated(odd, members, c, _record_of(odd, 3).cols, cols)
    assert c.pair_compares == 0


def test_counter_counts_pairs_not_objectives():
    c = Counter()
    dom_nature(Solution("a", (1,) * 5), Solution("b", (2,) * 5), c)
    assert c.pair_compares == 1


def test_validate_accepts_five_level_layout(twelve_in_five_levels):
    fs = full_sort(twelve_in_five_levels)
    assert fs.level_ids() == TWELVE_LEVELS
    assert validate(fs) == []


def test_validate_flags_intra_front_dominance():
    fs = FrontSet(2, [[s("a", 1, 1), s("b", 2, 2)]])
    problems = validate(fs)
    assert len(problems) == 1
    assert "dominates" in problems[0]


def test_validate_flags_undominated_lower_front():
    fs = FrontSet(2, [[s("a", 5, 5)], [s("b", 1, 1)]])
    problems = validate(fs)
    assert len(problems) == 1
    assert "not dominated" in problems[0]


def test_validate_flags_empty_front_and_duplicate_id():
    fs = FrontSet(2, [[s("a", 1, 1)], []])
    fs.fronts.append([s("a", 2, 2)])  # construction rejects a repeated id; tampering does not
    problems = validate(fs)
    assert any("empty" in p for p in problems)
    assert any("duplicate" in p for p in problems)


def test_validate_empty_front_set_is_fine():
    assert validate(FrontSet(3)) == []


def test_validate_reports_objective_count_drift():
    fs = FrontSet(3, [[Solution("a", (1, 2, 3))]])
    fs.fronts[0].append(Solution("b", (1, 2)))
    problems = validate(fs)
    assert len(problems) == 1
    assert "M=2" in problems[0]


def test_front_set_copy_is_independent(twelve_in_five_levels):
    fs = full_sort(twelve_in_five_levels)
    clone = fs.copy()
    clone.fronts[0].pop()
    assert len(fs.fronts[0]) == 1
    assert len(fs) == 12


def test_front_set_copy_edits_leave_the_original_scans_alone():
    from ndfronts import APPROACHES

    wide = core._SCAN_MIN_WIDTH + 10
    top = [s(f"t{i}", i, wide - i) for i in range(wide)]
    below = [s(f"b{i}", i + 0.5, wide - i + 0.5) for i in range(wide)]
    fs = FrontSet(2, [top, below])
    probes = [top[0], top[40], top[-1], below[3], s("ghost", 7.5, wide - 7.5)]

    def answers(front_set):
        out = []
        for probe in probes:
            c = Counter()
            out.append((APPROACHES["linear"].lookup(front_set, probe, c), c.pair_compares))
        return out

    before = answers(fs)  # also builds the arrays of both fronts
    levels = [[sol.id for sol in front] for front in fs.fronts]
    clone = fs.copy()
    assert id(clone.fronts[0]) in clone._arrays and id(clone.fronts[1]) in clone._arrays
    assert_columns_consistent(clone)
    APPROACHES["linear"].delete(clone, top[1], Counter())  # shifts the clone's columns in place
    APPROACHES["linear"].insert(clone, s("n", 19.75, wide - 20.25), Counter())  # splits the clone's front 1
    clone.fronts[0][5] = s("edit", 5.25, wide - 5.25)
    clone.fronts[1].pop()
    assert answers(fs) == before
    assert [[sol.id for sol in front] for front in fs.fronts] == levels
    assert validate(fs) == []
    assert_columns_consistent(fs)
    assert_columns_consistent(clone)


def test_front_set_contains_and_len(twelve_in_five_levels):
    fs = full_sort(twelve_in_five_levels)
    assert "p7" in fs
    assert "nope" not in fs
    assert len(fs) == 12
    assert fs.k == 5


@pytest.mark.parametrize(
    "fronts, error",
    [
        ([[s("a", 1, 1)], [s("a", 2, 2)]], DuplicateIdError),
        ([[s("a", 1, 1)], [Solution("b", (2, 2, 2))]], DimensionMismatchError),
    ],
    ids=["duplicate-id", "wrong-m"],
)
def test_front_set_construction_rejects_bad_members(fronts, error):
    with pytest.raises(error):
        FrontSet(2, fronts)


@pytest.mark.parametrize("f_index, s_index", [(1, 0), (0, 1), (-1, 1), (3, 1), (2, -1), (2, 3)])
def test_front_set_remove_out_of_range_raises_and_removes_nothing(f_index, s_index):
    # 0 and negative indices must not wrap to the end of a list
    fs = FrontSet(2, [[s("a", 1, 1)], [s("b", 2, 3), s("c", 3, 2)]])
    with pytest.raises(IndexError):
        fs.remove(f_index, s_index)
    assert fs.level_ids() == [{"a"}, {"b", "c"}]
    assert all(sol_id in fs for sol_id in "abc")


def test_front_set_rejects_single_objective():
    with pytest.raises(ValueError):
        FrontSet(1)
