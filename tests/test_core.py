"""Dominance primitives, the comparison counter, and front-set validation."""

from __future__ import annotations

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
    same_partition,
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
    m2, m3 = s("a", 1, 2), Solution("b", (1, 2, 3))
    c = Counter()
    for a, b in ((m2, m3), (m3, m2)):
        with pytest.raises(DimensionMismatchError):
            dom_nature(a, b, c)
        with pytest.raises(DimensionMismatchError):
            check_dom(a, b, c)
    assert c.pair_compares == 0


def _textbook_dominates(x: tuple[float, ...], y: tuple[float, ...]) -> bool:
    """x dominates y: no worse in every objective and better in some."""
    return all(p <= q for p, q in zip(x, y)) and any(p < q for p, q in zip(x, y))


# every ordered pair of a tie grid, at the unrolled M = 2 and the generic M;
# -0.0 and 0.0 tie, so a vector with a zero has an identical twin besides itself
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_dom_nature_follows_the_definition_on_a_tie_grid(m):
    grid = [Solution(f"v{i}", vec) for i, vec in enumerate(itertools.product([-0.0, 0.0, 1.0, 2.0], repeat=m))]
    c = Counter()
    for a in grid:
        for b in grid:
            want = _textbook_dominates(a.objectives, b.objectives) - _textbook_dominates(b.objectives, a.objectives)
            charged = c.pair_compares
            assert dom_nature(a, b, c) == want, (a, b)
            assert c.pair_compares == charged + 1


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


def _block_path(m: int, pairs: int) -> str:
    """The path a non-empty ``core._dominated`` block of ``pairs`` pairs takes
    when neither side comes as a record."""
    if pairs < core._BLOCK_MIN_PAIRS:
        return "dom_nature"
    return "sweep" if m == 2 else "numpy"


def _bools(mask) -> list:
    """``mask``, as ``core._dominated`` returns it (a list from its Python
    paths, an array from numpy), as a list, after checking that every
    element is a bool: a mask of ints or floats would compare equal."""
    got = list(mask)
    assert all(type(x) in (bool, np.bool_) for x in got), got
    return got


@st.composite
def grid_blocks(draw):
    """Two lists of grid solutions with one M in {2, 3, 4, 5}, every M the
    scan tests use; up to 12 x 12, and up to 20 x 20 at M = 2, so blocks
    fall on both sides of the floor, empty ones included, and M = 2 ones
    reach 400 pairs."""
    m = draw(st.sampled_from([2, 3, 4, 5]))
    width = 20 if m == 2 else 12
    side = st.lists(st.tuples(*[grid_values] * m), max_size=width)
    peers = [Solution(f"p{i}", vec) for i, vec in enumerate(draw(side))]
    members = [Solution(f"q{j}", vec) for j, vec in enumerate(draw(side))]
    return peers, members


@given(grid_blocks())
def test_dominated_equals_dom_nature_pair_by_pair(block):
    peers, members = block
    c = Counter()
    spies = {
        "dom_nature": mock.patch.object(core, "dom_nature", wraps=core.dom_nature),
        "sweep": mock.patch.object(core, "_dominated_m2", wraps=core._dominated_m2),
        "numpy": mock.patch.object(core, "_dominated_cols", wraps=core._dominated_cols),
    }
    with spies["dom_nature"] as loop, spies["sweep"] as sweep, spies["numpy"] as numpy_path:
        mask = core._dominated(peers, members, c, None, None)
    pairs = len(peers) * len(members)
    assert c.pair_compares == pairs
    m = (peers + members)[0].m if pairs else None
    taken = {"dom_nature": loop.called, "sweep": sweep.called, "numpy": numpy_path.called}
    assert taken == {path: bool(pairs) and path == _block_path(m, pairs) for path in taken}
    # perfbench's tracer divides by dom_nature calls: the loop makes one per
    # pair, and the other paths make none
    assert loop.call_count == (pairs if taken["dom_nature"] else 0)
    # the Python paths hand their list to FrontSet._move as it is
    assert isinstance(mask, np.ndarray) == taken["numpy"]
    # pair by pair a dominance, as dom_nature has it; a member equal to a peer,
    # which no caller hands a block, is hit on every path but the loop
    scratch = Counter()
    weak = not taken["dom_nature"]
    want = [
        any(dom_nature(p, q, scratch) == 1 or (weak and p.objectives == q.objectives) for p in peers) for q in members
    ]
    assert _bools(mask) == want


# -0.0 and 0.0 tie, so each vector here has an identical twin
TIE_GRID = [Solution(f"v{i}", vec) for i, vec in enumerate(itertools.product([-0.0, 0.0, 1.0], repeat=2))]


def test_sweep_block_matches_the_dom_nature_loop_on_a_tie_grid():
    # the grid against itself, 81 pairs at M = 2, takes the sweep and tests
    # weak dominance only: every member is hit, by its own vector at least
    c = Counter()
    with mock.patch.object(core, "_dominated_m2", wraps=core._dominated_m2) as sweep, mock.patch.object(
        core, "_dominated_cols", wraps=core._dominated_cols
    ) as numpy_path:
        mask = core._dominated(TIE_GRID, TIE_GRID, c, None, None)
    assert sweep.called and not numpy_path.called and isinstance(mask, list)
    assert c.pair_compares == 81
    assert _bools(mask) == [True] * len(TIE_GRID)
    scratch = Counter()
    # each peer on its own against every member it does not equal, so
    # every such pair's weak verdict shows
    for p in TIE_GRID:
        others = [q for q in TIE_GRID if q.objectives != p.objectives]
        want = [dom_nature(p, q, scratch) == 1 for q in others]
        assert core._dominated_m2([p.objectives], [q.objectives for q in others]) == want, p
    # the weak test alone counts an equal pair as a dominance, so it needs
    # the caller's promise that no member equals a peer
    assert core._dominated_m2([(0.0, 0.0)], [(-0.0, 0.0)]) == [True]
    assert core._dominated_cols(np.zeros((2, 1)), np.zeros((2, 1))).tolist() == [True]


# M = 2 tuples on the tie grid or anywhere in [-5, 5]; lists of them repeat
# vectors, come unsorted and hold tuples that dominate each other
sweep_pairs = st.tuples(*[grid_values | st.floats(-5, 5, allow_nan=False)] * 2)
# up to 95 x 95, the widest M = 2 block whose sides keep no record
sweep_sides = st.lists(sweep_pairs, max_size=core._SCAN_MIN_WIDTH - 1)


@given(sweep_sides, sweep_sides)
@example([(2.0, 2.0), (0.0, 3.0), (2.0, 2.0), (1.0, 1.0), (-0.0, 3.0)], [(1.0, 1.0), (0.0, 3.0), (3.0, 0.5), (2.0, 1.5)])
def test_sweep_answers_the_weak_rule_pair_by_pair(peer_objs, member_objs):
    want = [any(p0 <= q0 and p1 <= q1 for p0, p1 in peer_objs) for q0, q1 in member_objs]
    got = core._dominated_m2(peer_objs, member_objs)
    assert all(type(x) is bool for x in got) and got == want


@given(
    st.lists(sweep_pairs, min_size=6, max_size=core._SCAN_MIN_WIDTH - 1),
    st.lists(sweep_pairs, min_size=6, max_size=core._SCAN_MIN_WIDTH - 1),
    st.sampled_from(["peers", "members"]),
    st.sampled_from(["first", "middle", "last"]),
)
def test_sweep_block_rejects_a_tuple_of_another_m_before_counting(peer_objs, member_objs, side, at):
    # at least 36 pairs, so the block takes the sweep: whichever side the
    # odd tuple is on, and wherever, nothing is counted
    peers = [Solution(f"p{i}", vec) for i, vec in enumerate(peer_objs)]
    members = [Solution(f"q{j}", vec) for j, vec in enumerate(member_objs)]
    odd_side = peers if side == "peers" else members
    odd_side.insert({"first": 0, "middle": len(odd_side) // 2, "last": len(odd_side)}[at], Solution("odd", (1, 2, 3)))
    c = Counter()
    with mock.patch.object(core, "dom_nature", wraps=core.dom_nature) as loop, pytest.raises(DimensionMismatchError):
        core._dominated(peers, members, c, None, None)
    assert c.pair_compares == 0 and not loop.called


def _doubled_grid(m: int, values: list[float]) -> list[Solution]:
    """Every vector of the grid twice, under two ids, the twin with -0.0 for
    each 0.0: a population whose fronts are full of equal vectors."""
    grid = list(itertools.product(values, repeat=m))
    twins = [tuple(-0.0 if v == 0 else v for v in vec) for vec in grid]
    return [Solution(f"a{i}", vec) for i, vec in enumerate(grid)] + [Solution(f"b{i}", vec) for i, vec in enumerate(twins)]


@pytest.mark.parametrize("m, values", [(2, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), (3, [0.0, 1.0, 2.0, 3.0]), (5, [0.0, 1.0])])
def test_weak_blocks_match_strict_ones_on_adjacent_fronts_of_a_tie_grid(m, values):
    fs = full_sort(_doubled_grid(m, values), m)
    assert validate(fs) == []
    scratch = Counter()
    paths = set()
    for upper, lower in zip(fs.fronts, fs.fronts[1:]):
        # the fact a weak block relies on: adjacent fronts share no vector
        assert not {p.objectives for p in upper} & {q.objectives for q in lower}
        # pair by pair, each weak kernel's verdict is dom_nature's strict one
        objs, cols = [q.objectives for q in lower], core._cols(lower, m)
        for p in upper:
            want = [dom_nature(p, q, scratch) == 1 for q in lower]
            assert core._dominated_cols(core._cols([p], m), cols).tolist() == want, p
            if m == 2:
                assert core._dominated_m2([p.objectives], objs) == want, p
        # whole blocks, with members as tuples and as a record: the same mask and charge
        want = [any(dom_nature(p, q, scratch) == 1 for p in upper) for q in lower]
        for member_cols in (None, cols):
            c = Counter()
            with mock.patch.object(core, "_dominated_m2", wraps=core._dominated_m2) as sweep, mock.patch.object(
                core, "_dominated_cols", wraps=core._dominated_cols
            ) as numpy_path:
                assert _bools(core._dominated(upper, lower, c, None, member_cols)) == want
            assert c.pair_compares == len(upper) * len(lower)
            paths.update(path for path, spy in (("numpy", numpy_path), ("sweep", sweep)) if spy.called)
    # the weak paths were reached: the sweep at M = 2, and numpy at every M
    assert {"numpy"} | ({"sweep"} if m == 2 else set()) <= paths


# blocks of 1 x (width + 1) and 2 x width pairs both take the dom_nature
# loop, then the sweep twice, the second time at 257 and 512 pairs
@pytest.mark.parametrize("width", [1, core._BLOCK_MIN_PAIRS, 256])
def test_dominated_dimension_mismatch_counts_nothing(width):
    assert _block_path(2, width + 1) == _block_path(2, 2 * width)
    p, odd = s("p", 0, 0), Solution("odd", (1, 2, 3))
    members = [s(f"q{j}", j, -j) for j in range(width)]
    # an odd first member of either side fails the block's one check: the
    # same message on every path, and nothing counted
    for peers, block in (([p], [odd] + members), ([odd, p], members)):
        c = Counter()
        with pytest.raises(DimensionMismatchError) as err:
            core._dominated(peers, block, c, None, None)
        assert str(err.value) == str(core._mismatch(peers[0], block[0]))
        assert c.pair_compares == 0
    # an odd member further in, which no API call can hand a block, still
    # raises, though the floor has counted the pairs before it by then
    for peers, block in (([p], members + [odd]), ([p, odd], members)):
        with pytest.raises(DimensionMismatchError):
            core._dominated(peers, block, Counter(), None, None)


@pytest.mark.parametrize("n", [1, 4, 5, 60])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_cols_is_a_c_contiguous_array_of_the_members_columns(m, n):
    # a block's 3-D comparison reads a contiguous side several times faster
    # than a transposed view; one member comes from np.array, more from fromiter
    sols = [Solution(f"s{j}", [j * m + k for k in range(m)]) for j in range(n)]
    cols = core._cols(sols, m)
    assert cols.shape == (m, n) and cols.dtype == np.float64 and cols.flags.c_contiguous
    assert cols.T.tolist() == [list(sol.objectives) for sol in sols]


def _record_of(side: list[Solution], m: int, spare: int = 0) -> np.ndarray:
    """The record :meth:`FrontSet._columns` would hand out for ``side``: the
    first ``len(side)`` columns of a buffer with ``spare`` more, which hold
    -inf, a value that weakly dominates every member."""
    buf = np.full((m, len(side) + spare), -np.inf)
    buf[:, : len(side)] = core._cols(side, m)
    return buf[:, : len(side)]


# an M = 2 block of 64 pairs with a record on one side: numpy, not the sweep
M2_BLOCK = tuple([Solution(f"{tag}{i}", (float(i % 4), 3.0 - i % 4)) for i in range(8)] for tag in "pq")


@given(grid_blocks(), st.sampled_from(["peers", "members", "both"]))
@example(M2_BLOCK, "peers")
@example(M2_BLOCK, "members")
def test_dominated_reads_record_columns_exactly_as_tuples(block, given_side):
    # each record is a FrontSet-style view with spare columns of -inf past
    # its width: a kernel that read past the width would hit every member
    peers, members = block
    m = next((sol.m for sol in peers + members), 2)
    recs = [
        _record_of(peers, m, spare=3) if given_side != "members" else None,
        _record_of(members, m, spare=3) if given_side != "peers" else None,
    ]
    peer_cols, member_cols = recs
    want_counter, got_counter = Counter(), Counter()
    want = core._dominated(peers, members, want_counter, None, None)
    with mock.patch.object(core, "_dominated_cols", wraps=core._dominated_cols) as numpy_path:
        got = core._dominated(peers, members, got_counter, peer_cols, member_cols)
    assert _bools(got) == _bools(want)
    pairs = len(peers) * len(members)
    assert got_counter.pair_compares == want_counter.pair_compares == pairs
    # a block with either side given as columns reads them in numpy at any M
    assert numpy_path.called == (pairs >= core._BLOCK_MIN_PAIRS)
    if numpy_path.called:  # a side given as columns is read, not rebuilt
        for arg, rec in zip(numpy_path.call_args.args, recs):
            assert rec is None or np.shares_memory(arg, rec)


def test_dominated_with_columns_checks_the_first_members_m():
    # wide enough for the numpy path, the only one that reads columns; a
    # side given as columns is trusted, and the block's one check compares
    # the first member's M with the first peer's
    members = [s(f"q{j}", j, -j) for j in range(257)]
    cols = _record_of(members, 2)
    odd = [Solution("odd", (1, 2, 3))]
    c = Counter()
    with pytest.raises(DimensionMismatchError):
        core._dominated(odd, members, c, None, cols)
    with pytest.raises(DimensionMismatchError):
        core._dominated(members, odd, c, cols, None)
    with pytest.raises(DimensionMismatchError):
        core._dominated(odd, members, c, _record_of(odd, 3), cols)
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
    assert problems == ["front 1: 'a' dominates 'b' within one front"]
    # a later member dominating an earlier one: the dominator is named first there too
    fs = FrontSet(2, [[s("c", 3, 0), s("b", 2, 2), s("a", 1, 1)]])
    assert validate(fs) == ["front 1: 'a' dominates 'b' within one front"]


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
    assert clone.fronts[0].buf is not None and clone.fronts[1].buf is not None
    assert_columns_consistent(clone)
    ops = APPROACHES["linear"]
    ops.delete(clone, top[1], Counter())  # shifts the clone's columns in place
    ops.insert(clone, s("n", 19.75, wide - 20.25), Counter())  # splits the clone's front 1
    ops.delete(clone, below[-1], Counter())  # shifts the columns the split moved
    assert answers(fs) == before
    assert [[sol.id for sol in front] for front in fs.fronts] == levels
    assert validate(fs) == []
    assert validate(clone) == []
    assert_columns_consistent(fs)
    assert_columns_consistent(clone)


@pytest.mark.parametrize("edit", ["replaced-member", "popped-member", "appended-member"])
def test_validate_flags_a_direct_edit_of_a_wide_front_with_a_record(edit):
    # members are edited only through FrontSet; the scans trust the records,
    # so the checker is where an edit made behind their back shows up
    wide = core._SCAN_MIN_WIDTH + 10
    fs = FrontSet(2, [[s(f"{name}{i}", i + x, wide - i + x) for i in range(wide)] for name, x in (("t", 0), ("b", 0.5))])
    for front in fs.fronts:
        fs._columns(front)
    assert all(front.buf is not None for front in fs.fronts) and validate(fs) == []
    # each edit leaves a valid partition and keeps the id index in step, so
    # the record is all there is to flag
    if edit == "replaced-member":
        fs._ids.remove(fs.fronts[0][5].id)
        fs.admit(new := s("edit", 5.25, wide - 5.25))
        fs.fronts[0][5] = new
        want = "front 1: its record differs from its members' objectives"
    elif edit == "popped-member":  # a middle one: the record's live width follows the front's
        fs._ids.remove(fs.fronts[1].pop(50).id)
        want = "front 2: its record differs from its members' objectives"
    else:  # between b5 and b6, below t5
        fs.admit(new := s("edit", 5.75, wide - 4.75))
        fs.fronts[1].append(new)
        want = f"front 2: its record of {wide} columns is narrower than its {wide + 1} members"
    assert validate(fs) == [want]


def test_a_front_dropped_with_its_record_leaves_nothing_to_the_front_put_in_its_place():
    # the record leaves with its front, so a new front of the same width
    # starts without one, wherever the allocator puts it
    from ndfronts import APPROACHES

    wide = 100
    fs = FrontSet(2, [[s(f"t{i}", i, wide - i) for i in range(wide)]])
    ops = APPROACHES["linear"]
    assert ops.lookup(fs, fs.fronts[0][-1], Counter()) is not None  # builds the record
    assert fs.fronts[0].buf is not None
    fresh = [s(f"n{i}", i + 0.5, wide - i + 0.5) for i in range(wide)]
    fs.admit(*fresh)
    fs._ids -= {sol.id for sol in fs.fronts.pop(0)}  # a front dropped by hand leaves its ids indexed
    fs.fronts.insert(0, core.Front(fresh))
    assert fs.fronts[0].buf is None and validate(fs) == []
    ops.insert(fs, s("x", 50.25, 50.25), Counter())  # dominates n50, under no t
    assert validate(fs) == []
    assert_columns_consistent(fs)
    assert fs.level_ids() == full_sort(list(fs.solutions())).level_ids()


def test_a_plain_list_put_in_by_hand_is_copied_and_checked():
    wide = core._SCAN_MIN_WIDTH + 10
    fs = FrontSet(2, [[s(f"t{i}", i, wide - i) for i in range(wide)]])
    fs._columns(fs.fronts[0])
    for front in ([s(f"b{i}", i + 0.5, wide - i + 0.5) for i in range(wide)], [s("z", wide, wide)]):
        fs.admit(*front)
        fs.fronts.append(front)
    clone = fs.copy()
    assert clone.fronts[0].buf is not None and clone.fronts[1].buf is None
    assert_columns_consistent(clone)
    assert validate(fs) == [] and validate(clone) == []
    assert same_partition(fs, clone) and same_partition(fs, full_sort(list(fs.solutions())))
    fs._ids.remove(fs.fronts[1][5].id)
    fs.admit(new := s("edit", 5.25, wide - 5.25))
    fs.fronts[1][5] = new  # a hand edit of a plain list has no record to flag
    assert validate(fs) == ["front 2: 'edit' is not dominated by any solution in front 1"]


def test_validate_flags_an_id_index_out_of_step_with_the_stored_ids():
    from ndfronts import APPROACHES

    fs = FrontSet(2, [[s("a", 1, 1)], [s("b", 2, 2)]])
    fs.fronts.pop()  # a front dropped by hand leaves its ids indexed
    assert "b" in fs
    with pytest.raises(DuplicateIdError):
        APPROACHES["linear"].insert(fs, s("b", 3, 3), Counter())
    assert validate(fs) == ["id index differs from the stored ids: 1 indexed but not stored ['b'], 0 stored but not indexed []"]
    # and the other way: members put in by hand without admit; three ids each way at most
    fs.fronts.append([s(f"c{i}", 2 + i, 10 - i) for i in range(5)])
    assert validate(fs) == [
        "id index differs from the stored ids: 1 indexed but not stored ['b'], 5 stored but not indexed ['c0', 'c1', 'c2']"
    ]


@pytest.mark.parametrize("approach", ["linear", "ltree", "rtree"])
def test_records_hold_columns_only_within_their_growth_rule(approach):
    """Auxiliary space beyond ``fronts``: at M = 2 only fronts of
    ``_SCAN_MIN_WIDTH`` members keep a record, at M >= 3 any front a block
    has read does, and a front holds nothing but its record, one float
    array no larger than :func:`core._extend`'s growth rule allows."""
    from ndfronts import APPROACHES

    ops = APPROACHES[approach]
    rng = random.Random(2203)
    fs = FrontSet(5)
    for i in range(2000):  # seeded M = 5 online sort: few wide fronts, inserts only
        ops.insert(fs, Solution(f"p{i}", tuple(rng.random() for _ in range(5))), Counter())
    recs = [front.buf for front in fs.fronts if front.buf is not None]
    assert any(len(front) >= core._SCAN_MIN_WIDTH for front in fs.fronts if front.buf is not None)
    # the dom_set and cascade blocks read narrow fronts too, and their records stay
    assert any(len(front) < core._SCAN_MIN_WIDTH for front in fs.fronts if front.buf is not None)
    assert_columns_consistent(fs)
    for front in fs.fronts:
        assert type(front) is core.Front and vars(front).keys() <= {"buf"}
        if front.buf is not None:
            # an exact build or slice, or the last growth to end + end // 4
            n = len(front)
            assert front.buf.dtype == np.float64 and len(front.buf) == 5 and front.buf.shape[1] <= n + n // 4
    assert sum(buf.nbytes for buf in recs) <= 8 * 5 * (len(fs) + len(fs) // 4)

    narrow = FrontSet(2)
    for i in range(500):
        ops.insert(narrow, Solution(f"q{i}", (rng.random(), rng.random())), Counter())
    assert max(map(len, narrow.fronts)) < core._SCAN_MIN_WIDTH
    assert all(front.buf is None for front in narrow.fronts)
    for m in (2, 3):
        antichain = FrontSet(m, [[s(f"a{i}", i, -i, *(0,) * (m - 2)) for i in range(core._SCAN_MIN_WIDTH)]])
        assert ops.lookup(antichain, antichain.fronts[0][-1], Counter()) is not None  # builds the record
        assert antichain.fronts[0].buf is not None
        ops.delete(antichain, antichain.fronts[0][0], Counter())  # one member below the width
        assert (antichain.fronts[0].buf is not None) == (m > 2)  # M = 2 drops it, M = 3 keeps it in step
        assert_columns_consistent(antichain)



@pytest.mark.parametrize("m", [2, 3])
def test_append_writes_into_the_record_while_it_has_room(m):
    # a record full to its width grows by a quarter once; the appends after
    # that write into the same array until it is full again
    width = core._SCAN_MIN_WIDTH if m == 2 else 8
    fs = FrontSet(m, [[s(f"a{i}", i, -i, *(0,) * (m - 2)) for i in range(width)]])
    front = fs.fronts[0]
    assert fs._columns(front) is not None and front.buf.shape[1] == width
    arrays = []
    for i in range(width, width + width // 4 + 2):
        fs.admit(new := s(f"a{i}", i, -i, *(0,) * (m - 2)))
        fs._append(front, new)
        arrays.append(front.buf)
        assert_columns_consistent(fs)
    grown = width + 1 + (width + 1) // 4  # the first append grows the full record by a quarter
    fits = grown - width  # appends up to the grown capacity, that first one included
    assert all(buf is arrays[0] and buf.shape[1] == grown for buf in arrays[:fits])
    assert arrays[fits].shape[1] == grown + 1 + (grown + 1) // 4  # the next one grows it again


W = core._SCAN_MIN_WIDTH
# source width and record, destination width and record, members that leave,
# and which of the two fronts hold a record after the move; at M = 2 only a
# front of at least W members keeps one, and a move gives none to a
# destination that had none, at any width: FrontSet._columns builds it
MOVE_CASES = {
    "narrow-source": (20, False, 5, False, 7, (False, False)),
    "wide-source-with-record": (W + 30, True, 5, False, 12, (True, False)),
    "wide-source-left-narrow": (W + 3, True, 5, False, 12, (False, False)),
    "destination-crosses-the-width": (W + 10, True, W - 5, False, 8, (True, False)),
    "narrow-source-into-a-destination-crossing-the-width": (20, False, W - 5, False, 8, (False, False)),
    "narrow-source-into-a-destination-with-a-record": (20, False, W, True, 6, (False, True)),
    "all-stay": (W + 10, True, 5, False, 0, (True, False)),
}
# at M = 3 the source's record is sliced at every width, a destination with
# a record keeps it, and one without is left without one
MOVE_CASES_M3 = {
    "narrow-source": (20, False, 5, False, 7, (False, False)),
    "narrow-source-with-record": (20, True, 5, False, 7, (True, False)),
    "narrow-source-with-record-into-a-narrow-destination-with-one": (20, True, 5, True, 7, (True, True)),
    "narrow-source-into-a-narrow-destination-with-a-record": (20, False, 5, True, 7, (False, True)),
    "wide-source-left-narrow": (W + 3, True, 5, False, 12, (True, False)),
    "destination-crosses-the-width": (W + 10, True, W - 5, False, 8, (True, False)),
    "narrow-source-with-record-into-a-destination-crossing-the-width": (20, True, W - 5, False, 8, (True, False)),
    "narrow-source-into-a-destination-crossing-the-width": (20, False, W - 5, False, 8, (False, False)),
    "all-stay": (20, True, 5, False, 0, (True, False)),
}


@pytest.mark.parametrize(
    "m, case",
    [pytest.param(2, case, id=case) for case in MOVE_CASES]
    + [pytest.param(3, case, id=f"m3-{case}") for case in MOVE_CASES_M3],
)
def test_move_takes_a_list_mask_and_an_array_mask_alike(m, case):
    src_width, src_rec, dest_width, dest_rec, leave, recs_after = (MOVE_CASES if m == 2 else MOVE_CASES_M3)[case]
    leaving = set(random.Random(src_width).sample(range(src_width), leave))
    keep = [j not in leaving for j in range(src_width)]
    results = []
    for mask in (keep, np.array(keep)):
        src = [Solution(f"s{j}", (j, -j, j % 7)[:m]) for j in range(src_width)]
        dest = [Solution(f"d{i}", (-i, i, i % 5)[:m]) for i in range(dest_width)]
        fs = FrontSet(m, [src, dest])
        for front, rec in zip(fs.fronts, (src_rec, dest_rec)):
            if rec:
                assert fs._columns(front) is not None  # builds the record
            assert (front.buf is not None) == rec
        kept = fs._move(fs.fronts[0], mask, fs.fronts[1])
        assert (kept is fs.fronts[0]) == (leave == 0)
        fs.fronts[0] = kept
        assert tuple(front.buf is not None for front in fs.fronts) == recs_after
        assert_columns_consistent(fs)
        records = [None if front.buf is None else front.buf[:, : len(front)].tolist() for front in fs.fronts]
        results.append([([sol.id for sol in front], rec) for front, rec in zip(fs.fronts, records)])
        # _columns, the only builder of a record, gives the destination its own on the next read
        dest = fs.fronts[1]
        if dest.buf is None and fs._keeps_record(len(dest)):
            assert np.array_equal(fs._columns(dest), core._cols(dest, m)) and dest.buf is not None
    assert results[0] == results[1]
    stayed = [f"s{j}" for j in range(src_width) if keep[j]]
    moved = [f"d{i}" for i in range(dest_width)] + [f"s{j}" for j in range(src_width) if not keep[j]]
    assert [ids for ids, _ in results[0]] == [stayed, moved]


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
