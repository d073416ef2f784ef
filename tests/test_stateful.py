"""Id-exact stateful check: the same insert, delete and lookup steps on
tie-heavy grid points, applied to one front set per approach, must keep each
partition equal to a from-scratch sort of the live solutions by id.  Wide
anti-diagonal batches below the grid take the inserts onto the larger block
paths: the narrow ones onto the unrolled M = 2 path, or numpy at M = 3, and
one batch wide enough to keep an objective array onto numpy at any M, and
the moves onto its columns, whose consistency is an invariant too.  Every
dominance block the update rules run is checked as well: the rules ask
only which members some peer dominates, which is enough while no member
dominates a peer."""

from __future__ import annotations

from unittest import mock

from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from ndfronts import APPROACHES, Counter, FrontSet, Solution, core, dom_nature, full_sort, linear
from tests.conftest import assert_columns_consistent

GRID = st.integers(0, 3)  # four values per coordinate: tied vectors are common
WIDTH = core._BLOCK_MIN_PAIRS + 1  # an anti-diagonal batch, less its apex, fills one block
# the batch front keeps an objective array, and its block is past the unrolled path
WIDE = max(core._SCAN_MIN_WIDTH, core._BLOCK_MAX_PAIRS_M2 + 1) + 1


def _dominated_where_no_member_dominates_a_peer(peers, members, *args):
    """``linear._dominated``, after asserting the fact its callers rely on:
    no member dominates any of its peers.  That makes "dominated by a peer"
    the same as "in any relation with a peer" for each cascade step, and
    the only relation a ``dom_set`` tail can have with its new solution."""
    scratch = Counter()
    for q in members:
        for p in peers:
            assert dom_nature(q, p, scratch) != 1, f"member {q.id!r} dominates peer {p.id!r}"
    return core._dominated(peers, members, *args)


class FrontSetsUnderChurn(RuleBasedStateMachine):
    solutions = Bundle("solutions")

    def __init__(self) -> None:
        super().__init__()
        self.live: dict[str, Solution] = {}
        self.next_id = 0
        self.batches = 0
        self.wide = False
        self.blocks = mock.patch.object(linear, "_dominated", _dominated_where_no_member_dominates_a_peer)
        self.blocks.start()

    def teardown(self) -> None:
        self.blocks.stop()

    @initialize(m=st.sampled_from([2, 3]))
    def start(self, m: int) -> None:
        self.m = m
        self.sets = {approach: FrontSet(m) for approach in APPROACHES}

    @rule(target=solutions, vec=st.tuples(GRID, GRID, GRID))
    def insert(self, vec: tuple[int, int, int]) -> Solution:
        sol = Solution(f"s{self.next_id}", vec[: self.m])
        self.next_id += 1
        for approach, fs in self.sets.items():
            APPROACHES[approach].insert(fs, sol, Counter())
        self.live[sol.id] = sol
        return sol

    def insert_batch(self, tag: str, slot: int, width: int) -> list[Solution]:
        """Insert a front of ``width`` points on an anti-diagonal, then an apex
        that dominates all of them.  Slot ``slot`` lies below the grid and
        every lower-numbered slot, and above every higher-numbered one, so
        the front is new and the apex displaces it in one
        ``1 x (width - 1)`` block, unrolled at M = 2 up to
        ``core._BLOCK_MAX_PAIRS_M2`` pairs and in numpy otherwise."""
        base = 10 + (WIDTH + 2) * slot
        pad = (base + 1,) * (self.m - 2)
        batch = [
            Solution(f"{tag}.{i}", (base + 1 + i, base + width - i) + pad)
            for i in range(width)
        ]
        batch.append(Solution(f"{tag}.apex", (base,) * self.m))
        unrolled = self.m == 2 and width - 1 <= core._BLOCK_MAX_PAIRS_M2
        path = "_dominated_m2" if unrolled else "_dominated_cols"
        for approach, fs in self.sets.items():
            with mock.patch.object(core, path, wraps=getattr(core, path)) as block:
                for sol in batch:
                    APPROACHES[approach].insert(fs, sol, Counter())
            assert block.called, (approach, path)
        self.live.update((sol.id, sol) for sol in batch)
        return batch

    @precondition(lambda self: self.batches < 2)  # each batch adds WIDTH + 1 solutions
    @rule(target=solutions)
    def insert_antidiagonal(self):
        batch = self.insert_batch(f"d{self.batches}", self.batches, WIDTH)
        self.batches += 1
        return multiple(*batch)

    @precondition(lambda self: not self.wide)
    @rule(target=solutions)
    def insert_wide_antidiagonal(self):
        """Slot 2, below both narrower batches: the apex moves the whole wide
        front, columns and all, one rank down."""
        self.wide = True
        batch = self.insert_batch("w", 2, WIDE)
        for approach, fs in self.sets.items():
            assert any(front[0] is batch[0] and front.buf is not None for front in fs.fronts), approach
        return multiple(*batch)

    @rule(sol=consumes(solutions))
    def delete(self, sol: Solution) -> None:
        for approach, fs in self.sets.items():
            APPROACHES[approach].delete(fs, sol, Counter())
        del self.live[sol.id]

    @rule(sol=solutions)
    def lookup(self, sol: Solution) -> None:
        for approach, fs in self.sets.items():
            pos = APPROACHES[approach].lookup(fs, sol, Counter())
            assert pos is not None, approach
            assert fs.fronts[pos.f_index - 1][pos.s_index - 1].id == sol.id, approach

    @invariant()
    def levels_match_full_sort_by_id(self) -> None:
        want = full_sort(list(self.live.values()), self.m).level_ids()
        for approach, fs in self.sets.items():
            assert fs.level_ids() == want, approach

    @invariant()
    def columns_match_their_members(self) -> None:
        for fs in self.sets.values():
            assert_columns_consistent(fs)


# the explain phase line-traces a failing run and takes minutes on one
FrontSetsUnderChurn.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
test_front_sets_under_churn = FrontSetsUnderChurn.TestCase
