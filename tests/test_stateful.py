"""Id-exact stateful check: the same insert, delete and lookup steps on
tie-heavy grid points, applied to one front set per approach, must keep each
partition equal to a from-scratch sort of the live solutions by id.  Wide
anti-diagonal batches below the grid take the inserts onto the larger block
paths: the narrow batches' ``dom_set`` blocks and cascade steps onto the
M = 2 sweep, or numpy at M = 3 and 5, and one batch wide enough to keep an
objective array at every M onto its columns.  At M = 3 and 5 narrow
fronts keep their records too.  The front scan reads a record at every
width at M = 5, in numpy, and at M = 2 and 3 only from
``core._SCAN_MIN_WIDTH`` members on, unrolled below it.  Every record's
consistency with its front is an invariant.  Every dominance block the update rules run is
checked as well: the rules ask only which members some peer dominates,
which is enough while no member dominates a peer, and a block (see
``core._dominated``) asks only which members some peer weakly dominates,
which is enough while no member equals a peer; after every step no front
shares a vector with the front above it, which is why a cascade's blocks
may be weak."""

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
# the batch front keeps an objective array at every M (from
# core._SCAN_MIN_WIDTH members at M = 2), so its blocks read its columns in
# numpy, as its apex's 1 x 257 dom_set block does
WIDE = 258


def _dominated_where_no_member_dominates_a_peer(peers, members, counter, peer_cols, member_cols):
    """``linear._dominated``, after asserting the facts its callers rely on:
    no member dominates any of its peers, and no member equals a peer.  The
    first makes "dominated by a peer" the same as "in any relation with a
    peer" for each cascade step, and the only relation a ``dom_set`` tail
    can have with its new solution; the second makes a weak dominance a
    strict one, on cascade steps and on the ``dom_set`` tails of inserts
    alike."""
    scratch = Counter()
    for q in members:
        for p in peers:
            assert dom_nature(q, p, scratch) != 1, f"member {q.id!r} dominates peer {p.id!r}"
            assert q.objectives != p.objectives, f"member {q.id!r} equals peer {p.id!r}"
    return core._dominated(peers, members, counter, peer_cols, member_cols)


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

    @initialize(m=st.sampled_from([2, 3, 5]))
    def start(self, m: int) -> None:
        self.m = m
        self.sets = {approach: FrontSet(m) for approach in APPROACHES}

    @rule(target=solutions, vec=st.tuples(*[GRID] * 5))
    def insert(self, vec: tuple[int, ...]) -> Solution:
        sol = Solution(f"s{self.next_id}", vec[: self.m])
        self.next_id += 1
        for approach, fs in self.sets.items():
            APPROACHES[approach].insert(fs, sol, Counter())
        self.live[sol.id] = sol
        return sol

    def insert_batch(self, tag: str, slot: int, width: int, shadow: bool) -> list[Solution]:
        """Insert a front of ``width`` points on an anti-diagonal, then an apex
        that dominates all of them.  Slot ``slot`` lies below the grid and
        every lower-numbered slot, and above every higher-numbered one, so
        the front is new and the apex displaces it in one
        ``1 x (width - 1)`` ``dom_set`` block: the sweep at M = 2 while the
        front has no record, and numpy otherwise.

        With ``shadow``, a second front, each point half a unit behind one
        of the first, goes in before the apex, and then a notch that
        dominates only the middle point of the first front.  That point is
        displaced onto the shadow front: one ``1 x width`` cascade step,
        on the same path."""
        base = 10 + (WIDTH + 2) * slot
        pad = (base + 1,) * (self.m - 2)
        batch = [
            Solution(f"{tag}.{i}", (base + 1 + i, base + width - i) + pad)
            for i in range(width)
        ]
        if shadow:
            mid = batch[width // 2].objectives
            batch += [Solution(f"{tag}.s{i}", tuple(x + 0.5 for x in sol.objectives)) for i, sol in enumerate(batch)]
            batch.append(Solution(f"{tag}.notch", (mid[0] - 0.25, mid[1] - 0.25) + pad))
        batch.append(Solution(f"{tag}.apex", (base,) * self.m))
        for approach, fs in self.sets.items():
            with mock.patch.object(core, "_dominated_m2", wraps=core._dominated_m2) as sweep, mock.patch.object(
                core, "_dominated_cols", wraps=core._dominated_cols
            ) as numpy_path:
                for sol in batch:
                    APPROACHES[approach].insert(fs, sol, Counter())
            # the shapes of the blocks on the path these widths take
            if self.m == 2 and width < core._SCAN_MIN_WIDTH:
                blocks = {(len(call.args[0]), len(call.args[1])) for call in sweep.call_args_list}
            else:
                blocks = {(call.args[0].shape[1], call.args[1].shape[1]) for call in numpy_path.call_args_list}
            assert (1, width - 1) in blocks, approach  # the apex's dom_set tail
            if shadow:
                assert (1, width) in blocks, approach  # the notch's cascade step
        self.live.update((sol.id, sol) for sol in batch)
        return batch

    @precondition(lambda self: self.batches < 2)  # each batch adds 2 * WIDTH + 2 solutions
    @rule(target=solutions)
    def insert_antidiagonal(self):
        batch = self.insert_batch(f"d{self.batches}", self.batches, WIDTH, True)
        self.batches += 1
        return multiple(*batch)

    @precondition(lambda self: not self.wide)
    @rule(target=solutions)
    def insert_wide_antidiagonal(self):
        """Slot 2, below both narrower batches: the apex moves the whole wide
        front one rank down, into a new front that gets its record when
        ``FrontSet._columns`` next reads it."""
        self.wide = True
        batch = self.insert_batch("w", 2, WIDE, False)
        for approach, fs in self.sets.items():
            assert any(front[0] is batch[0] and fs._columns(front) is not None for front in fs.fronts), approach
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
    def no_front_shares_a_vector_with_the_front_above(self) -> None:
        for approach, fs in self.sets.items():
            for f_index, (upper, lower) in enumerate(zip(fs.fronts, fs.fronts[1:]), 2):
                shared = {p.objectives for p in upper} & {q.objectives for q in lower}
                assert not shared, (approach, f_index, shared)

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
