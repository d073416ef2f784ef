"""Id-exact stateful check: the same insert, delete and lookup steps on
tie-heavy grid points, applied to one front set per approach, must keep each
partition equal to a from-scratch sort of the live solutions by id.  Wide
anti-diagonal batches below the grid take the cascades onto the numpy block
path."""

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

from ndfronts import Counter, FrontSet, Solution, core, full_sort
from ndfronts.cli import APPROACHES

GRID = st.integers(0, 3)  # four values per coordinate: tied vectors are common
WIDTH = core._BLOCK_MIN_PAIRS + 1  # an anti-diagonal batch, less its apex, fills one block


class FrontSetsUnderChurn(RuleBasedStateMachine):
    solutions = Bundle("solutions")

    def __init__(self) -> None:
        super().__init__()
        self.live: dict[str, Solution] = {}
        self.next_id = 0
        self.batches = 0

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

    @precondition(lambda self: self.batches < 2)  # each batch adds WIDTH + 1 solutions
    @rule(target=solutions)
    def insert_antidiagonal(self):
        """Insert a front of ``WIDTH`` points on an anti-diagonal, then an apex
        that dominates all of them.  Every batch lies below the grid and all
        earlier batches, so the front is new and the apex displaces it in one
        ``1 x (WIDTH - 1)`` block on the numpy path."""
        base = 10 + (WIDTH + 2) * self.batches
        pad = (base + 1,) * (self.m - 2)
        batch = [
            Solution(f"d{self.batches}.{i}", (base + 1 + i, base + WIDTH - i) + pad)
            for i in range(WIDTH)
        ]
        batch.append(Solution(f"d{self.batches}.apex", (base,) * self.m))
        self.batches += 1
        for approach, fs in self.sets.items():
            with mock.patch.object(core, "_dom_codes", wraps=core._dom_codes) as numpy_path:
                for sol in batch:
                    APPROACHES[approach].insert(fs, sol, Counter())
            assert numpy_path.called, approach
        self.live.update((sol.id, sol) for sol in batch)
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


# the explain phase line-traces a failing run and takes minutes on one
FrontSetsUnderChurn.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
test_front_sets_under_churn = FrontSetsUnderChurn.TestCase
