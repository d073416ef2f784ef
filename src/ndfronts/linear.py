"""Linear-scan maintenance of non-domination levels.

Insertion walks the fronts best-first until the new solution settles;
deletion locates its target, removes it, and promotes solutions upward.
No solution is ever held in two places at once: displaced sets are moved,
not copied, so the only working storage is the set currently in flight.
Comparisons stop at the first deciding witness exactly where the update
rules allow, which makes counter values reproducible run over run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ndfronts.core import (
    ContractViolationError,
    Counter,
    DimensionMismatchError,
    DomRelation,
    DuplicateIdError,
    FrontSet,
    MissingSolutionError,
    Solution,
    check_dom,
    dom_nature,
)


@dataclass(frozen=True)
class Position:
    """Location of a stored solution: 1-based front rank and in-front index."""

    f_index: int
    s_index: int


def _check_insertable(fs: FrontSet, new: Solution) -> None:
    if new.m != fs.m:
        raise DimensionMismatchError(f"solution {new.id!r} has M={new.m}, front set has M={fs.m}")
    if new.id in fs:
        raise DuplicateIdError(f"solution id {new.id!r} already stored")


def _first_witness(front: list[Solution], probe: Solution, counter: Counter) -> tuple[int, int]:
    """Scan ``front`` in order for its first member that ``probe`` dominates
    (1) or is dominated by (-1); returns that nature and the member's 1-based
    position, or ``(0, 0)`` when ``probe`` is non-dominated with the whole front.

    One witness decides the front: as an antichain it cannot hold both a
    member dominating ``probe`` and one that ``probe`` dominates.
    """
    for pos, sol in enumerate(front, 1):
        nat = dom_nature(probe, sol, counter)
        if nat != 0:
            return nat, pos
    return 0, 0


def dom_set(
    front: list[Solution],
    new: Solution,
    start: int,
    collected: list[Solution],
    counter: Counter,
) -> None:
    """Move every solution of ``front`` at or after position ``start`` (1-based)
    that ``new`` dominates into ``collected``.

    Survivors keep their relative order; each candidate is compared exactly
    once.  Positions before ``start`` were already classified by the caller.
    """
    kept = front[: start - 1]
    for sol in front[start - 1 :]:
        if dom_nature(new, sol, counter) == 1:
            collected.append(sol)
        else:
            kept.append(sol)
    front[:] = kept


def _require_antichain(group: list[Solution]) -> None:
    scratch = Counter()
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            if dom_nature(group[i], group[j], scratch) != 0:
                raise ContractViolationError(
                    f"displaced set is internally dominated: {group[i].id!r} vs {group[j].id!r}"
                )


def _sweep(group: list[Solution], front: list[Solution], counter: Counter) -> list[Solution]:
    """Append to ``group`` every member of ``front`` that is non-dominated with
    all of ``group``'s current members; return the other members in order.

    Members appended here come from one front and need no mutual checks.
    Every pair is compared, with no early exit: a sweep always costs
    ``len(group) * len(front)`` comparisons, which the closed-form worst
    cases in :mod:`ndfronts.analysis` count on.
    """
    peers = group[:]
    kept: list[Solution] = []
    for sol in front:
        count = 0
        for peer in peers:
            if dom_nature(peer, sol, counter) == 0:
                count += 1
        if count == len(peers):
            group.append(sol)
        else:
            kept.append(sol)
    return kept


def update_insert(fs: FrontSet, displaced: list[Solution], index: int, counter: Counter) -> None:
    """Settle a displaced set at rank ``index``, cascading leftovers downward.

    Members of the front at ``index`` that are non-dominated with every
    displaced solution join them at this rank; the rest sink one rank and the
    cascade moves down.  Past the last front the displaced set simply becomes
    the new last front.  ``displaced`` must be an antichain; it is checked
    once here, since every later displaced set is what remains of one front.
    """
    if not displaced:
        raise ContractViolationError("displaced set must be non-empty")
    if index < 2:
        raise ContractViolationError("cascades start below the front that absorbed the insert")
    if index > len(fs.fronts) + 1:
        raise ContractViolationError(
            f"front index {index} is beyond the last front ({len(fs.fronts)})"
        )
    _require_antichain(displaced)
    fs._ids.update(sol.id for sol in displaced)  # no-op when they came from fs

    while index <= len(fs.fronts):
        width = len(displaced)
        kept = _sweep(displaced, fs.fronts[index - 1], counter)
        if len(displaced) == width:
            # nothing promoted: the displaced set takes this rank, all lower fronts shift
            fs.fronts.insert(index - 1, displaced)
            return
        fs.fronts[index - 1] = displaced
        if not kept:
            return
        displaced = kept
        index += 1
    fs.fronts.append(displaced)


def _settle(fs: FrontSet, index: int, nat: int, pos: int, new: Solution, counter: Counter) -> None:
    """Store ``new`` at rank ``index``, where the front scan found nature
    ``nat`` at witness ``pos`` (see :func:`_first_witness`); rank K+1 opens a
    new last front.

    Non-domination merges ``new`` into the front.  A dominated witness is
    displaced together with every later member ``new`` dominates, and the
    displaced set is pushed down.
    """
    fs._ids.add(new.id)
    if index > len(fs.fronts):
        fs.fronts.append([new])
        return
    front = fs.fronts[index - 1]
    if nat == 0:
        front.append(new)
        return
    displaced = [front.pop(pos - 1)]
    dom_set(front, new, pos, displaced, counter)
    front.append(new)
    if index == len(fs.fronts):
        fs.fronts.append(displaced)
    elif len(front) == 1:
        # the new solution dominated its whole front: ranks below shift by one as-is
        fs.fronts.insert(index, displaced)
    else:
        update_insert(fs, displaced, index + 1, counter)


def insert_linear(fs: FrontSet, new: Solution, counter: Counter) -> None:
    """Insert ``new`` by scanning fronts best-first.

    Per front: a solution dominating ``new`` sends it to the next front after
    one witness; ``new`` dominating a solution triggers collection of every
    dominated member and a downward cascade; non-domination with the whole
    front merges ``new`` there.  Dominated by all fronts, it becomes the new
    last front.
    """
    _check_insertable(fs, new)
    for index, front in enumerate(fs.fronts, 1):
        nat, pos = _first_witness(front, new, counter)
        if nat != -1:
            break
    else:
        index, nat, pos = len(fs.fronts) + 1, 0, 0
    _settle(fs, index, nat, pos, new, counter)


def locate_sequential(fs: FrontSet, sol: Solution, counter: Counter) -> Position | None:
    """Front-by-front scan for the first stored solution identical to ``sol``.

    A dominance witness in either direction rules the whole front out (fronts
    are antichains), so the scan jumps to the next front after one hit.
    """
    for f_index, front in enumerate(fs.fronts, 1):
        for s_index, stored in enumerate(front, 1):
            rel = check_dom(sol, stored, counter)
            if rel is DomRelation.IDENTICAL:
                return Position(f_index, s_index)
            if rel is not DomRelation.NON_DOMINATED:
                break
    return None


def update_delete(fs: FrontSet, index: int, counter: Counter) -> None:
    """Promote into front ``index`` every next-front member that is
    non-dominated with its pre-promotion occupants, continuing downward
    while the promotions keep opening holes."""
    if not 1 <= index < len(fs.fronts):
        raise IndexError(f"front index {index} out of range for a delete cascade")
    while True:
        upper = fs.fronts[index - 1]
        width = len(upper)
        kept = _sweep(upper, fs.fronts[index], counter)
        if not kept:
            # the whole next front moved up; ranks below collapse by one
            fs.fronts.pop(index)
            return
        fs.fronts[index] = kept
        if len(upper) == width:
            return
        index += 1
        if index >= len(fs.fronts):
            return


def delete(fs: FrontSet, sol: Solution, strategy: str, counter: Counter) -> None:
    """Remove the stored solution identical to ``sol`` and restore validity.

    ``strategy`` picks the search: ``"sequential"`` scans fronts in order,
    ``"tree"`` binary-searches over front ranks.  Deleting from the last
    front costs nothing further; an emptied front is dropped outright and
    lower ranks renumber; otherwise the promotion cascade runs from the
    source front.
    """
    if strategy == "sequential":
        pos = locate_sequential(fs, sol, counter)
    elif strategy == "tree":
        from ndfronts.dbst import lookup_tree  # deferred: dbst builds on this module

        pos = lookup_tree(fs, sol, counter)
    else:
        raise ValueError(f"unknown delete strategy {strategy!r}")
    if pos is None:
        raise MissingSolutionError(sol.id)

    front = fs.fronts[pos.f_index - 1]
    removed = front.pop(pos.s_index - 1)
    fs._ids.discard(removed.id)
    if not front:
        fs.fronts.pop(pos.f_index - 1)
        return
    if pos.f_index < len(fs.fronts):
        update_delete(fs, pos.f_index, counter)
