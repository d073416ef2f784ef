"""The front scan and the update rules that every approach shares.

:func:`_first_witness` scans a run of front ranks, best first, for a
solution's place, in one call; :mod:`ndfronts.dbst` decides which ranks it
scans: all of them for the linear order, one per probe for bisection.  :func:`_settle`
stores a new solution where the search put it, and one cascade,
:func:`_cascade`, restores the partition below it after an insert and
after a delete.  No solution is ever held in two places at once:
displaced sets are moved, not copied, so the only working storage is the
set currently in flight.  Comparisons stop at the first deciding witness
exactly where the update rules allow, which makes counter values
reproducible run over run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from ndfronts.core import (
    ContractViolationError,
    Counter,
    Front,
    FrontSet,
    Solution,
    _SCAN_MIN_WIDTH,
    _dominated,
    _mismatch,
    dom_nature,
)


@dataclass(frozen=True)
class Position:
    """Location of a stored solution: 1-based front rank and in-front index."""

    f_index: int
    s_index: int


def _first_witness(
    fs: FrontSet, probe: Solution, lo: int, hi: int, counter: Counter, find_id: bool
) -> tuple[int, int, int]:
    """Scan the fronts of ``fs`` at ranks ``lo..hi``, best first, until one
    is not decided by a member dominating ``probe``; returns that front's
    nature, rank and position, or the last front's ``(-1, hi, pos)`` when a
    member dominates ``probe`` at every rank (``(-1, lo - 1, 0)`` when the
    run is empty).

    Each front is scanned in order for its first member that ``probe``
    dominates (1), is dominated by (-1) or shares its id with (0); its
    answer is that nature and the member's 1-based position, or ``(0, 0)``
    when ``probe`` is non-dominated with the whole front and its id is not
    there.  One witness decides the front: as an antichain it cannot hold
    both a member dominating ``probe`` and one that ``probe`` dominates.
    An insert probe's id is never stored
    (:meth:`~ndfronts.core.FrontSet.admit` guarantees it), so only lookups
    stop at an id match, and inserts pass ``find_id=False`` to spare the
    scan the id search.

    The whole run of ranks is one call, so the linear order pays Python's
    call overhead once per search rather than per front.  A front with a
    record (see :meth:`~ndfronts.core.FrontSet._columns`) is tested whole
    by :func:`_scan_columns`.  Any other front is tested one member at a
    time with :func:`~ndfronts.core.dom_nature`'s rule inline, unrolled
    here when the probe has M = 2 or 3 and by :func:`_scan_members` for
    any other M; a member reached whose M is not the probe's raises
    :class:`~ndfronts.core.DimensionMismatchError`.  The scans are
    uncounted; the counter gets, here and only here, the pairs the
    sequential scan tests: for each front passed, the position where it
    stops, or the front's width when it finds nothing.  A front that
    raises is not charged, and the fronts before it stay charged.
    """
    fronts = fs.fronts
    objs, pid = probe.objectives, probe.id
    m = len(objs)
    if m == 2:
        p0, p1 = objs
    elif m == 3:
        p0, p1, p2 = objs
    nat, rank, pos = -1, lo - 1, 0
    while nat == -1 and rank < hi:
        front = fronts[rank]
        rank += 1
        # _columns is None below the width anyway; testing it here spares a call per narrow front
        cols = fs._columns(front) if len(front) >= _SCAN_MIN_WIDTH else None
        if cols is not None and m == fs.m:
            nat, pos = _scan_columns(cols, front if find_id else None, probe)
        elif m > 3:
            nat, pos = _scan_members(front, probe, find_id)
        else:
            # unrolled: the probe weakly dominating the member is a dominance
            # unless the vectors are equal, and the member weakly dominating
            # the probe is one, since the first test has excluded equal vectors
            nat = pos = 0
            try:
                if m == 2:
                    for i, sol in enumerate(front, 1):
                        q0, q1 = sol.objectives  # ValueError unless the member has M = 2 too
                        if p0 <= q0 and p1 <= q1:
                            if p0 < q0 or p1 < q1:
                                nat, pos = 1, i
                                break
                        elif q0 <= p0 and q1 <= p1:
                            nat, pos = -1, i
                            break
                        if find_id and sol.id == pid:
                            pos = i
                            break
                else:
                    for i, sol in enumerate(front, 1):
                        q0, q1, q2 = sol.objectives  # ValueError unless the member has M = 3 too
                        if p0 <= q0 and p1 <= q1 and p2 <= q2:
                            if p0 < q0 or p1 < q1 or p2 < q2:
                                nat, pos = 1, i
                                break
                        elif q0 <= p0 and q1 <= p1 and q2 <= p2:
                            nat, pos = -1, i
                            break
                        if find_id and sol.id == pid:
                            pos = i
                            break
            except ValueError:
                raise _mismatch(probe, sol) from None
        counter.pair_compares += pos or len(front)
    return nat, rank, pos


def _scan_columns(cols: np.ndarray, front: list[Solution] | None, probe: Solution) -> tuple[int, int]:
    """:func:`_first_witness`'s answer for a wide front given as its
    ``(M, n)`` objective array, from one numpy comparison of every member,
    then a search of the front's members before the witness for the probe's
    id; with ``front`` None no id can match.  Uncounted, so only
    :func:`_first_witness` calls it."""
    p = np.array(probe.objectives)[:, None]
    ge = (cols >= p).all(axis=0)  # the probe weakly dominates the member
    le = (cols <= p).all(axis=0)  # the member weakly dominates the probe
    hit = ge != le  # exactly one holds: a strict dominance either way
    w = int(hit.argmax())
    found = bool(hit[w])
    if front is not None:
        for pos, sol in enumerate(front[: w if found else len(front)], 1):
            if sol.id == probe.id:
                return 0, pos
    return (int(ge[w]) - int(le[w]), w + 1) if found else (0, 0)


def _scan_members(front: list[Solution], probe: Solution, find_id: bool) -> tuple[int, int]:
    """:func:`_first_witness`'s answer for one front without a record, or
    with one of another M, when the probe has M other than 2 or 3: its
    members tested one at a time with
    :func:`~ndfronts.core.dom_nature`'s rule inline, so a pair costs no
    call; with ``find_id`` False no id can match, and none is compared.  A
    member reached whose M is not the probe's raises
    :class:`~ndfronts.core.DimensionMismatchError`.  Uncounted, so only
    :func:`_first_witness` calls it."""
    objs, pid = probe.objectives, probe.id
    m = len(objs)
    for pos, sol in enumerate(front, 1):
        other = sol.objectives
        if len(other) != m:
            raise _mismatch(probe, sol)
        probe_better = sol_better = False
        for x, y in zip(objs, other):
            if x < y:
                if sol_better:
                    break
                probe_better = True
            elif y < x:
                if probe_better:
                    break
                sol_better = True
        else:  # neither side lost a coordinate: a dominance, or equal vectors
            if probe_better or sol_better:
                return 1 if probe_better else -1, pos
        if find_id and sol.id == pid:
            return 0, pos
    return 0, 0


def dom_set(fs: FrontSet, front: Front, new: Solution, start: int, counter: Counter) -> np.ndarray:
    """Classify ``front``, a front of ``fs``, against ``new``, moving
    nothing: one bool per member, False for each member at or after position
    ``start`` (1-based) that ``new`` dominates and True for the rest, as
    ``stays`` for :meth:`~ndfronts.core.FrontSet._move`.  Positions before
    ``start`` were classified by the caller.  The tail is one
    ``1 x len(tail)`` :func:`~ndfronts.core._dominated` test, so each
    candidate is compared exactly once; when ``front`` has a record (see
    :meth:`~ndfronts.core.FrontSet._columns`), the tail is a slice of it.
    Raises IndexError, with nothing counted, unless
    ``1 <= start <= len(front) + 1``.
    """
    if not 1 <= start <= len(front) + 1:
        raise IndexError(f"start {start} out of range 1..{len(front) + 1}")
    cols = fs._columns(front)
    tail_cols = None if cols is None else cols[:, start - 1 :]
    stays = np.ones(len(front), dtype=bool)
    stays[start - 1 :] = np.logical_not(_dominated([new], front[start - 1 :], counter, None, tail_cols)[0])
    return stays


def update_insert(fs: FrontSet, displaced: list[Solution], index: int, counter: Counter) -> None:
    """Settle a displaced set of new solutions at rank ``index``, cascading
    leftovers downward.

    The displaced set becomes the front at ``index``, and :func:`_cascade`
    lifts into it every member of the front below that is non-dominated
    with all of it; the rest stay one rank lower and the cascade moves
    down.  ``displaced`` must be a non-empty antichain of new solutions
    with the set's M and distinct ids, and ``index`` must lie in 2..K+1;
    anything else raises before a comparison is counted or a solution
    moved.  The antichain check is uncounted, so inserts skip it: their
    displaced sets are carved out of one front.

    It also assumes, unchecked, that no member of front ``index`` dominates
    a member of ``displaced``, as when the set was displaced from the front
    above it.  Otherwise the partition it leaves is invalid: the cascade
    asks only whether a lower member is dominated.
    """
    if not displaced:
        raise ContractViolationError("displaced set must be non-empty")
    if not 2 <= index <= len(fs.fronts) + 1:
        raise ContractViolationError(f"cascade rank {index} is outside 2..{len(fs.fronts) + 1}")
    q = next(compress(displaced, _dominated(displaced, displaced, Counter(), None, None)[0]), None)
    if q is not None:
        p = next(p for p in displaced if dom_nature(p, q, Counter()) == 1)
        raise ContractViolationError(f"displaced set is internally dominated: {p.id!r} vs {q.id!r}")
    fs.admit(*displaced)
    fs.fronts.insert(index - 1, Front(displaced))
    _cascade(fs, index, counter, True)


def _settle(fs: FrontSet, index: int, nat: int, pos: int, new: Solution, counter: Counter) -> None:
    """Store ``new`` at rank ``index``, where the front scan found nature
    ``nat`` at witness ``pos`` (see :func:`_first_witness`); rank K+1 opens a
    new last front.  ``new`` is already admitted to the id index.

    Non-domination merges ``new`` into the front.  A dominated witness is
    displaced together with every later member ``new`` dominates: one
    :func:`dom_set` mask, with the witness's flag cleared, moves them all
    out of the front in one :meth:`~ndfronts.core.FrontSet._move`, and the
    displaced set becomes the next front.  When ``new`` dominated its whole
    front, every rank below simply shifts by one; otherwise
    :func:`_cascade` settles the displaced set.
    """
    if index > len(fs.fronts):
        fs.fronts.append(Front((new,)))
        return
    front = fs.fronts[index - 1]
    if nat == 0:
        fs._append(front, new)
        return
    stays = dom_set(fs, front, new, pos + 1, counter)
    stays[pos - 1] = False
    displaced = Front()
    front = fs.fronts[index - 1] = fs._move(front, stays, displaced)
    fs._append(front, new)
    fs.fronts.insert(index, displaced)
    if len(front) > 1:
        _cascade(fs, index + 1, counter, False)


def update_delete(fs: FrontSet, index: int, counter: Counter) -> None:
    """Restore the partition below front ``index`` after a member left it:
    :func:`_cascade` from that rank, with weak-dominance blocks.

    It assumes, unchecked, that ``fs`` is a valid partition apart from the
    departed member, as a library delete leaves it and as the CLI's
    ``run --fs``, which validates its dump, guarantees.  The weak blocks
    rely on it (see :func:`~ndfronts.core._dominated`)."""
    if not 1 <= index < len(fs.fronts):
        raise IndexError(f"front index {index} out of range for a delete cascade")
    _cascade(fs, index, counter, False)


def _cascade(fs: FrontSet, index: int, counter: Counter, strict: bool) -> None:
    """Move into front ``index`` every member of the next front that no
    member of it dominates on entry, and go on one rank down while a step
    promotes something and leaves the next front non-empty; a front emptied
    this way is popped, and ranks below collapse by one.

    Such a member is non-dominated with the whole upper front too.  Some
    ``p`` of the front above it, as the partition stood before the
    operation, dominates it; had it dominated an upper member ``u``, ``p``
    would dominate ``u``, and the two shared that front.  Members promoted
    in one step come from one front and need no mutual checks.

    A step is one ``len(upper) x len(lower)``
    :func:`~ndfronts.core._dominated` test, with no early exit: it always
    costs that many comparisons, which the closed-form worst cases in
    :mod:`ndfronts.analysis` count on.  The block reads each side's record
    (see :meth:`~ndfronts.core.FrontSet._columns`) when it has one.  The
    members a step leaves in the lower front are the next step's upper
    front, so the step carries the columns its block read for them, and a
    cascade builds each front's array from tuples at most once.

    With ``strict`` False each block tests weak dominance only, which is
    exact when the cascade starts from a valid partition: no member of a
    front equals a member of the front above it (see
    :func:`~ndfronts.core._dominated`).  Inserts and deletes pass False;
    :func:`update_insert`, whose displaced set comes from its caller,
    passes True.
    """
    cols = None
    while index < len(fs.fronts):
        upper, lower = fs.fronts[index - 1], fs.fronts[index]
        upper_cols = fs._columns(upper)
        if upper_cols is not None:
            cols = upper_cols
        stays, lower_cols = _dominated(upper, lower, counter, cols, fs._columns(lower), strict)
        kept = fs._move(lower, stays, upper)
        if kept is lower:
            return
        if not kept:
            fs.fronts.pop(index)
            return
        fs.fronts[index] = kept
        cols = None if lower_cols is None else lower_cols.compress(stays, axis=1)
        index += 1
