"""The front scan and the update rules that every approach shares.

:func:`_first_witness` scans a run of front ranks, best first, for a
solution's place, in one call; :mod:`ndfronts.dbst` decides which ranks it
scans: all of them for the linear order, one per probe for bisection.  :func:`_settle`
stores a new solution where the search put it, and one cascade,
:func:`_cascade`, restores the partition below it after an insert and
after a delete, entered through :func:`update_insert` and
:func:`update_delete`.  No solution is ever held in two places at once:
displaced sets are moved, not copied, so the only working storage is the
set currently in flight.  Nor are objectives: a front's are held only in
its members and its record (see :class:`~ndfronts.core.FrontSet`), and no
scan or cascade step keeps a copy of them for a later one.  Comparisons
stop at the first deciding witness exactly where the update rules allow,
which makes counter values reproducible run over run.

Both the scan and the cascade rely on ``fs`` being a valid partition, so
that every front is an antichain: the cascade's weak blocks (see
:func:`~ndfronts.core._dominated`), and the numpy front scan, which tests
the dominator side first and passes a front as soon as its first member
no worse than the probe differs from the probe (see :func:`_scan_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from ndfronts.core import (
    Counter,
    Front,
    FrontSet,
    Solution,
    _SCAN_MIN_WIDTH,
    _dominated,
    _mismatch,
)


@dataclass(frozen=True)
class Position:
    """Location of a stored solution: 1-based front rank and in-front index."""

    f_index: int
    s_index: int


def _first_witness(fs: FrontSet, probe: Solution, lo: int, hi: int, counter: Counter) -> tuple[int, int, int]:
    """Scan the fronts of ``fs`` at ranks ``lo..hi``, best first, until one
    is not decided by a member dominating ``probe``; returns that front's
    nature, rank and position, or the last front's ``(-1, hi, pos)`` when a
    member dominates ``probe`` at every rank (``(-1, lo - 1, 0)`` when the
    run is empty).

    Each front is scanned in order for its first member that ``probe``
    dominates (1), is dominated by (-1) or is ``probe`` itself, its id
    under its vector (0); its answer is that nature and the member's
    1-based position, or ``(0, 0)`` when ``probe`` is non-dominated with
    the whole front and not stored there.  One witness decides the front:
    as an antichain it cannot hold both a member dominating ``probe`` and
    one that ``probe`` dominates.  An insert probe's id is never stored
    (:meth:`~ndfronts.core.FrontSet.admit` guarantees it), so an insert
    stops at a dominance only.  The numpy scan leans on the antichain
    further: it tests the dominator side first and passes a front whose
    first member no worse than ``probe`` differs from it after that one
    comparison (see :func:`_scan_columns`).  So the fronts scanned must be
    antichains, as every front of a valid partition is; on others the
    answer may differ from the member loop's.

    The whole run of ranks is one call, so the linear order pays Python's
    call overhead once per search rather than per front.  A probe whose M
    is not the set's raises :class:`~ndfronts.core.DimensionMismatchError`
    before any front is charged.  At M > 3 every front, and at M = 2 or 3
    a front of at least ``_SCAN_MIN_WIDTH`` members, is tested whole
    through its record (see :meth:`~ndfronts.core.FrontSet._columns`,
    which raises while building one for a member of another M) by
    :func:`_scan_columns`, against the probe's ``(M, 1)`` column, built
    once per call at the first such front.  A narrower front at M = 2 or
    3, even one that keeps a record, is tested one member at a time with
    :func:`~ndfronts.core.dom_nature`'s rule unrolled inline; a member
    reached whose M is not the probe's raises
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
    if m != fs.m and rank < hi:
        raise _mismatch(probe, fronts[rank][0])
    col = None  # the probe as an (M, 1) column, built at the first numpy scan
    while nat == -1 and rank < hi:
        front = fronts[rank]
        rank += 1
        if m > 3 or len(front) >= _SCAN_MIN_WIDTH:
            if col is None:
                col = np.array(objs)[:, None]
            nat, pos = _scan_columns(fs._columns(front), front, col, probe)
        else:
            # unrolled: the probe weakly dominating the member is a dominance
            # unless the vectors are equal, when only the probe's own id stops
            # the scan, and the member weakly dominating the probe is one,
            # since the first test has excluded equal vectors
            nat = pos = 0
            try:
                if m == 2:
                    for i, sol in enumerate(front, 1):
                        q0, q1 = sol.objectives  # ValueError unless the member has M = 2 too
                        if p0 <= q0 and p1 <= q1:
                            if p0 < q0 or p1 < q1:
                                nat, pos = 1, i
                                break
                            if sol.id == pid:
                                pos = i
                                break
                        elif q0 <= p0 and q1 <= p1:
                            nat, pos = -1, i
                            break
                else:
                    for i, sol in enumerate(front, 1):
                        q0, q1, q2 = sol.objectives  # ValueError unless the member has M = 3 too
                        if p0 <= q0 and p1 <= q1 and p2 <= q2:
                            if p0 < q0 or p1 < q1 or p2 < q2:
                                nat, pos = 1, i
                                break
                            if sol.id == pid:
                                pos = i
                                break
                        elif q0 <= p0 and q1 <= p1 and q2 <= p2:
                            nat, pos = -1, i
                            break
            except ValueError:
                raise _mismatch(probe, sol) from None
        counter.pair_compares += pos or len(front)
    return nat, rank, pos


def _scan_columns(cols: np.ndarray, front: list[Solution], col: np.ndarray, probe: Solution) -> tuple[int, int]:
    """:func:`_first_witness`'s answer for ``front`` given as its record,
    an ``(M, n)`` objective array (every front at M > 3, a wide one
    otherwise), against ``probe``, also given as its ``(M, 1)`` column
    ``col``.  Uncounted, so only :func:`_first_witness` calls it.

    It relies on ``front`` being an antichain, as every front of a valid
    partition is, and tests the dominator side first: one numpy comparison
    finds the members no worse than the probe in every objective.  If the
    first of them differs from the probe, it dominates the probe, and no
    member of an antichain equals the probe or is dominated by it, since
    that first member would dominate it too: the answer is ``(-1, w + 1)``
    at once, and the other side is never compared.  If it equals the
    probe, every weakly related member is an equal vector, and only the
    probe's own id among them stops the scan, with nature 0.  With no such
    member a second comparison finds the first member the probe dominates,
    or none, ``(0, 0)``.  A front that is not an antichain may be answered
    otherwise than by the member loop.  Its temporaries are ``(M, n)``
    bool arrays, M·n bytes each."""
    le = np.logical_and.reduce(cols <= col)  # the member weakly dominates the probe
    w = int(le.argmax())
    if le.item(w):
        if front[w].objectives != probe.objectives:
            return -1, w + 1
        for i in np.flatnonzero(le).tolist():  # every one an equal vector
            if front[i].id == probe.id:
                return 0, i + 1
        return 0, 0
    ge = np.logical_and.reduce(cols >= col)  # the probe dominates the member
    w = int(ge.argmax())
    return (1, w + 1) if ge.item(w) else (0, 0)


def dom_set(fs: FrontSet, front: Front, new: Solution, start: int, counter: Counter) -> np.ndarray:
    """Classify ``front``, a front of ``fs``, against ``new``, moving
    nothing: one bool per member, False for each member at or after position
    ``start`` (1-based) that ``new`` dominates and True for the rest, as
    ``stays`` for :meth:`~ndfronts.core.FrontSet._move`.  Positions before
    ``start`` were classified by the caller.  The tail is one
    ``1 x len(tail)`` :func:`~ndfronts.core._dominated` test, so each
    candidate is compared exactly once; when
    :meth:`~ndfronts.core.FrontSet._columns` gives the front's record (at
    M >= 3 at any width, which builds it on first read), the tail is a
    slice of it.  Raises IndexError, with nothing counted, unless
    ``1 <= start <= len(front) + 1``.

    Above the :func:`~ndfronts.core.dom_nature` floor the block tests weak
    dominance (see :func:`~ndfronts.core._dominated`), which also hits a
    member equal to ``new``; such a member stays.  The hits of every path
    are searched for one, and only when one is found are the members
    compared with ``new``.  :func:`_settle` never meets one: a tail member
    equal to ``new`` would dominate the witness before the tail, in the
    same front.
    """
    if not 1 <= start <= len(front) + 1:
        raise IndexError(f"start {start} out of range 1..{len(front) + 1}")
    cols = fs._columns(front)
    tail = front[start - 1 :]
    hit = _dominated([new], tail, counter, None, None if cols is None else cols[:, start - 1 :])
    stays = np.ones(len(front), dtype=bool)
    stays[start - 1 :] = np.logical_not(hit)
    if any(q.objectives == new.objectives for q in compress(tail, hit)):
        stays |= [q.objectives == new.objectives for q in front]  # those before start stay anyway
    return stays


def update_insert(fs: FrontSet, index: int, counter: Counter) -> None:
    """Restore the partition below front ``index`` after an insert placed
    its displaced set there: :func:`_cascade` from that rank, with
    weak-dominance blocks.

    It assumes, unchecked, the state :func:`_settle` leaves: front
    ``index`` is the set the insert displaced from the front above it,
    and every front below is as the partition stood before the insert.
    The weak blocks rely on it (see :func:`~ndfronts.core._dominated`)."""
    if not 2 <= index <= len(fs.fronts):
        raise IndexError(f"front index {index} out of range for an insert cascade")
    _cascade(fs, index, counter)


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
    :func:`update_insert` settles the displaced set.
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
        update_insert(fs, index + 1, counter)


def update_delete(fs: FrontSet, index: int, counter: Counter) -> None:
    """Restore the partition below front ``index`` after a member left it:
    :func:`_cascade` from that rank, with weak-dominance blocks.

    It assumes, unchecked, that ``fs`` is a valid partition apart from the
    departed member, as a library delete leaves it and as the CLI's
    ``run --fs``, which validates its dump, guarantees.  The weak blocks
    rely on it (see :func:`~ndfronts.core._dominated`)."""
    if not 1 <= index < len(fs.fronts):
        raise IndexError(f"front index {index} out of range for a delete cascade")
    _cascade(fs, index, counter)


def _cascade(fs: FrontSet, index: int, counter: Counter) -> None:
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
    (see :meth:`~ndfronts.core.FrontSet._columns`) where that side keeps
    one.  The members a step leaves in the lower front are the next step's
    upper front.  At M >= 3 every front keeps its record at any width, and
    :meth:`~ndfronts.core.FrontSet._move` slices the survivors' columns
    into theirs, so a front's array is built from tuples once and read by
    every later cascade.  At M = 2 a front narrower than
    ``_SCAN_MIN_WIDTH`` keeps none, and each block reads such a side from
    its members' tuples; no step keeps a copy for the next, so a cascade
    reads a survivor's tuple at most twice, as one step's lower side and
    the next step's upper side.

    Each step's block follows the one block rule of
    :func:`~ndfronts.core._dominated`: above its smallest sizes it tests
    weak dominance only, which is exact here because both entries,
    :func:`update_insert` and :func:`update_delete`, start from a valid
    partition, where no member of a front equals a member of the front
    above it.
    """
    while index < len(fs.fronts):
        upper, lower = fs.fronts[index - 1], fs.fronts[index]
        stays = _dominated(upper, lower, counter, fs._columns(upper), fs._columns(lower))
        kept = fs._move(lower, stays, upper)
        if kept is lower:
            return
        if not kept:
            fs.fronts.pop(index)
            return
        fs.fronts[index] = kept
        index += 1
