"""Domain types and dominance primitives for non-domination level maintenance.

Objective vectors follow the minimization convention throughout: a solution
dominates another when it is no worse in every objective and strictly better
in at least one.  Maximization objectives are handled by negating values at
ingestion, never here.  Objective equality is exact floating-point equality;
there is no epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress
from operator import attrgetter, not_
from typing import Iterable, Iterator

import numpy as np


class DimensionMismatchError(ValueError):
    """Two solutions (or a solution and a front set) disagree on objective count."""


class DuplicateIdError(ValueError):
    """A solution id is already stored."""


class MissingSolutionError(KeyError):
    """A delete target is not stored."""


class ContractViolationError(ValueError):
    """An operation was handed input that breaks its preconditions."""


@dataclass(frozen=True, slots=True)
class Solution:
    """A point with a stable opaque id and M >= 2 finite objective values."""

    id: str
    objectives: tuple[float, ...]

    def __post_init__(self) -> None:
        objs = tuple(map(float, self.objectives))
        if len(objs) < 2:
            raise ValueError(f"solution {self.id!r}: need at least 2 objectives, got {len(objs)}")
        if not all(map(math.isfinite, objs)):
            raise ValueError(f"solution {self.id!r}: objectives must be finite")
        object.__setattr__(self, "objectives", objs)

    @property
    def m(self) -> int:
        return len(self.objectives)


class DomRelation(Enum):
    """Outcome of comparing solution A against solution B."""

    DOMINATES = 1
    DOMINATED_BY = -1
    NON_DOMINATED = 0
    IDENTICAL = 2


class Counter:
    """Monotone tally of solution-pair dominance comparisons.

    A :func:`dom_nature` call adds exactly one, no matter how many
    objectives the pair carries, and a :func:`_dominated` block adds one for
    every pair in it, whichever way it tests them: with :func:`dom_nature`
    calls, unrolled at M = 2, or in numpy (see :func:`_dominated`).  The
    only other place that counts
    is the front scan (:func:`ndfronts.linear._first_witness`), one call per
    run of ranks: it tests each wide front in numpy and each narrow one
    member by member (unrolled when M is 2 or 3), both uncounted, and adds
    as it passes each front the pairs the sequential scan tests there.
    Reset it between operations to read per-operation costs.
    """

    __slots__ = ("pair_compares",)

    def __init__(self) -> None:
        self.pair_compares = 0

    def reset(self) -> None:
        self.pair_compares = 0

    def __repr__(self) -> str:
        return f"Counter(pair_compares={self.pair_compares})"


def _mismatch(a: Solution, b: Solution) -> DimensionMismatchError:
    return DimensionMismatchError(f"cannot compare {a.id!r} (M={a.m}) with {b.id!r} (M={b.m})")


def dom_nature(a: Solution, b: Solution, counter: Counter) -> int:
    """Three-way dominance test: 1 if ``a`` dominates ``b``, -1 if ``b``
    dominates ``a``, 0 otherwise.

    Identical vectors cannot dominate each other and yield 0.  This is the
    library's reference pair kernel, for any M: the smallest
    :func:`_dominated` blocks, :func:`validate` and :func:`check_dom` call
    it.  At M = 2 the pair is unrolled: two weak tests each way, and a
    strict one only when ``a`` is no worse in both.  At any other M it
    walks the coordinates and stops as soon as each side has won one.
    :func:`_dominated`'s larger blocks test only its weak half, which is
    the whole rule where no pair can be equal vectors, unrolled at M = 2
    (:func:`_dominated_m2`) or in numpy, and
    :func:`ndfronts.linear._first_witness` applies it to one probe and the
    members of a run of fronts in one call, with no call per pair or per
    narrow front: in numpy for a front of at least ``_SCAN_MIN_WIDTH``
    members, member by member otherwise, unrolled when M is 2 or 3.
    """
    ao, bo = a.objectives, b.objectives
    m = len(ao)
    if m != len(bo):
        raise _mismatch(a, b)
    counter.pair_compares += 1
    if m == 2:
        a0, a1 = ao
        b0, b1 = bo
        if a0 <= b0 and a1 <= b1:
            return 1 if a0 < b0 or a1 < b1 else 0
        return -1 if b0 <= a0 and b1 <= a1 else 0
    a_better = b_better = False
    for x, y in zip(ao, bo):
        if x < y:
            if b_better:
                return 0
            a_better = True
        elif y < x:
            if a_better:
                return 0
            b_better = True
    return 1 if a_better else -1 if b_better else 0


# Below this many pairs a block runs the dom_nature loop: one list
# comprehension over the members per peer, one call per pair, returning its
# list as the mask.  dom_nature's M = 2 pair is unrolled too.  The unrolled
# M = 2 block would still beat it (it saves the call per pair), but the loop
# is kept because perfbench's tracer divides by the dom_nature calls it
# counts, and a two-objective run needs some (see ROADMAP.md, item 1).
_BLOCK_MIN_PAIRS = 32
# Up to this many pairs an M = 2 block is tested unrolled in Python, which
# beats numpy's fixed cost per block; larger blocks, blocks whose members
# come as a record's columns, and every block of another M go to numpy
# (measured with perfbench and timeit; see CHANGES.md).
_BLOCK_MAX_PAIRS_M2 = 256


def _cols(sols: list[Solution], m: int) -> np.ndarray:
    """Objectives of ``sols`` as an ``(M, n)`` float64 array whose column
    ``j`` holds ``sols[j]``, read from their tuples in one flat pass, or
    with one ``np.array`` call for a side of one to four members.

    Every array of a group of members, record or block side, is built
    here, so this is where a member whose M is not ``m`` is caught: it
    raises :class:`DimensionMismatchError`, a ValueError, before reading
    any value.  A flat read alone would accept members whose lengths only
    sum to ``n * m``.
    """
    objs = [sol.objectives for sol in sols]
    if not {m}.issuperset(map(len, objs)):
        odd = next(sol for sol in sols if sol.m != m)
        raise DimensionMismatchError(f"solution {odd.id!r} has M={odd.m}, expected M={m}")
    if 0 < len(objs) < 5:  # np.array's fixed cost is the smaller here
        return np.array(objs).T
    return np.fromiter(chain.from_iterable(objs), np.float64, len(objs) * m).reshape(len(objs), m).T


def _dominated_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether some peer column of ``a`` ``(M, g)`` weakly dominates each
    member column of ``b`` ``(M, n)``, as ``n`` bools; one 2-D comparison
    per objective (see :func:`_dominated`).  Uncounted, so only
    :func:`_dominated` calls it."""
    weak = a[0, :, None] <= b[0]
    for k in range(1, len(b)):
        weak &= a[k, :, None] <= b[k]
    return weak.any(axis=0)


def _dominated_m2(peer_objs: list[tuple[float, ...]], member_objs: list[tuple[float, ...]]) -> list[bool]:
    """Whether some peer weakly dominates each member, for M = 2 objective
    pairs: one pass over the members per peer, with every pair tested
    before the running flag is read (see :func:`_dominated`).  Uncounted,
    so only :func:`_dominated` calls it."""
    hit = [False] * len(member_objs)
    for p0, p1 in peer_objs:
        hit = [(p0 <= q0 and p1 <= q1) or h for (q0, q1), h in zip(member_objs, hit)]
    return hit


def _dominated(
    peers: list[Solution],
    members: list[Solution],
    counter: Counter,
    peer_cols: np.ndarray | None,
    member_cols: np.ndarray | None,
) -> tuple[list[bool] | np.ndarray, np.ndarray | None]:
    """Whether some peer dominates each member: a mask with ``mask[j]``
    True when a member of ``peers`` dominates ``members[j]``, and the member
    columns its numpy path read, given or built.  The numpy path returns a
    bool array; the two Python paths, the :func:`dom_nature` loop and the
    unrolled M = 2 path, and an empty block return the list of bools they
    built, with None for the columns.  A cascade step carries a slice of the
    columns to its next step and hands the mask, list or array, to
    :meth:`FrontSet._move`.

    Every pair is tested, with no early exit, and the block adds exactly
    ``len(peers) * len(members)`` to ``counter``.  Mixed objective counts
    raise :class:`DimensionMismatchError` before anything is counted.
    The path depends on the pair count, M and ``member_cols`` alone.
    Blocks of fewer than ``_BLOCK_MIN_PAIRS`` pairs run the
    :func:`dom_nature` loop: one pass over the members per peer, with
    exactly one :func:`dom_nature` call per pair; M = 2 blocks of up to
    ``_BLOCK_MAX_PAIRS_M2`` pairs run :func:`_dominated_m2` on the
    members' tuples unless ``member_cols`` is given; the rest run
    :func:`_dominated_cols`, one numpy comparison per objective.

    The one block rule: the two larger paths test weak dominance only, a
    peer no worse than a member in every objective, and the caller
    promises that no member's vector equals a peer's.  Without equal
    vectors a weak dominance is a dominance, so every path gives the same
    mask; for a member equal to a peer the larger paths answer True and
    the :func:`dom_nature` loop False.  Every step of a cascade
    (:func:`ndfronts.linear._cascade`) after an insert or a delete keeps
    the promise: its peers are part of one front of the partition as it
    stood before the operation, and its members are the next front.  In a
    valid partition no member ``y`` of front ``j + 1`` equals a member
    ``x`` of front ``j``: the ``z`` of front ``j`` that dominates ``y``
    would dominate ``x`` too, and front ``j`` is an antichain.
    :func:`ndfronts.linear.dom_set`, which is public and may be handed a
    new solution equal to a member, keeps its strict answer itself.

    ``peer_cols`` and ``member_cols`` may give a side's objectives as an
    ``(M, n)`` array whose column ``j`` holds that side's ``j``-th member,
    such as a front's stored record (see :class:`FrontSet`), a slice of it,
    or columns a cascade carried from its previous step.  The block then
    reads them instead of building an array from the members' tuples, and
    checks that side's M by the array's shape alone: such an array was
    built by :func:`_cols`, which admits only members of its M.
    """
    if not peers or not members:
        return [False] * len(members), None
    m = len(peers[0].objectives)
    pairs = len(peers) * len(members)
    if pairs < _BLOCK_MIN_PAIRS:
        if not {m}.issuperset(map(len, map(attrgetter("objectives"), chain(peers, members)))):
            raise _mismatch(peers[0], next(sol for sol in chain(peers, members) if sol.m != m))
        hit = [False] * len(members)
        for p in peers:  # dom_nature is called before the running flag is read
            hit = [dom_nature(p, q, counter) == 1 or h for q, h in zip(members, hit)]
        return hit, None
    if m == 2 and pairs <= _BLOCK_MAX_PAIRS_M2 and member_cols is None:
        try:  # unpacking every tuple checks its M before the block is counted
            hit = _dominated_m2([p.objectives for p in peers], [q.objectives for q in members])
        except ValueError:
            raise _mismatch(peers[0], next(sol for sol in chain(peers, members) if sol.m != m)) from None
        counter.pair_compares += pairs
        return hit, None
    sides = []
    for side, cols in ((peers, peer_cols), (members, member_cols)):
        if cols is None:
            cols = _cols(side, m)
        elif len(cols) != m:
            raise _mismatch(peers[0], side[0])
        sides.append(cols)
    counter.pair_compares += pairs
    return _dominated_cols(*sides), sides[1]


def check_dom(a: Solution, b: Solution, counter: Counter) -> DomRelation:
    """:func:`dom_nature` as a :class:`DomRelation`, telling identical vectors apart."""
    nat = dom_nature(a, b, counter)
    if nat == 0 and a.objectives == b.objectives:
        return DomRelation.IDENTICAL
    return DomRelation(nat)


# Fronts at least this wide are scanned with numpy, reading their record;
# narrower ones keep the member loop even when they hold one (measured with
# perfbench; see CHANGES.md).  Which fronts keep a record is
# FrontSet._keeps_record's rule.
_SCAN_MIN_WIDTH = 96


class Front(list):
    """The members of one front, in order, and its record: :attr:`buf` is
    None or an ``(M, capacity)`` float64 array whose first ``len(front)``
    columns hold the members' objectives, column ``j`` those of the
    ``j``-th member.  Probe scans and the cascade's :func:`_dominated`
    tests read that slice directly; every member has the array's M, so its
    shape alone answers a dimension check.

    Only :class:`FrontSet`'s mutators edit a front and its record, and
    always together, so the two agree.  Only :meth:`FrontSet._columns`
    hands the record out.
    """

    # a class-level default, not __slots__: building a front stays cheap
    buf: np.ndarray | None = None


def _extend(front: Front, n: int, cols: np.ndarray) -> None:
    """Write ``cols``, an ``(M, k)`` array, into ``front``'s record from
    column ``n`` on, growing it by a quarter when it is full."""
    buf, end = front.buf, n + cols.shape[1]
    if end > buf.shape[1]:
        grown = np.empty((len(buf), end + end // 4), dtype=np.float64)
        grown[:, :n] = buf[:, :n]
        front.buf = buf = grown
    buf[:, n:end] = cols


class FrontSet:
    """Ordered partition of solutions into fronts of decreasing dominance.

    ``fronts[0]`` is the rank-1 (best) front.  Stored solutions have the
    set's M and distinct ids: the constructor and :meth:`admit`, which every
    insert calls first, raise :class:`DimensionMismatchError` or
    :class:`DuplicateIdError` otherwise.  Only :meth:`admit` and
    :meth:`remove` change the id index.

    Each front is a :class:`Front`, and may also keep an objective array,
    its record, which its probe scans and the ``dom_set`` and cascade
    blocks that test it read.  The front holds its record itself, which
    :meth:`_columns`, the only way to read one, builds on first read, and
    keeps while :meth:`_keeps_record` allows: at M = 2 from
    ``_SCAN_MIN_WIDTH`` members on, at M >= 3 at any width.  The probe
    scans read it only from ``_SCAN_MIN_WIDTH`` members on.  The contract
    that keeps it right: a front's members are edited only through this
    class, whose every edit applies to the members and the record together.  :meth:`remove` and :meth:`_append` edit one
    member, and :meth:`_move` moves any number of members from one front to
    another, columns and all, in one step.  Whole fronts in ``fronts`` may
    be inserted, dropped or replaced, as :mod:`ndfronts.linear` does, but
    an inserted front must be a :class:`Front`, and the members must stay
    the solutions the id index holds: a dropped front takes its record with
    it but leaves its ids indexed, so they still read as stored and cannot
    be inserted again.  A front whose members are edited any other way
    leaves its record out of step.  :func:`validate` reports both, and the
    scans check neither.
    At most one mutator may act on a FrontSet at a time, while read-only
    traversals may share a snapshot freely.
    """

    __slots__ = ("m", "fronts", "_ids")

    def __init__(self, m: int, fronts: Iterable[Iterable[Solution]] = ()) -> None:
        if m < 2:
            raise ValueError(f"need at least 2 objectives, got {m}")
        self.m = int(m)
        self.fronts: list[Front] = [Front(front) for front in fronts]
        self._ids: set[str] = set()
        self.admit(*self.solutions())

    def admit(self, *sols: Solution) -> None:
        """Index solutions about to be stored.  Raises, with nothing indexed,
        unless each has the set's M and an id that is neither stored nor
        repeated among ``sols``."""
        ids: set[str] = set()
        for sol in sols:
            if sol.m != self.m:
                raise DimensionMismatchError(
                    f"solution {sol.id!r} has M={sol.m}, front set has M={self.m}"
                )
            if sol.id in self._ids or sol.id in ids:
                raise DuplicateIdError(f"duplicate solution id {sol.id!r}")
            ids.add(sol.id)
        self._ids |= ids

    def remove(self, f_index: int, s_index: int) -> bool:
        """Remove the solution at 1-based front ``f_index``, position
        ``s_index``; a front this empties is dropped and lower ranks
        renumber.  The record's later columns shift down one, unless the
        front is left narrower than :meth:`_keeps_record` allows, which
        drops the record.  Returns whether the front still holds members.
        Raises IndexError, with nothing removed, unless
        ``1 <= f_index <= K`` and ``1 <= s_index <= len(front)``."""
        if not 1 <= f_index <= len(self.fronts):
            raise IndexError(f"front index {f_index} out of range 1..{len(self.fronts)}")
        front = self.fronts[f_index - 1]
        if not 1 <= s_index <= len(front):
            raise IndexError(f"solution index {s_index} out of range 1..{len(front)} of front {f_index}")
        self._ids.discard(front.pop(s_index - 1).id)
        buf, n = front.buf, len(front)
        if buf is not None:
            if not self._keeps_record(n):
                front.buf = None
            else:
                buf[:, s_index - 1 : n] = buf[:, s_index : n + 1]
        if not front:
            del self.fronts[f_index - 1]
        return bool(front)

    def _append(self, front: Front, sol: Solution) -> None:
        """Append ``sol`` to ``front``, a front of this set, writing its
        column into the record in place while the record has room."""
        front.append(sol)
        buf, n = front.buf, len(front) - 1
        if buf is not None:
            if n < buf.shape[1]:
                buf[:, n] = sol.objectives
            else:
                _extend(front, n, np.array(sol.objectives)[:, None])

    def _move(self, src: Front, stays: list[bool] | np.ndarray, dest: Front) -> Front:
        """Append the members of ``src`` flagged False in ``stays``, a list
        of bools or a bool array, to ``dest``, in order; return the others in
        order, as ``src`` itself when all stay and as a new front otherwise,
        which the caller puts in ``src``'s place.  Each part is one
        :func:`~itertools.compress` of ``src`` by a list mask: a list is used
        as it is, and an array is turned into one.  Columns move with their
        members: each part's columns are the mask's slice of ``src``'s
        record, which leaves with ``src``, cut with ``ndarray.compress``,
        so a bool array of the mask is built only when ``src`` has a
        record.  The part that stays keeps its slice where
        :meth:`_keeps_record` allows; where it does not (at M = 2, below
        ``_SCAN_MIN_WIDTH``), a cascade carries the columns it needs itself.
        ``dest`` with a record has the moved columns appended to it; one
        without gets one, from its members' tuples and the moved columns,
        only when the move takes it to ``_SCAN_MIN_WIDTH`` members, and is
        otherwise left to :meth:`_columns` to build on its next read."""
        keep = stays.tolist() if isinstance(stays, np.ndarray) else stays
        if all(keep):
            return src
        start = len(dest)
        kept = Front(compress(src, keep))
        dest.extend(compress(src, map(not_, keep)))
        rec = src.buf
        if rec is not None:
            rec = rec[:, : len(src)]
            stays = np.asarray(stays)
            if self._keeps_record(len(kept)):
                kept.buf = rec.compress(stays, axis=1)
        if dest.buf is None and rec is not None and len(dest) >= _SCAN_MIN_WIDTH:
            dest.buf = np.ascontiguousarray(_cols(dest[:start], self.m))
        if dest.buf is not None:
            _extend(dest, start, rec.compress(~stays, axis=1) if rec is not None else _cols(dest[start:], self.m))
        return kept

    def _keeps_record(self, width: int) -> bool:
        """Whether a front of ``width`` members of this set keeps a record.
        At M = 2 only from ``_SCAN_MIN_WIDTH`` members on: its narrower
        blocks run unrolled on the members' tuples, and a record would push
        them onto numpy.  At M >= 3 at any width: every block above the
        :func:`dom_nature` floor runs on numpy, so a record built once
        spares every later block the build from tuples."""
        return self.m > 2 or width >= _SCAN_MIN_WIDTH

    def _columns(self, front: Front) -> np.ndarray | None:
        """The ``(M, n)`` objective array of ``front``, a front of this set,
        whose column ``j`` holds ``front[j]``, or None when
        :meth:`_keeps_record` gives ``front`` no record.  This is the only
        way to read a record; a front without one gets one, built from its
        members' tuples, which the front keeps and this set's mutators keep
        in step.  At M >= 3 that holds at any width, so a front's array is
        built from tuples once, not once per cascade."""
        if not self._keeps_record(len(front)):
            return None
        if front.buf is None:
            front.buf = np.ascontiguousarray(_cols(front, self.m))
        return front.buf[:, : len(front)]

    @property
    def k(self) -> int:
        """Number of fronts."""
        return len(self.fronts)

    def __len__(self) -> int:
        return sum(len(front) for front in self.fronts)

    def __contains__(self, sol_id: str) -> bool:
        return sol_id in self._ids

    def solutions(self) -> Iterator[Solution]:
        """All stored solutions, best front first, in front order."""
        for front in self.fronts:
            yield from front

    def level_ids(self) -> list[set[str]]:
        """Id sets per front, best first."""
        return [{sol.id for sol in front} for front in self.fronts]

    def copy(self) -> "FrontSet":
        """Independent structural copy (solutions themselves are immutable
        and shared): the fronts, the id index and the records' live columns
        are copied as they are, with no check, since this set already passed
        them."""
        clone = FrontSet.__new__(FrontSet)
        clone.m = self.m
        clone.fronts = [Front(front) for front in self.fronts]
        for front, twin in zip(self.fronts, clone.fronts):
            buf = getattr(front, "buf", None)  # a front put in by hand may be a plain list
            if buf is not None:
                twin.buf = buf[:, : len(front)].copy()
        clone._ids = set(self._ids)
        return clone

    def __repr__(self) -> str:
        sizes = tuple(len(front) for front in self.fronts)
        return f"FrontSet(m={self.m}, sizes={sizes})"


def validate(fs: FrontSet) -> list[str]:
    """Check every structural invariant of ``fs``.

    Returns a list of human-readable violations; an empty list means the
    partition is a valid set of non-domination levels, the id index holds
    exactly the stored ids, and every record (see :class:`Front`) holds its
    front's objectives.
    Diagnostic only: it never raises on bad structure and does not touch
    any caller's counter.
    """
    problems: list[str] = []
    scratch = Counter()
    seen: dict[str, int] = {}
    dims_ok = True
    for f_index, front in enumerate(fs.fronts, 1):
        if not front:
            problems.append(f"front {f_index} is empty")
        for sol in front:
            if sol.m != fs.m:
                problems.append(
                    f"front {f_index}: {sol.id!r} has M={sol.m}, front set has M={fs.m}"
                )
                dims_ok = False
            if sol.id in seen:
                problems.append(
                    f"front {f_index}: duplicate id {sol.id!r} (also in front {seen[sol.id]})"
                )
            else:
                seen[sol.id] = f_index
    if not dims_ok:
        return problems
    if fs._ids != seen.keys():
        stale, unindexed = sorted(fs._ids - seen.keys()), sorted(seen.keys() - fs._ids)
        problems.append(
            f"id index differs from the stored ids: {len(stale)} indexed but not stored {stale[:3]}, "
            f"{len(unindexed)} stored but not indexed {unindexed[:3]}"
        )

    for f_index, front in enumerate(fs.fronts, 1):
        buf = getattr(front, "buf", None)  # as in copy(), a plain list has none
        if buf is not None and buf.shape[1] < len(front):
            problems.append(f"front {f_index}: its record of {buf.shape[1]} columns is narrower than its {len(front)} members")
        elif buf is not None and not np.array_equal(buf[:, : len(front)], _cols(front, fs.m)):
            problems.append(f"front {f_index}: its record differs from its members' objectives")

    for f_index, front in enumerate(fs.fronts, 1):
        for i in range(len(front)):
            for j in range(i + 1, len(front)):
                nat = dom_nature(front[i], front[j], scratch)
                if nat == 1:
                    problems.append(
                        f"front {f_index}: {front[i].id!r} dominates {front[j].id!r} within one front"
                    )
                elif nat == -1:
                    problems.append(
                        f"front {f_index}: {front[j].id!r} dominates {front[i].id!r} within one front"
                    )

    for f_index in range(2, fs.k + 1):
        above = fs.fronts[f_index - 2]
        for sol in fs.fronts[f_index - 1]:
            if not any(dom_nature(better, sol, scratch) == 1 for better in above):
                problems.append(
                    f"front {f_index}: {sol.id!r} is not dominated by any solution in front {f_index - 1}"
                )
    return problems
