"""Domain types and dominance primitives for non-domination level maintenance.

Objective vectors follow the minimization convention throughout: a solution
dominates another when it is no worse in every objective and strictly better
in at least one.  Maximization objectives are handled by negating values at
ingestion, never here.  Objective equality is exact floating-point equality;
there is no epsilon.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, compress
from operator import not_
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

    The charging rule: a pair counts one, however many objectives it
    carries, and only three kernels count.  A :func:`dom_nature` call
    charges its pair.  A :func:`_dominated` block charges every pair in it,
    ``len(peers) * len(members)``, whatever path answers it, though the
    M = 2 sweep tests no pair on its own: it sorts the peers and bisects
    once per member.  The front scan (:func:`ndfronts.linear._first_witness`)
    charges what a sequential scan tests: for each front it passes, the
    pairs up to the member that decides the front, or the front's width
    when none does, however the front is tested.  Whether a block should
    charge as a scan does is ROADMAP.md's item 13.  Reset it between
    operations to read per-operation costs.
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
    library's reference pair kernel, for any M; :func:`_dominated` and
    :func:`ndfronts.linear._first_witness` apply its rule without a call
    per pair.  At M = 2 the pair is unrolled; at any other M it walks the
    coordinates and stops as soon as each side has won one.
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


# The dom_nature floor's bound: _dominated states the paths and the reasons.
_BLOCK_MIN_PAIRS = 32


def _cols(sols: list[Solution], m: int) -> np.ndarray:
    """Objectives of ``sols`` as a C-contiguous ``(M, n)`` float64 array
    whose column ``j`` holds ``sols[j]``: :func:`_dominated_cols` reads a
    contiguous side several times faster than a transposed view.  Raises
    :class:`DimensionMismatchError` before reading any value unless every
    member has M = ``m``, since a flat read alone would accept members
    whose lengths only sum to ``n * m``."""
    objs = [sol.objectives for sol in sols]
    if not {m}.issuperset(map(len, objs)):
        odd = next(sol for sol in sols if sol.m != m)
        raise DimensionMismatchError(f"solution {odd.id!r} has M={odd.m}, expected M={m}")
    if len(objs) == 1:  # np.array's fixed cost is the smaller here
        return np.array(objs).T
    return np.fromiter(chain.from_iterable(zip(*objs)), np.float64, len(objs) * m).reshape(m, len(objs))


def _dominated_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_dominated`'s numpy path: whether some peer column of ``a``
    ``(M, g)`` weakly dominates each member column of ``b`` ``(M, n)``, as
    ``n`` bools, from one 3-D comparison whose temporary takes M·g·n
    bytes.  Uncounted, so only :func:`_dominated` calls it."""
    return np.logical_or.reduce(np.logical_and.reduce(a[:, :, None] <= b[:, None, :]))


def _dominated_m2(peer_objs: list[tuple[float, ...]], member_objs: list[tuple[float, ...]]) -> list[bool]:
    """:func:`_dominated`'s M = 2 path on objective tuples, a sweep over
    the peers' staircase: ``least[i]`` is the smallest f2 among the ``i``
    peers with the smallest f1, so some peer weakly dominates ``(q0, q1)``
    exactly when ``least[i] <= q1`` for the ``i`` peers whose f1 is at most
    ``q0``, which one bisection finds.  The peers may come in any order,
    repeat a vector or dominate each other.  Every tuple is unpacked as a
    pair, so one of another M raises :class:`ValueError` before any answer.
    Uncounted, so only :func:`_dominated` calls it."""
    peer_objs = sorted(peer_objs)
    firsts = [p0 for p0, _ in peer_objs]
    least = [math.inf, *accumulate([p1 for _, p1 in peer_objs], min)]
    return [least[bisect_right(firsts, q0)] <= q1 for q0, q1 in member_objs]


def _dominated(
    peers: list[Solution],
    members: list[Solution],
    counter: Counter,
    peer_cols: np.ndarray | None,
    member_cols: np.ndarray | None,
) -> list[bool] | np.ndarray:
    """Whether some peer dominates each member: a mask with ``mask[j]``
    True when a member of ``peers`` dominates ``members[j]``, as a list of
    bools from the Python paths and an empty block, and as a bool array
    from numpy.  Every pair is charged (see :class:`Counter`), though the
    M = 2 sweep tests no pair on its own.

    The block paths, picked by the pair count, M and whether a side comes
    as a record alone:

    - under ``_BLOCK_MIN_PAIRS`` pairs, the floor: one :func:`dom_nature`
      call per pair.  The sweep would beat it, but perfbench's tracer
      divides by the calls it counts, and a two-objective run needs some
      (ROADMAP.md, item 1);
    - at M = 2 with neither side given as a record, at any size:
      :func:`_dominated_m2`, a sort of the peers and one bisection per
      member, which beats numpy's fixed cost per block and its |peers| x
      |members| comparisons alike;
    - every other block, an M = 2 one with a record on either side
      included, where numpy measured faster than unpacking the tuples:
      :func:`_dominated_cols`.  A side given as ``peer_cols`` or
      ``member_cols``, a front's record or a slice of it (see
      :meth:`FrontSet._columns`), is read as it is; any other side is
      built by :func:`_cols`.

    The block rule: the two larger paths test weak dominance only, a peer
    no worse than a member in every objective, so for a member equal to a
    peer they answer True where the floor answers False.  The caller
    promises that no member's vector equals a peer's, which makes every
    path's mask the same.  Every cascade step keeps it, since adjacent
    fronts share no vector (see :class:`FrontSet`), and
    :func:`ndfronts.linear.dom_set` settles such ties itself.

    A block whose first member's M is not its first peer's raises
    :class:`DimensionMismatchError` before anything is counted.  That is
    the one check a block needs: every stored member has its set's M, so
    the only odd solution an API call can hand a block is ``dom_set``'s new
    one, at ``peers[0]``.  A block mixed by hand further in still raises,
    from :func:`dom_nature`, the sweep or :func:`_cols`, though
    the floor has by then counted the pairs before the odd member.
    """
    if not peers or not members:
        return [False] * len(members)
    m = len(peers[0].objectives)
    if len(members[0].objectives) != m:
        raise _mismatch(peers[0], members[0])
    pairs = len(peers) * len(members)
    if pairs < _BLOCK_MIN_PAIRS:
        hit = [False] * len(members)
        for p in peers:  # dom_nature is called before the running flag is read
            hit = [dom_nature(p, q, counter) == 1 or h for q, h in zip(members, hit)]
        return hit
    if m == 2 and peer_cols is None and member_cols is None:
        try:  # unpacking every tuple checks its M before the block is counted
            hit = _dominated_m2([p.objectives for p in peers], [q.objectives for q in members])
        except ValueError:
            raise _mismatch(peers[0], next(sol for sol in chain(peers, members) if sol.m != m)) from None
        counter.pair_compares += pairs
        return hit
    a = _cols(peers, m) if peer_cols is None else peer_cols
    b = _cols(members, m) if member_cols is None else member_cols
    counter.pair_compares += pairs
    return _dominated_cols(a, b)


def check_dom(a: Solution, b: Solution, counter: Counter) -> DomRelation:
    """:func:`dom_nature` as a :class:`DomRelation`, telling identical vectors apart."""
    nat = dom_nature(a, b, counter)
    if nat == 0 and a.objectives == b.objectives:
        return DomRelation.IDENTICAL
    return DomRelation(nat)


# The width threshold of the scan paths (ndfronts.linear._first_witness)
# and of the M = 2 record rule (FrontSet._keeps_record), set with perfbench.
_SCAN_MIN_WIDTH = 96


class Front(list):
    """The members of one front, in order, and its record: :attr:`buf` is
    None or an ``(M, capacity)`` float64 array whose first ``len(front)``
    columns hold the members' objectives, column ``j`` those of the
    ``j``-th member.  Only :class:`FrontSet` edits the two, together, and
    only :meth:`FrontSet._columns` hands the record out or builds it.
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

    ``fronts[0]`` is the rank-1 (best) front, and every front is a
    :class:`Front`.  The constructor and :meth:`admit`, which every insert
    calls first, raise :class:`DimensionMismatchError` or
    :class:`DuplicateIdError` unless each solution has the set's M and an
    id not yet stored.  Only :meth:`admit` and :meth:`remove` change the id
    index.

    The kernels trust these invariants of a valid partition, unchecked;
    :func:`validate` checks them all:

    - every member has the set's M, so a block or a scan compares one
      member's M at most (see :func:`_dominated`);
    - every front is an antichain;
    - every record holds its front's objectives;
    - adjacent fronts share no vector: if a member ``y`` of front ``j + 1``
      equalled a member ``x`` of front ``j``, the member of front ``j``
      that dominates ``y`` would dominate ``x`` too, in the same front.

    A set that breaks one may be answered otherwise than by
    :func:`dom_nature`'s rule; the CLI's ``run --fs`` validates the dump it
    loads before any search.  Records stay right because a front's members
    are edited only through this class, by :meth:`remove`, :meth:`_append`
    and :meth:`_move`, each of which edits the members and the record
    together.  Whole fronts in ``fronts`` may be inserted, dropped or
    replaced, as :mod:`ndfronts.linear` does, as long as an inserted front
    is a :class:`Front` and the members stay the solutions the id index
    holds: a dropped front takes its record with it but leaves its ids
    indexed, so they cannot be inserted again.  At most one mutator may act
    on a FrontSet at a time, while read-only traversals may share a
    snapshot freely.
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
        which the caller puts in ``src``'s place.  Columns move with their
        members: the part that stays keeps its slice of ``src``'s record
        where :meth:`_keeps_record` allows, and ``dest``, if it has a
        record, has the moved columns appended, sliced from ``src``'s record
        or read from the moved members' tuples.  A list mask is used as it
        is, and a bool array is built only when ``src`` has a record."""
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
        if dest.buf is not None:
            _extend(dest, start, rec.compress(~stays, axis=1) if rec is not None else _cols(dest[start:], self.m))
        return kept

    def _keeps_record(self, width: int) -> bool:
        """The record rule: whether a front of ``width`` members of this
        set keeps a record.  At M >= 3 at any width: every block above the
        :func:`dom_nature` floor runs on numpy, and at M > 3 so does every
        front scan, so a record built once spares every later block and
        scan the build from tuples.  At M = 2 only from ``_SCAN_MIN_WIDTH``
        members on, where the front scan reads it: a narrower front's
        blocks sweep its members' tuples, and a record would push them
        onto numpy.  :meth:`_columns` builds a record on the first read
        this allows; :meth:`remove` and :meth:`_move` drop one it no longer
        allows."""
        return self.m > 2 or width >= _SCAN_MIN_WIDTH

    def _columns(self, front: Front) -> np.ndarray | None:
        """The ``(M, n)`` objective array of ``front``, a front of this set,
        whose column ``j`` holds ``front[j]``, or None when
        :meth:`_keeps_record` gives ``front`` no record.  This is the only
        way to read a record, and it builds a missing one from the members'
        tuples, which the front then keeps."""
        if not self._keeps_record(len(front)):
            return None
        if front.buf is None:
            front.buf = _cols(front, self.m)
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
