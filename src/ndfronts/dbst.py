"""Dominance binary search over the ordered front list.

The "tree" is pure index arithmetic over front ranks: a node is a front,
its left subtree holds better (lower) ranks, its right subtree worse ones.
Nothing is materialized; a navigation leaves behind only its comparison
trace, at most floor(log2 K) + 1 records long.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ndfronts.core import Counter, DomRelation, FrontSet, Solution, check_dom
from ndfronts.linear import Position, _check_insertable, _first_witness, _settle, insert_linear


class TreeVariant(Enum):
    """How the root of a rank range is picked when bisecting."""

    LEFT_BALANCED = "left"  # midpoint rounds up; left children fill first
    RIGHT_BALANCED = "right"  # midpoint rounds down; right children fill first


@dataclass(frozen=True)
class CmpRecord:
    """One probed front during navigation.

    ``dom`` is the probe's nature against that front (1 dominating witness,
    -1 dominated witness, 0 non-dominated with the whole front); ``s_index``
    is the 1-based witness position, or 0 when ``dom`` is 0.
    """

    dom: int
    f_index: int
    s_index: int


def navigate(fs: FrontSet, new: Solution, variant: TreeVariant, counter: Counter) -> list[CmpRecord]:
    """Binary-search the front ranks for where ``new`` belongs.

    At each probed front, solutions are scanned in order: a dominating
    witness sends the search left (better ranks), a dominated witness right
    (worse ranks, when the variant still has a right range), and
    non-domination with the whole front goes left.  Requires K >= 2; with a
    single front the linear path applies.
    """
    if fs.k < 2:
        raise ValueError("navigation needs at least 2 fronts; use the linear path")
    # Round-up midpoints always leave a left range and round-down ones a right
    # range, so a leaf (lo == hi) is just a midpoint with neither.
    bias = 1 if variant is TreeVariant.LEFT_BALANCED else 0
    trace: list[CmpRecord] = []
    lo, hi = 1, fs.k
    while True:
        mid = (lo + hi + bias) // 2
        nat, pos = _first_witness(fs.fronts[mid - 1], new, counter)
        trace.append(CmpRecord(nat, mid, pos))
        if nat == -1 and mid != hi:
            lo = mid + 1
        elif nat != -1 and mid != lo:
            hi = mid - 1
        else:
            return trace


def insert_tree(fs: FrontSet, new: Solution, variant: TreeVariant, counter: Counter) -> None:
    """Insert ``new`` using binary-search navigation to find its rank.

    With fewer than two fronts this is exactly the linear insertion.  The
    final partition always equals what :func:`ndfronts.linear.insert_linear`
    produces on the same input; only the comparison counts differ.
    """
    if fs.k < 2:
        insert_linear(fs, new, counter)
        return
    _check_insertable(fs, new)
    trace = navigate(fs, new, variant, counter)
    # Every record that is not dominated moves the search to strictly better
    # ranks, so the last such record is the best rank where no front member
    # dominates ``new``; without one, ``new`` is dominated by every front.
    rec = next((r for r in reversed(trace) if r.dom != -1), CmpRecord(0, fs.k + 1, 0))
    _settle(fs, rec.f_index, rec.dom, rec.s_index, new, counter)


def lookup_tree(fs: FrontSet, sol: Solution, counter: Counter) -> Position | None:
    """Binary-search the fronts for a stored solution identical to ``sol``.

    Dominating a probed solution means the target can only sit at better
    ranks (left); being dominated sends the search right; non-domination with
    a whole front also goes left.  Returns None when the search exhausts its
    range without an identical match.
    """
    if fs.k == 0:
        return None

    def search(lo: int, hi: int) -> Position | None:
        if lo == hi:
            for pos, stored in enumerate(fs.fronts[lo - 1], 1):
                rel = check_dom(sol, stored, counter)
                if rel is DomRelation.IDENTICAL:
                    return Position(lo, pos)
                if rel is not DomRelation.NON_DOMINATED:
                    return None
            return None
        mid = (lo + hi + 1) // 2
        for pos, stored in enumerate(fs.fronts[mid - 1], 1):
            rel = check_dom(sol, stored, counter)
            if rel is DomRelation.DOMINATES:
                return search(lo, mid - 1)
            if rel is DomRelation.DOMINATED_BY:
                if mid != hi:
                    return search(mid + 1, hi)
                # no right range: keep scanning this front, then fall left
            elif rel is DomRelation.IDENTICAL:
                return Position(mid, pos)
        return search(lo, mid - 1)

    return search(1, fs.k)
