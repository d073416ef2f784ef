"""Dominance binary search over the ordered front list.

The "tree" is pure index arithmetic over front ranks: a node is a front,
its left subtree holds better (lower) ranks, its right subtree worse ones.
Nothing is materialized; a navigation leaves behind only its comparison
trace, at most floor(log2 K) + 1 records long.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ndfronts.core import Counter, FrontSet, Solution
from ndfronts.linear import (
    Position,
    _first_witness,
    _settle,
    insert_linear,
    locate_sequential,
)


class TreeVariant(Enum):
    """How the root of a rank range is picked when bisecting."""

    LEFT_BALANCED = "left"  # midpoint rounds up; left children fill first
    RIGHT_BALANCED = "right"  # midpoint rounds down; right children fill first


class CmpRecord(NamedTuple):
    """One probed front during navigation.

    ``dom`` is the probe's nature against that front (1 dominating witness,
    -1 dominated witness, 0 non-dominated); ``s_index`` is the 1-based
    witness position.  When ``dom`` is 0, ``s_index`` is the position of the
    member with the probe's id, or 0 when no member has it.  A named tuple
    is cheap to build once per probed front; like any tuple, a record
    compares equal to a plain tuple of the same three values.
    """

    dom: int
    f_index: int
    s_index: int


def navigate(
    fs: FrontSet, new: Solution, variant: TreeVariant, counter: Counter, *, find_id: bool = True
) -> list[CmpRecord]:
    """Binary-search the front ranks for where ``new`` belongs.

    At each probed front, solutions are scanned in order: a dominating
    witness sends the search left (better ranks), a dominated witness right
    (worse ranks, when the variant still has a right range), and
    non-domination with the whole front goes left.  A member with ``new``'s
    id ends the search (lookups); an insert, whose probe's id is never
    stored, passes ``find_id=False`` to skip that search (see
    :func:`~ndfronts.linear._first_witness`).  Requires K >= 2; with a
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
        nat, pos = _first_witness(fs, fs.fronts[mid - 1], new, counter, find_id=find_id)
        trace.append(CmpRecord(nat, mid, pos))
        if nat == -1 and mid != hi:
            lo = mid + 1
        elif (nat == 1 or not pos) and mid != lo:
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
    fs.admit(new)
    trace = navigate(fs, new, variant, counter, find_id=False)
    # Every record that is not dominated moves the search to strictly better
    # ranks, so the last such record is the best rank where no front member
    # dominates ``new``; without one, ``new`` is dominated by every front.
    rec = next((r for r in reversed(trace) if r.dom != -1), CmpRecord(0, fs.k + 1, 0))
    _settle(fs, rec.f_index, rec.dom, rec.s_index, new, counter)


def lookup_tree(fs: FrontSet, sol: Solution, counter: Counter) -> Position | None:
    """Binary-search the fronts for the stored solution with ``sol``'s id.

    ``sol``'s vector only steers the left-balanced :func:`navigate`, which
    stops at the member with ``sol``'s id; the last trace record holds the
    answer.  With fewer than two fronts this is the sequential scan.
    """
    if fs.k < 2:
        return locate_sequential(fs, sol, counter)
    last = navigate(fs, sol, TreeVariant.LEFT_BALANCED, counter)[-1]
    return Position(last.f_index, last.s_index) if last.dom == 0 and last.s_index else None
