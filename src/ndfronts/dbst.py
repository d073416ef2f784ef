"""The rank search: where a probe belongs among the ordered fronts, and the
approach table whose rows insert, look up and delete with it.

The approaches differ only in the order in which the search probes the
front ranks.  :attr:`TreeVariant.SEQUENTIAL` probes them best-first, as one
:func:`~ndfronts.linear._first_witness` call over ranks 1..K.  The two
bisection orders binary-search them, one such call per probed rank, and
their "tree" is pure index arithmetic over front ranks: a node is a front,
its left subtree holds better (lower) ranks, its right subtree worse ones.
Nothing is materialized; a navigation leaves behind only its comparison
trace, at most floor(log2 K) + 1 probes long.  :data:`APPROACHES` names each
approach as one :class:`Approach` row of two orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ndfronts.core import Counter, FrontSet, MissingSolutionError, Solution
from ndfronts.linear import Position, _first_witness, _settle, update_delete


class TreeVariant(Enum):
    """The order in which a search probes the front ranks."""

    SEQUENTIAL = "sequential"  # best-first, the linear approach's scan
    LEFT_BALANCED = "left"  # bisection; midpoint rounds up, left children fill first
    RIGHT_BALANCED = "right"  # bisection; midpoint rounds down, right children fill first


# Every linear operation reads this member.  On CPython 3.11, reading
# it as ``TreeVariant.SEQUENTIAL`` goes through the enum metaclass's
# ``__getattr__`` and costs about 0.1 us; a module global costs a tenth.
_SEQUENTIAL = TreeVariant.SEQUENTIAL

# Whether each bisection order's midpoint rounds up; navigate knows no other.
_ROUNDS_UP = {TreeVariant.LEFT_BALANCED: 1, TreeVariant.RIGHT_BALANCED: 0}


def navigate(
    fs: FrontSet, new: Solution, variant: TreeVariant, counter: Counter, *, find_id: bool = True
) -> list[tuple[int, int, int]]:
    """Binary-search the front ranks for where ``new`` belongs, in one of
    the two bisection orders; returns one ``(nature, rank, position)``
    triple per probed front, in probe order, as
    :func:`~ndfronts.linear._first_witness` answered for a run of that one
    rank.

    At each probed front, solutions are scanned in order: a dominating
    witness sends the search left (better ranks), a dominated witness right
    (worse ranks), and non-domination with the whole front goes left; the
    search ends when that side's range is empty, so it probes nothing when
    ``fs`` has no fronts.  A member with ``new``'s id ends the search
    (lookups); an insert, whose probe's id is never stored, passes
    ``find_id=False`` to skip that search (see
    :func:`~ndfronts.linear._first_witness`).  Any variant other than the
    two bisection orders, :attr:`TreeVariant.SEQUENTIAL` included, raises
    ValueError before anything is probed.
    """
    bias = _ROUNDS_UP.get(variant)
    if bias is None:
        raise ValueError(f"navigate bisects; {variant} is not a bisection order")
    trace = []
    lo, hi = 1, fs.k
    while lo <= hi:
        mid = (lo + hi + bias) // 2
        nat, _, pos = probed = _first_witness(fs, new, mid, mid, counter, find_id)
        trace.append(probed)
        if nat == -1:
            lo = mid + 1
        elif nat == 1 or not pos:
            hi = mid - 1
        else:
            break
    return trace


def _search(fs: FrontSet, probe: Solution, order: TreeVariant, counter: Counter, find_id: bool) -> tuple[int, int, int]:
    """The probe that decides where ``probe`` belongs when the fronts are
    searched in ``order``: its nature, rank and position (see
    :func:`~ndfronts.linear._first_witness`) at the best rank where no
    member dominates ``probe``, or ``(0, K + 1, 0)`` when every front has
    such a member.

    The sequential order is one :func:`~ndfronts.linear._first_witness`
    call over ranks 1..K, which builds no trace: the linear approach probes
    every front above the decision, and a call or a triple per probe would
    slow it down.  A run dominated at every rank maps to ``(0, K + 1, 0)``,
    and so does the empty run of K = 0.  The bisection orders run
    :func:`navigate`, where a probe that is not dominated moves the search
    to strictly better ranks, so the last such probe decides.
    """
    if order is _SEQUENTIAL:
        probed = _first_witness(fs, probe, 1, fs.k, counter, find_id)
        return probed if probed[0] != -1 else (0, fs.k + 1, 0)
    for probed in reversed(navigate(fs, probe, order, counter, find_id=find_id)):
        if probed[0] != -1:
            return probed
    return 0, fs.k + 1, 0


def _insert(fs: FrontSet, new: Solution, order: TreeVariant, counter: Counter) -> None:
    """Insert ``new`` at the rank the search in ``order`` decides, where
    :func:`~ndfronts.linear._settle` stores it.  Every order produces the
    same partition; only the comparison counts differ."""
    fs.admit(new)
    nat, rank, pos = _search(fs, new, order, counter, False)
    _settle(fs, rank, nat, pos, new, counter)


@dataclass(frozen=True)
class Approach:
    """One update approach: the rank order its inserts search, and the one
    its deletes and lookups search.  Each operation is called as
    ``(fs, sol, counter)``, and a workload step names the one to call."""

    insert_order: TreeVariant
    search_order: TreeVariant

    def insert(self, fs: FrontSet, sol: Solution, counter: Counter) -> None:
        _insert(fs, sol, self.insert_order, counter)

    def lookup(self, fs: FrontSet, sol: Solution, counter: Counter) -> Position | None:
        """The position of the stored solution with ``sol``'s id, or None
        when it is not stored.

        ``sol``'s vector only steers.  A front with a member dominating
        ``sol`` is better than the target's.  The deciding front has none,
        so every member ahead of the target there is non-dominated with it,
        and the scan either reaches the id or proves it absent.
        """
        nat, rank, pos = _search(fs, sol, self.search_order, counter, True)
        return Position(rank, pos) if nat == 0 and pos else None

    def delete(self, fs: FrontSet, sol: Solution, counter: Counter) -> None:
        """Remove the stored solution with ``sol``'s id and restore
        validity; see :func:`delete`."""
        pos = self.lookup(fs, sol, counter)
        if pos is None:
            raise MissingSolutionError(sol.id)
        if fs.remove(pos.f_index, pos.s_index) and pos.f_index < len(fs.fronts):
            update_delete(fs, pos.f_index, counter)


# Lookups and deletes of both tree approaches bisect with round-up midpoints;
# the pinned counts depend on it.
APPROACHES: dict[str, Approach] = {
    "linear": Approach(TreeVariant.SEQUENTIAL, TreeVariant.SEQUENTIAL),
    "ltree": Approach(TreeVariant.LEFT_BALANCED, TreeVariant.LEFT_BALANCED),
    "rtree": Approach(TreeVariant.RIGHT_BALANCED, TreeVariant.LEFT_BALANCED),
}


def insert_linear(fs: FrontSet, new: Solution, counter: Counter) -> None:
    """Insert ``new`` by scanning fronts best-first.

    Per front: a solution dominating ``new`` sends it to the next front after
    one witness; ``new`` dominating a solution triggers collection of every
    dominated member and a downward cascade; non-domination with the whole
    front merges ``new`` there.  Dominated by all fronts, it becomes the new
    last front.
    """
    _insert(fs, new, _SEQUENTIAL, counter)


def insert_tree(fs: FrontSet, new: Solution, variant: TreeVariant, counter: Counter) -> None:
    """Insert ``new`` using binary-search navigation to find its rank.

    The final partition always equals what :func:`insert_linear` produces on
    the same input; only the comparison counts differ.
    """
    _insert(fs, new, variant, counter)


def locate_sequential(fs: FrontSet, sol: Solution, counter: Counter) -> Position | None:
    """Front-by-front scan for the stored solution with ``sol``'s id: the
    linear row's lookup."""
    return APPROACHES["linear"].lookup(fs, sol, counter)


def lookup_tree(fs: FrontSet, sol: Solution, counter: Counter) -> Position | None:
    """Binary-search the fronts for the stored solution with ``sol``'s id:
    the ltree row's lookup, which every tree approach shares, whichever
    variant its inserts use.
    """
    return APPROACHES["ltree"].lookup(fs, sol, counter)


def delete(fs: FrontSet, sol: Solution, strategy: str, counter: Counter) -> None:
    """Remove the stored solution with ``sol``'s id and restore validity.

    ``strategy`` picks the :data:`APPROACHES` row that searches:
    ``"sequential"`` the linear row, which scans fronts in order, ``"tree"``
    the ltree row, which binary-searches over front ranks as
    :func:`lookup_tree` does; an id it does not find raises
    :class:`~ndfronts.core.MissingSolutionError`.  The solution then leaves
    its front and the id index through
    :meth:`~ndfronts.core.FrontSet.remove`.  Deleting from the last front
    costs nothing further; an emptied front is dropped outright and lower
    ranks renumber; otherwise the promotion cascade runs from the source
    front.
    """
    name = {"sequential": "linear", "tree": "ltree"}.get(strategy)
    if name is None:
        raise ValueError(f"unknown delete strategy {strategy!r}")
    APPROACHES[name].delete(fs, sol, counter)
