"""Closed-form worst-case comparison counts and deterministic scenario builders.

The ``max_comp_*`` functions evaluate the worst-case cost formulas for a
given front-size profile.  Each bounds the worst insert that settles at
rank 1 on that profile, and :func:`gen_two_front` attains it on two fronts.
They bound no other insert: on profile (1, 5), a probe dominated by front 1
that dominates all of front 2 costs 6 under every approach, while
:func:`max_comp_linear` and :func:`max_comp_right_tree` give 1.  Over all
profiles of N solutions the linear formula peaks on a two-front profile,
:func:`worst_split` (first front of ceil(N/2)+1 for even N, ceil(N/2) for
odd N).

The generators build populations with a known level structure and integer-
exact comparison counts; no randomness anywhere, so measured counters are
stable golden values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ndfronts.core import Solution


@dataclass(frozen=True)
class FrontProfile:
    """Front sizes (n_1, ..., n_K), best rank first; every size >= 1."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(v) for v in self.sizes)
        if not sizes:
            raise ValueError("a profile needs at least one front")
        if any(v < 1 for v in sizes):
            raise ValueError(f"front sizes must be positive: {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)


def _cascade_sum(sizes: tuple[int, ...]) -> int:
    # worst downward cascade: every candidate checked against the full
    # displaced set while exactly one solution settles per rank
    return sum((sizes[i - 1] - 1) * sizes[i] for i in range(1, len(sizes)))


def max_comp_linear(profile: FrontProfile) -> int:
    """Worst-case pair comparisons for one linear insert (or delete with
    sequential search): a full first-front scan plus the cascade sum."""
    return profile.sizes[0] + _cascade_sum(profile.sizes)


def probe_path_cost(profile: FrontProfile, round_up: bool) -> int:
    """Pair comparisons of full scans of the fronts on the root-to-rank-1
    navigation path, with round-up (left-balanced) or round-down
    (right-balanced) midpoints: the navigation term of the tree worst cases."""
    sizes = profile.sizes
    bias = 1 if round_up else 0
    rank = (len(sizes) + 1 + bias) // 2
    cost = sizes[rank - 1]
    while rank > 1:
        rank = (rank + bias) // 2
        cost += sizes[rank - 1]
    return cost


def max_comp_left_tree(profile: FrontProfile) -> int:
    """Worst-case pair comparisons with left-balanced (round-up) navigation:
    the probe-path cost plus the cascade sum."""
    return probe_path_cost(profile, round_up=True) + _cascade_sum(profile.sizes)


def max_comp_right_tree(profile: FrontProfile) -> int:
    """Worst-case pair comparisons with right-balanced (round-down)
    navigation; same shape as the left variant with floor midpoints."""
    return probe_path_cost(profile, round_up=False) + _cascade_sum(profile.sizes)


def gen_chain(n: int, m: int = 2) -> list[Solution]:
    """n solutions in a total domination order: solution i dominates every
    solution j > i, so a full sort yields n singleton fronts."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [Solution(f"c{i}", (float(i),) * m) for i in range(1, n + 1)]


def gen_antichain(n: int, m: int = 2) -> list[Solution]:
    """n mutually non-dominated solutions: a full sort yields one front."""
    if n < 0:
        raise ValueError("n must be non-negative")
    pad = (0.0,) * (m - 2)
    return [Solution(f"a{i}", (float(i), float(n - i)) + pad) for i in range(1, n + 1)]


def gen_equal_fronts(n: int, k: int, m: int = 2) -> list[Solution]:
    """k fronts of n/k solutions each; every solution is dominated by all
    solutions of the preceding front.  Requires k to divide n."""
    if k < 1:
        raise ValueError("k must be positive")
    if n % k:
        raise ValueError(f"k={k} does not divide n={n}")
    q = n // k
    pad = (0.0,) * (m - 2)
    sols = []
    for f in range(1, k + 1):
        base = f * q  # keeps every coordinate of front f below all of front f+1
        for j in range(1, q + 1):
            sols.append(Solution(f"e{f}_{j}", (float(base + j), float(base + q + 1 - j)) + pad))
    return sols


def gen_two_front(n1: int, n2: int, m: int = 2) -> tuple[list[Solution], Solution]:
    """Two-front instance (sizes n1, n2) plus a probe whose insertion costs
    exactly the ``max_comp_*`` formula values for the (n1, n2) profile.

    The probe is non-dominated with exactly the first solution of front 1 and
    dominates the remaining n1-1; every front-2 solution is dominated only by
    that first solution, so the whole displaced set is checked against every
    front-2 candidate before the cascade settles.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both fronts need at least one solution")
    pad = (0.0,) * (m - 2)
    first = [Solution(f"w1_{i}", (float(i), float(n1 + 1 - i)) + pad) for i in range(1, n1 + 1)]
    second = [
        Solution(f"w2_{j}", (1.0 + j / (2.0 * (n2 + 1)), float(n1 + n2 - j)) + pad)
        for j in range(1, n2 + 1)
    ]
    probe = Solution("probe", (1.5, 0.5) + pad)
    return first + second, probe


def gen_worst_two_front(n: int, m: int = 2) -> tuple[list[Solution], Solution]:
    """Two-front instance at the cascade-maximizing split of n solutions
    (:func:`worst_split`), plus the probe that realizes the worst case."""
    return gen_two_front(*worst_split(n).sizes, m)


def worst_split(n: int) -> FrontProfile:
    """The two-front profile maximizing the linear worst case for n solutions."""
    if n < 4:
        raise ValueError("need at least 4 solutions")
    n1 = n // 2 + 1
    return FrontProfile((n1, n - n1))
