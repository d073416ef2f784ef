#!/usr/bin/env python3
"""Measure how far online sorting stays below its N-times-offline cost bound.

Streams chain, antichain, and random populations through the online sorter
under each approach and reports total pair comparisons against N times the
cost of one from-scratch sort of the final population.
"""

from __future__ import annotations

import argparse
import random

from ndfronts import APPROACHES, Counter, Solution, full_sort, gen_antichain, gen_chain, same_partition
from ndfronts.cli import sort_online


def streams(n: int, seed: int) -> dict[str, list[Solution]]:
    rng = random.Random(seed)
    return {
        "chain worst-to-best": list(reversed(gen_chain(n))),
        "chain best-to-worst": gen_chain(n),
        "antichain": gen_antichain(n),
        "random m=3": [Solution(f"r{i}", (rng.random(), rng.random(), rng.random())) for i in range(n)],
    }


def population_size(text: str) -> int:
    """A ``--sizes`` entry: an integer of at least 1, or an argparse usage error."""
    n = int(text)  # argparse turns the ValueError of a non-integer into a usage error
    if n < 1:
        raise argparse.ArgumentTypeError(f"size must be at least 1, got {n}")
    return n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=population_size, nargs="+", default=[32, 64, 128])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{'N':>5} {'stream':<22} {'approach':<8} {'online':>9} {'offline':>9} {'bound':>10} {'ratio':>7}")
    for n in args.sizes:
        for label, stream in streams(n, args.seed).items():
            offline = Counter()
            reference = full_sort(stream, counter=offline)
            bound = n * offline.pair_compares
            for approach in APPROACHES:
                online = Counter()
                fs = sort_online(stream, stream[0].m, approach, online)
                assert same_partition(fs, reference)
                assert online.pair_compares <= bound
                ratio = online.pair_compares / offline.pair_compares if offline.pair_compares else 0.0
                print(
                    f"{n:>5} {label:<22} {approach:<8} {online.pair_compares:>9} "
                    f"{offline.pair_compares:>9} {bound:>10} {ratio:>7.2f}"
                )


if __name__ == "__main__":
    main()
