"""Command-line front end: CSV ingestion, workload execution, benchmark
scenarios, and verification of front-set dumps.

Input format: CSV with a required header ``id,obj_1,...,obj_M`` (one solution
per row, all rows the same M).  Front-set dumps are JSON documents
``{"m": M, "fronts": [[{"id": ..., "obj": [...]}, ...], ...]}`` with fronts
ordered by rank; floats round-trip bit-exactly.  Exit codes: 0 on success /
PASS, 1 on any FAIL, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from ndfronts import analysis, oracle
from ndfronts.core import Counter, FrontSet, Solution, validate
from ndfronts.dbst import TreeVariant, insert_tree, lookup_tree
from ndfronts.linear import Position, delete, insert_linear, locate_sequential

APPROACHES = ("linear", "ltree", "rtree")

SCENARIOS = ("chain", "antichain", "equal-fronts", "worst-two-front")


class InputError(ValueError):
    """Malformed input file or workload."""


class CheckFailedError(AssertionError):
    """--check found an invalid partition after a mutation."""


def insert_with(fs: FrontSet, sol: Solution, approach: str, counter: Counter) -> None:
    if approach == "linear":
        insert_linear(fs, sol, counter)
    elif approach == "ltree":
        insert_tree(fs, sol, TreeVariant.LEFT_BALANCED, counter)
    elif approach == "rtree":
        insert_tree(fs, sol, TreeVariant.RIGHT_BALANCED, counter)
    else:
        raise ValueError(f"unknown approach {approach!r}")


def delete_with(fs: FrontSet, sol: Solution, approach: str, counter: Counter) -> None:
    delete(fs, sol, "sequential" if approach == "linear" else "tree", counter)


def lookup_with(fs: FrontSet, sol: Solution, approach: str, counter: Counter) -> Position | None:
    if approach == "linear":
        return locate_sequential(fs, sol, counter)
    return lookup_tree(fs, sol, counter)


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class InsertStep:
    solution: Solution


@dataclass(frozen=True)
class DeleteStep:
    id: str


@dataclass(frozen=True)
class LookupStep:
    id: str


Step = Union[InsertStep, DeleteStep, LookupStep]


@dataclass
class Workload:
    """Ordered steps over one front set; ids referenced by delete/lookup must
    be live at that point (previously inserted or preloaded, not deleted)."""

    m: int
    steps: list[Step]


def check_workload(workload: Workload, initial_ids: Iterable[str] = ()) -> None:
    """Raise InputError unless every delete/lookup references a live id."""
    live = set(initial_ids)
    for num, step in enumerate(workload.steps, 1):
        if isinstance(step, InsertStep):
            if step.solution.id in live:
                raise InputError(f"step {num}: insert of already-live id {step.solution.id!r}")
            live.add(step.solution.id)
        elif isinstance(step, DeleteStep):
            if step.id not in live:
                raise InputError(f"step {num}: delete of unknown id {step.id!r}")
            live.discard(step.id)
        else:
            if step.id not in live:
                raise InputError(f"step {num}: lookup of unknown id {step.id!r}")


def random_workload(seed: int, m: int = 3, total_steps: int = 60, max_live: int = 40) -> Workload:
    """Seeded random insert/delete/lookup mix; deterministic for a given seed.

    Coordinates are continuous draws, so no two solutions share a vector.
    """
    rng = random.Random(seed)
    steps: list[Step] = []
    live: list[str] = []
    next_id = 1
    for _ in range(total_steps):
        roll = rng.random()
        want_insert = roll < 0.62 or len(live) < 2
        if want_insert and len(live) < max_live:
            sid = f"s{next_id}"
            next_id += 1
            steps.append(InsertStep(Solution(sid, tuple(rng.random() for _ in range(m)))))
            live.append(sid)
        elif roll < 0.85 and live:
            idx = rng.randrange(len(live))
            steps.append(DeleteStep(live.pop(idx)))
        elif live:
            steps.append(LookupStep(rng.choice(live)))
    return Workload(m, steps)


def _check_negate(negate: Sequence[int], m: int) -> None:
    for col in negate:
        if not 1 <= col <= m:
            raise InputError(f"--negate column {col} out of range 1..{m}")


def _parse_objectives(where: str, cells: Sequence[str], negate: Sequence[int]) -> tuple[float, ...]:
    """Parse one row's objective cells, negating the ``negate`` columns."""
    try:
        objs = [float(cell) for cell in cells]
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None
    for col in negate:
        objs[col - 1] = -objs[col - 1]
    return tuple(objs)


def load_workload(path: str, negate: Sequence[int] = ()) -> Workload:
    """Read a workload CSV: header ``op,id,obj_1,...,obj_M``; insert rows carry
    a full objective vector, delete/lookup rows leave the objective cells empty."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty workload file")
    header = [cell.strip().lower() for cell in rows[0]]
    if len(header) < 4 or header[0] != "op" or header[1] != "id":
        raise InputError(f"{path}: header must be op,id,obj_1,...,obj_M with M >= 2")
    m = len(header) - 2
    _check_negate(negate, m)
    steps: list[Step] = []
    for lineno, row in enumerate(rows[1:], 2):
        if not row or all(not cell.strip() for cell in row):
            continue
        op = row[0].strip().lower()
        sid = row[1].strip()
        if not sid:
            raise InputError(f"{path}:{lineno}: missing id")
        if op == "insert":
            if len(row) != m + 2:
                raise InputError(f"{path}:{lineno}: expected {m} objective values")
            objs = _parse_objectives(f"{path}:{lineno}", row[2:], negate)
            steps.append(InsertStep(Solution(sid, objs)))
        elif op == "delete":
            steps.append(DeleteStep(sid))
        elif op == "lookup":
            steps.append(LookupStep(sid))
        else:
            raise InputError(f"{path}:{lineno}: unknown op {op!r}")
    return Workload(m, steps)


# ---------------------------------------------------------------------------
# population CSV and front-set dumps

def load_population(path: str, negate: Sequence[int] = ()) -> tuple[list[Solution], int]:
    """Read a population CSV (header ``id,obj_1,...,obj_M``); returns the
    solutions in row order plus M."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty file, header row required")
    header = [cell.strip().lower() for cell in rows[0]]
    if len(header) < 3 or header[0] != "id":
        raise InputError(f"{path}: header must be id,obj_1,...,obj_M with M >= 2")
    m = len(header) - 1
    _check_negate(negate, m)
    sols = []
    for lineno, row in enumerate(rows[1:], 2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != m + 1:
            raise InputError(f"{path}:{lineno}: expected {m} objective values")
        sid = row[0].strip()
        if not sid:
            raise InputError(f"{path}:{lineno}: missing id")
        sols.append(Solution(sid, _parse_objectives(f"{path}:{lineno}", row[1:], negate)))
    return sols, m


def front_set_to_doc(fs: FrontSet) -> dict:
    return {
        "m": fs.m,
        "fronts": [
            [{"id": sol.id, "obj": list(sol.objectives)} for sol in front]
            for front in fs.fronts
        ],
    }


def front_set_from_doc(doc: dict) -> FrontSet:
    try:
        m = int(doc["m"])
        fronts = [
            [Solution(str(entry["id"]), tuple(entry["obj"])) for entry in front]
            for front in doc["fronts"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed front-set document: {exc}") from None
    return FrontSet(m, fronts)


def _check_dump(fs: FrontSet, path: str) -> None:
    """Raise InputError unless every solution in a loaded dump has the dump's
    M and a distinct id.  O(N); ``verify`` skips this and reports such dumps
    as FAIL instead."""
    seen: set[str] = set()
    for sol in fs.solutions():
        if sol.m != fs.m:
            raise InputError(f"{path}: solution {sol.id!r} has M={sol.m}, dump has M={fs.m}")
        if sol.id in seen:
            raise InputError(f"{path}: duplicate id {sol.id!r}")
        seen.add(sol.id)


def write_dump(fs: FrontSet, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(front_set_to_doc(fs), fh, indent=2)
        fh.write("\n")


def read_dump(path: str) -> FrontSet:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read front-set dump {path}: {exc}") from None
    return front_set_from_doc(doc)


# ---------------------------------------------------------------------------
# operations behind the subcommands

def sort_online(
    population: Iterable[Solution],
    m: int,
    approach: str,
    counter: Counter,
    check: bool = False,
) -> FrontSet:
    """Insert solutions one by one as they arrive; after each arrival the
    partition is a valid level assignment of everything seen so far."""
    fs = FrontSet(m)
    for sol in population:
        insert_with(fs, sol, approach, counter)
        if check:
            problems = validate(fs)
            if problems:
                raise CheckFailedError(f"invalid partition after {sol.id!r}: {problems[0]}")
    return fs


def run_workload(
    fs: FrontSet,
    workload: Workload,
    approach: str,
    check: bool = False,
) -> dict:
    """Execute a workload against ``fs`` in place; returns the report."""
    check_workload(workload, initial_ids=(sol.id for sol in fs.solutions()))
    by_id = {sol.id: sol for sol in fs.solutions()}
    counter = Counter()
    step_reports = []
    total = 0
    for num, step in enumerate(workload.steps, 1):
        counter.reset()
        if isinstance(step, InsertStep):
            insert_with(fs, step.solution, approach, counter)
            by_id[step.solution.id] = step.solution
            op, sid, extra = "insert", step.solution.id, {}
        elif isinstance(step, DeleteStep):
            delete_with(fs, by_id.pop(step.id), approach, counter)
            op, sid, extra = "delete", step.id, {}
        else:
            pos = lookup_with(fs, by_id[step.id], approach, counter)
            found = pos is not None
            op, sid = "lookup", step.id
            extra = {"found": found}
            if found:
                extra["front"] = pos.f_index
                extra["index"] = pos.s_index
        if check:
            problems = validate(fs)
            if problems:
                raise CheckFailedError(f"invalid partition after step {num}: {problems[0]}")
        total += counter.pair_compares
        step_reports.append(
            {
                "step": num,
                "op": op,
                "id": sid,
                "compares": counter.pair_compares,
                "fronts": fs.k,
                "solutions": len(fs),
                **extra,
            }
        )
    return {
        "approach": approach,
        "steps": step_reports,
        "total_compares": total,
        "final_fronts": fs.k,
        "final_solutions": len(fs),
    }


def verify_front_set(fs: FrontSet) -> tuple[bool, list[str]]:
    """Structural validation plus equivalence with a from-scratch sort of the
    stored solutions."""
    problems = validate(fs)
    if not problems:
        resorted = oracle.full_sort(list(fs.solutions()), fs.m)
        if not oracle.same_partition(fs, resorted):
            problems.append("partition differs from a from-scratch sort of the same solutions")
    return (not problems, problems)


def _floor_log2(n: int) -> int:
    return n.bit_length() - 1


def _deepest_leaf(k: int) -> tuple[int, int]:
    """(front rank, depth) of a deepest leaf of the round-up rank tree over 1..k."""
    best_rank, best_depth = 1, 0
    stack = [(1, k, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        if lo == hi:
            if depth > best_depth:
                best_rank, best_depth = lo, depth
            continue
        mid = (lo + hi + 1) // 2
        stack.append((lo, mid - 1, depth + 1))
        if mid != hi:
            stack.append((mid + 1, hi, depth + 1))
    return best_rank, best_depth


def bench_rows(scenario: str, n: int, k: int | None, approaches: Sequence[str]) -> list[dict]:
    """Run one benchmark scenario; each row compares a measured counter value
    against its closed-form prediction."""
    rows = []
    pad_m = 2

    def row(approach: str, operation: str, measured: int, expected: int) -> dict:
        return {
            "scenario": scenario,
            "approach": approach,
            "operation": operation,
            "measured": measured,
            "expected": expected,
            "ok": measured == expected,
        }

    if scenario == "chain":
        population = analysis.gen_chain(n, pad_m)
        log_cost = _floor_log2(n) + 1
        for approach in approaches:
            fs = FrontSet(pad_m, [[sol] for sol in population])
            counter = Counter()
            if approach == "ltree":
                # the left-balanced worst case is a probe dominating every front
                probe = Solution("probe", (0.0,) * pad_m)
                expected = log_cost
            elif approach == "rtree":
                probe = Solution("probe", (float(n + 1),) * pad_m)
                expected = log_cost
            else:
                probe = Solution("probe", (float(n + 1),) * pad_m)
                expected = n
            insert_with(fs, probe, approach, counter)
            rows.append(row(approach, "insert worst probe", counter.pair_compares, expected))
    elif scenario == "antichain":
        population = analysis.gen_antichain(n, pad_m)
        probe = Solution("probe", (0.5, float(n)))
        for approach in approaches:
            fs = FrontSet(pad_m, [population])
            counter = Counter()
            insert_with(fs, probe, approach, counter)
            rows.append(row(approach, "insert worst probe", counter.pair_compares, n))
    elif scenario == "equal-fronts":
        if not k:
            raise InputError("equal-fronts needs --k")
        if n % k:
            raise InputError(f"--k {k} does not divide --n {n}")
        q = n // k
        population = analysis.gen_equal_fronts(n, k, pad_m)
        fronts = [population[i * q : (i + 1) * q] for i in range(k)]
        fs = FrontSet(pad_m, fronts)
        leaf_rank, leaf_depth = _deepest_leaf(k)
        for approach in approaches:
            counter = Counter()
            if approach == "linear":
                target = fronts[-1][-1]  # last solution of the last front
                expected = k + q - 1
            else:
                target = fronts[leaf_rank - 1][-1]  # last solution of a deepest leaf front
                expected = leaf_depth + q
            pos = lookup_with(fs, target, approach, counter)
            measured = counter.pair_compares if pos is not None else -1
            rows.append(row(approach, "lookup worst probe", measured, expected))
    elif scenario == "worst-two-front":
        population, probe = analysis.gen_worst_two_front(n, pad_m)
        profile = analysis.worst_split(n)
        n1 = profile.sizes[0]
        formulas = {
            "linear": analysis.max_comp_linear,
            "ltree": analysis.max_comp_left_tree,
            "rtree": analysis.max_comp_right_tree,
        }
        for approach in approaches:
            fs = FrontSet(pad_m, [population[:n1], population[n1:]])
            counter = Counter()
            insert_with(fs, probe, approach, counter)
            rows.append(row(approach, "insert worst probe", counter.pair_compares, formulas[approach](profile)))
    else:
        raise InputError(f"unknown scenario {scenario!r}")
    return rows


# ---------------------------------------------------------------------------
# rendering and entry points

def _render(doc: dict, fmt: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "json":
        json.dump(doc, out, indent=2)
        out.write("\n")
        return
    kind = doc.get("kind")
    if kind == "bench":
        for r in doc["rows"]:
            out.write(
                f"{r['scenario']:<16} {r['approach']:<7} {r['operation']:<20} "
                f"measured={r['measured']:<8} expected={r['expected']:<8} "
                f"{'PASS' if r['ok'] else 'FAIL'}\n"
            )
        out.write(f"{'ALL PASS' if doc['ok'] else 'FAIL'}\n")
    elif kind == "verify":
        for line in doc["problems"]:
            out.write(f"problem: {line}\n")
        out.write(
            f"{'PASS' if doc['ok'] else 'FAIL'}: {doc['solutions']} solutions in {doc['fronts']} fronts\n"
        )
    elif kind == "sort":
        out.write(
            f"sorted {doc['solutions']} solutions into {doc['fronts']} fronts "
            f"({doc['approach']}), {doc['total_compares']} pair comparisons\n"
        )
        for rank, size in enumerate(doc["front_sizes"], 1):
            out.write(f"  front {rank}: {size} solutions\n")
    elif kind == "run":
        for r in doc["steps"]:
            line = (
                f"step {r['step']:>4} {r['op']:<7} {r['id']:<12} "
                f"compares={r['compares']:<6} fronts={r['fronts']:<4} solutions={r['solutions']}"
            )
            if r["op"] == "lookup":
                line += f" found={r['found']}"
                if r["found"]:
                    line += f" at=({r['front']},{r['index']})"
            out.write(line + "\n")
        out.write(
            f"total: {doc['total_compares']} pair comparisons, "
            f"{doc['final_solutions']} solutions in {doc['final_fronts']} fronts\n"
        )
    else:
        json.dump(doc, out, indent=2)
        out.write("\n")


def _cmd_sort(args: argparse.Namespace) -> int:
    population, m = load_population(args.input, args.negate)
    counter = Counter()
    fs = sort_online(population, m, args.approach, counter, check=args.check)
    doc = {
        "kind": "sort",
        "approach": args.approach,
        "solutions": len(fs),
        "fronts": fs.k,
        "front_sizes": [len(front) for front in fs.fronts],
        "total_compares": counter.pair_compares,
    }
    if args.report == "json":
        doc["front_set"] = front_set_to_doc(fs)
    _render(doc, args.report)
    if args.out:
        write_dump(fs, args.out)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workload:
        workload = load_workload(args.workload, args.negate)
    elif args.seed is not None:
        workload = random_workload(args.seed, m=args.m, total_steps=args.steps)
    else:
        raise InputError("run needs --workload FILE or --seed N")
    if args.fs:
        fs = read_dump(args.fs)
        _check_dump(fs, args.fs)
    else:
        fs = FrontSet(workload.m)
    report = run_workload(fs, workload, args.approach, check=args.check)
    report = {"kind": "run", **report}
    if args.report == "json":
        report["front_set"] = front_set_to_doc(fs)
    _render(report, args.report)
    if args.out:
        write_dump(fs, args.out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    approaches = [args.approach] if args.approach else list(APPROACHES)
    scenarios = [args.scenario] if args.scenario else list(SCENARIOS)
    rows = []
    started = time.perf_counter()
    for scenario in scenarios:
        k = args.k
        if scenario == "equal-fronts" and not k:
            k = max(2, int(math.isqrt(args.n)))
            while args.n % k:
                k -= 1
        rows.extend(bench_rows(scenario, args.n, k, approaches))
    elapsed = time.perf_counter() - started
    ok = all(r["ok"] for r in rows)
    _render({"kind": "bench", "rows": rows, "ok": ok}, args.report)
    print(f"bench wall clock: {elapsed:.3f}s", file=sys.stderr)
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    fs = read_dump(args.fs)
    ok, problems = verify_front_set(fs)
    doc = {
        "kind": "verify",
        "ok": ok,
        "problems": problems,
        "solutions": len(fs),
        "fronts": fs.k,
    }
    _render(doc, args.report)
    return 0 if ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndfronts",
        description="Maintain non-domination levels under online insertion and deletion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_negate: bool = True) -> None:
        p.add_argument("--approach", choices=APPROACHES, default="linear")
        p.add_argument("--check", action="store_true", help="validate after every mutation")
        p.add_argument("--report", choices=("text", "json"), default="text")
        if with_negate:
            p.add_argument(
                "--negate",
                type=_parse_cols,
                default=(),
                metavar="COLS",
                help="comma-separated 1-based objective columns to negate at ingestion",
            )

    p_sort = sub.add_parser("sort", help="online-sort a CSV population in arrival order")
    p_sort.add_argument("--input", required=True, help="population CSV (id,obj_1,...,obj_M)")
    p_sort.add_argument("--out", help="write the final front-set dump to this path")
    common(p_sort)
    p_sort.set_defaults(func=_cmd_sort)

    p_run = sub.add_parser("run", help="execute a workload of inserts, deletes, and lookups")
    p_run.add_argument("--workload", help="workload CSV (op,id,obj_1,...,obj_M)")
    p_run.add_argument("--fs", help="start from this front-set dump instead of empty")
    p_run.add_argument("--seed", type=int, help="generate a seeded random workload instead of a file")
    p_run.add_argument("--steps", type=int, default=60, help="steps for --seed workloads")
    p_run.add_argument("--m", type=int, default=3, help="objective count for --seed workloads")
    p_run.add_argument("--out", help="write the final front-set dump to this path")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="measured vs formula comparison counts")
    p_bench.add_argument("--scenario", choices=SCENARIOS, help="default: all scenarios")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--k", type=int, help="front count for equal-fronts")
    p_bench.add_argument("--approach", choices=APPROACHES, help="default: all approaches")
    p_bench.add_argument("--report", choices=("text", "json"), default="text")
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser("verify", help="validate a front-set dump against a fresh sort")
    p_verify.add_argument("--fs", required=True, help="front-set dump to verify")
    p_verify.add_argument("--report", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def _parse_cols(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        cols = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad column list {text!r}") from None
    if any(c < 1 for c in cols):
        raise argparse.ArgumentTypeError("columns are 1-based")
    return cols


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailedError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
