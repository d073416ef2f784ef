"""Command-line front end: CSV ingestion, workload execution, benchmark
scenarios, and verification of front-set dumps.

Input format: CSV with a required header ``id,obj_1,...,obj_M`` (one solution
per row, all rows the same M).  Front-set dumps are JSON documents
``{"m": M, "fronts": [[{"id": ..., "obj": [...]}, ...], ...]}`` with fronts
ordered by rank; floats round-trip bit-exactly.  Exit codes: 0 on success /
PASS, 1 on any FAIL, 2 on usage or input errors, and 141 (128 + SIGPIPE, as
the shell reports a process killed by it) with nothing on stderr when the
reader closes stdout before the report is written, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from ndfronts import analysis, core, oracle
from ndfronts.core import Counter, FrontSet, Solution, validate
from ndfronts.dbst import APPROACHES


SCENARIOS = ("chain", "antichain", "equal-fronts", "worst-two-front")


class InputError(ValueError):
    """Malformed input file or workload."""


class CheckFailedError(AssertionError):
    """--check found an invalid partition after a mutation."""


# ---------------------------------------------------------------------------
# workloads

class Step(NamedTuple):
    """One workload step: the :class:`~ndfronts.dbst.Approach` method
    ``op`` (``insert``, ``delete`` or ``lookup``) applied to the solution
    with ``id``.  Only an insert carries its ``solution``; the others act on
    the live one."""

    op: str
    id: str
    solution: Solution | None = None


@dataclass
class Workload:
    """Ordered steps over one front set; ids referenced by delete/lookup must
    be live at that point (previously inserted or preloaded, not deleted).
    ``where`` holds each step's ``path:line`` when the steps come from a file."""

    m: int
    steps: list[Step]
    where: list[str] | None = None


def check_workload(workload: Workload, stored: Iterable[Solution] = ()) -> list[Solution]:
    """Return the solution each step acts on: an insert's own, and for a
    delete or lookup the live solution with that id.  ``stored`` holds the
    solutions already in the set; each insert and delete then changes what
    is live.  Raise InputError unless every delete/lookup references a live id and
    no insert repeats one; the error names the step's ``path:line``, or
    ``step N`` when the workload has no file."""
    live = {sol.id: sol for sol in stored}
    acts_on = []
    for num, step in enumerate(workload.steps, 1):
        at = workload.where[num - 1] if workload.where else f"step {num}"
        if step.op == "insert":
            if step.id in live:
                raise InputError(f"{at}: insert of already-live id {step.id!r}")
            live[step.id] = step.solution
        elif step.id not in live:
            raise InputError(f"{at}: {step.op} of unknown id {step.id!r}")
        acts_on.append(live.pop(step.id) if step.op == "delete" else live[step.id])
    return acts_on


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
            steps.append(Step("insert", sid, Solution(sid, tuple(rng.random() for _ in range(m)))))
            live.append(sid)
        elif roll < 0.85 and live:
            idx = rng.randrange(len(live))
            steps.append(Step("delete", live.pop(idx)))
        elif live:
            steps.append(Step("lookup", rng.choice(live)))
    return Workload(m, steps)


def _read_rows(path: str, lead: tuple[str, ...], negate: Sequence[int]) -> tuple[int, list[tuple[str, list[str]]]]:
    """Read a CSV whose header is ``lead`` (ending in ``id``) followed by
    ``obj_1,...,obj_M``; returns M and, for each non-blank row after the
    header, ``path:line`` and its cells.  Every returned row has an id.
    Each ``negate`` column must lie in 1..M and appear once, or it is an
    InputError; this is the only check of ``--negate``.
    The file is read as UTF-8, with or without a leading byte-order mark;
    bytes that are not UTF-8 are an InputError naming ``path``, and a field
    the csv module refuses, such as one longer than its field size limit,
    one naming ``path:line``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    header = [cell.strip().lower() for cell in rows[0]] if rows else []
    if len(header) < len(lead) + 2 or tuple(header[: len(lead)]) != lead:
        raise InputError(f"{path}: header must be {','.join(lead)},obj_1,...,obj_M with M >= 2")
    m = len(header) - len(lead)
    for i, col in enumerate(negate):
        if not 1 <= col <= m:
            raise InputError(f"--negate column {col} out of range 1..{m}")
        if col in negate[:i]:  # negating twice would leave the column as it was
            raise InputError(f"--negate column {col} repeated")
    out = []
    for lineno, row in enumerate(rows[1:], 2):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) < len(lead) or not row[len(lead) - 1].strip():
            raise InputError(f"{path}:{lineno}: missing id")
        out.append((f"{path}:{lineno}", row))
    return m, out


def _solution(where: str, cells: Sequence[str], m: int, negate: Sequence[int]) -> Solution:
    """The solution of one row's ``id,obj_1,...,obj_M`` cells, negating the
    ``negate`` columns; any fault is an InputError naming ``where``."""
    if len(cells) != m + 1:
        raise InputError(f"{where}: expected {m} objective values")
    try:
        objs = [float(cell) for cell in cells[1:]]
        for col in negate:
            objs[col - 1] = -objs[col - 1]
        return Solution(cells[0].strip(), tuple(objs))
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def load_workload(path: str, negate: Sequence[int] = ()) -> Workload:
    """Read a workload CSV: header ``op,id,obj_1,...,obj_M``; insert rows carry
    a full objective vector, delete/lookup rows leave the objective cells empty."""
    m, rows = _read_rows(path, ("op", "id"), negate)
    steps: list[Step] = []
    for where, row in rows:
        op = row[0].strip().lower()
        if op not in ("insert", "delete", "lookup"):
            raise InputError(f"{where}: unknown op {op!r}")
        steps.append(Step(op, row[1].strip(), _solution(where, row[1:], m, negate) if op == "insert" else None))
    return Workload(m, steps, [where for where, _ in rows])


# ---------------------------------------------------------------------------
# population CSV and front-set dumps

def load_population(path: str, negate: Sequence[int] = ()) -> tuple[list[Solution], int]:
    """Read a population CSV (header ``id,obj_1,...,obj_M``); returns the
    solutions in row order plus M.  A repeated id is an InputError naming
    the row that repeats it."""
    m, rows = _read_rows(path, ("id",), negate)
    population, seen = [], set()
    for where, row in rows:
        sol = _solution(where, row, m, negate)
        if sol.id in seen:
            raise InputError(f"{where}: duplicate solution id {sol.id!r}")
        seen.add(sol.id)
        population.append(sol)
    return population, m


def front_set_to_doc(fs: FrontSet) -> dict:
    return {
        "m": fs.m,
        "fronts": [
            [{"id": sol.id, "obj": list(sol.objectives)} for sol in front]
            for front in fs.fronts
        ],
    }


def _doc_solution(entry: dict) -> Solution:
    sol_id, obj = entry["id"], entry["obj"]
    if not isinstance(sol_id, str) or not sol_id:
        raise InputError(f"solution id must be a non-empty string, got {sol_id!r}")
    # JSON true and false load as bool, which is an int
    if not isinstance(obj, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
        raise InputError(f"solution {sol_id!r}: obj must be an array of numbers, got {obj!r}")
    return Solution(sol_id, tuple(obj))


def front_set_from_doc(doc: dict) -> FrontSet:
    """The front set of a :func:`front_set_to_doc` document.  Unless ``m``
    is an integer of at least 2, every ``id`` a non-empty string and every
    ``obj`` an array of numbers (a bool is not one), it raises InputError; a repeated id or a solution of
    the wrong M raises the :class:`FrontSet` constructor's error."""
    try:
        m = doc["m"]
        if isinstance(m, bool) or not isinstance(m, int) or m < 2:
            raise InputError(f"m must be an integer of at least 2, got {m!r}")
        fronts = [[_doc_solution(entry) for entry in front] for front in doc["fronts"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer too large for a float
        raise InputError(f"malformed front-set document: {exc}") from None
    return FrontSet(m, fronts)


def write_dump(fs: FrontSet, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(front_set_to_doc(fs), fh, indent=2)
        fh.write("\n")


def read_dump(path: str) -> FrontSet:
    """Load a dump, read as UTF-8 with or without a leading byte-order
    mark; a malformed document or bytes that are not UTF-8 raise
    InputError, and a repeated id or a solution of the wrong M the
    :class:`FrontSet` constructor's error, each naming ``path``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read front-set dump {path}: {exc}") from None
    try:
        return front_set_from_doc(doc)
    except (InputError, core.DuplicateIdError, core.DimensionMismatchError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# operations behind the subcommands

def _check(fs: FrontSet, check: bool, after: str) -> None:
    """When ``check`` is set, raise CheckFailedError naming ``after`` unless
    ``fs`` is a valid partition."""
    if check:
        problems = validate(fs)
        if problems:
            raise CheckFailedError(f"invalid partition after {after}: {problems[0]}")


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
        APPROACHES[approach].insert(fs, sol, counter)
        _check(fs, check, repr(sol.id))
    return fs


def run_workload(
    fs: FrontSet,
    workload: Workload,
    approach: str,
    check: bool = False,
) -> dict:
    """Execute a workload against ``fs`` in place; returns the report."""
    sols = check_workload(workload, fs.solutions())
    ops = APPROACHES[approach]
    counter = Counter()
    step_reports = []
    total = 0
    for num, (step, sol) in enumerate(zip(workload.steps, sols), 1):
        counter.reset()
        pos = getattr(ops, step.op)(fs, sol, counter)
        _check(fs, check, f"step {num}")
        total += counter.pair_compares
        report = {
            "step": num,
            "op": step.op,
            "id": step.id,
            "compares": counter.pair_compares,
            "fronts": fs.k,
            "solutions": len(fs),
        }
        if step.op == "lookup":
            report["found"] = pos is not None
            if pos is not None:
                report["front"], report["index"] = pos.f_index, pos.s_index
        step_reports.append(report)
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


def bench_rows(scenario: str, n: int, k: int | None, approaches: Sequence[str]) -> list[dict]:
    """Run one benchmark scenario; each row compares a measured counter value
    against its closed-form prediction.  ``k`` is equal-fronts' front count;
    None picks the largest divisor of ``n`` up to ``max(2, isqrt(n))``."""
    if k is not None and k < 1:
        raise InputError(f"--k must be at least 1, got {k}")
    if n < 1:
        raise InputError(f"--n must be at least 1, got {n}")
    pad_m = 2
    # each approach's case: the operation, its worst probe, and the closed form
    if scenario == "chain":
        fronts = [[sol] for sol in analysis.gen_chain(n, pad_m)]
        # the left-balanced worst case is a probe dominating every front;
        # the others' is a probe dominated by every front
        cases = {
            approach: (
                "insert",
                Solution("probe", (0.0 if approach == "ltree" else float(n + 1),) * pad_m),
                n if approach == "linear" else n.bit_length(),
            )
            for approach in APPROACHES
        }
    elif scenario == "antichain":
        fronts = [analysis.gen_antichain(n, pad_m)]
        cases = dict.fromkeys(APPROACHES, ("insert", Solution("probe", (0.5, float(n))), n))
    elif scenario == "equal-fronts":
        if k is None:
            k = max(2, math.isqrt(n))
            while n % k:
                k -= 1
        if n % k:
            raise InputError(f"--k {k} does not divide --n {n}")
        q = n // k
        population = analysis.gen_equal_fronts(n, k, pad_m)
        fronts = [population[i * q : (i + 1) * q] for i in range(k)]
        # linear's worst target is the last solution of the last front; front
        # 1 is a deepest leaf of the round-up rank tree, at depth floor(log2 k)
        tree = ("lookup", fronts[0][-1], k.bit_length() - 1 + q)
        cases = {"linear": ("lookup", fronts[-1][-1], k + q - 1), "ltree": tree, "rtree": tree}
    elif scenario == "worst-two-front":
        if n < 4:
            raise InputError(f"worst-two-front needs --n of at least 4, got {n}")
        population, probe = analysis.gen_worst_two_front(n, pad_m)
        profile = analysis.worst_split(n)
        n1 = profile.sizes[0]
        fronts = [population[:n1], population[n1:]]
        cases = {
            "linear": ("insert", probe, analysis.max_comp_linear(profile)),
            "ltree": ("insert", probe, analysis.max_comp_left_tree(profile)),
            "rtree": ("insert", probe, analysis.max_comp_right_tree(profile)),
        }
    else:
        raise InputError(f"unknown scenario {scenario!r}")
    rows = []
    for approach in approaches:
        op, probe, expected = cases[approach]
        counter = Counter()
        pos = getattr(APPROACHES[approach], op)(FrontSet(pad_m, fronts), probe, counter)
        measured = -1 if op == "lookup" and pos is None else counter.pair_compares
        rows.append(
            {
                "scenario": scenario,
                "approach": approach,
                "operation": f"{op} worst probe",
                "measured": measured,
                "expected": expected,
                "ok": measured == expected,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# rendering and entry points

def _render(doc: dict, fmt: str) -> None:
    out = sys.stdout
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
        counts = f": {doc['solutions']} solutions in {doc['fronts']} fronts" if "fronts" in doc else ""
        out.write(f"{'PASS' if doc['ok'] else 'FAIL'}{counts}\n")
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


def _report(doc: dict, fs: FrontSet, args: argparse.Namespace) -> int:
    """The tail of ``sort`` and ``run``: add ``fs``, the set they left, to
    a JSON report ``doc`` as ``front_set``, write the ``--out`` dump, then
    render ``doc``."""
    if args.report == "json":
        doc["front_set"] = front_set_to_doc(fs)
    if args.out:  # before the report, so a reader that closes stdout early cannot cost the dump
        write_dump(fs, args.out)
    _render(doc, args.report)
    return 0


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
    return _report(doc, fs, args)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workload:
        workload = load_workload(args.workload, args.negate)
    elif args.seed is None:
        raise InputError("run needs --workload FILE or --seed N")
    elif args.negate:
        raise InputError("--negate applies to --workload files, not to --seed workloads")
    else:
        if args.steps < 0:
            raise InputError(f"--steps must be at least 0, got {args.steps}")
        if args.m < 2:
            raise InputError(f"--m must be at least 2, got {args.m}")
        workload = random_workload(args.seed, m=args.m, total_steps=args.steps)
    fs = FrontSet(workload.m)
    if args.fs:
        fs = read_dump(args.fs)
        if fs.m != workload.m:
            raise InputError(f"{args.fs}: front-set dump has M={fs.m}, workload has M={workload.m}")
        problems = validate(fs)
        if problems:
            raise InputError(f"{args.fs}: {problems[0]}")
    return _report({"kind": "run", **run_workload(fs, workload, args.approach, check=args.check)}, fs, args)


def _cmd_bench(args: argparse.Namespace) -> int:
    approaches = [args.approach] if args.approach else list(APPROACHES)
    scenarios = [args.scenario] if args.scenario else list(SCENARIOS)
    rows = []
    started = time.perf_counter()
    for scenario in scenarios:
        rows.extend(bench_rows(scenario, args.n, args.k, approaches))
    elapsed = time.perf_counter() - started
    ok = all(r["ok"] for r in rows)
    _render({"kind": "bench", "rows": rows, "ok": ok}, args.report)
    print(f"bench wall clock: {elapsed:.3f}s", file=sys.stderr)
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        fs = read_dump(args.fs)
    except (core.DuplicateIdError, core.DimensionMismatchError) as exc:
        doc = {"kind": "verify", "ok": False, "problems": [str(exc)]}
    else:
        ok, problems = verify_front_set(fs)
        doc = {"kind": "verify", "ok": ok, "problems": problems, "solutions": len(fs), "fronts": fs.k}
    _render(doc, args.report)
    return 0 if doc["ok"] else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndfronts",
        description="Maintain non-domination levels under online insertion and deletion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--approach", choices=APPROACHES, default="linear")
        p.add_argument("--check", action="store_true", help="validate after every mutation")
        p.add_argument("--report", choices=("text", "json"), default="text")
        p.add_argument(
            "--negate",
            type=_parse_cols,
            default=(),
            metavar="COLS",
            help="comma-separated 1-based objective columns of the input file to negate at ingestion",
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
    p_run.add_argument("--steps", type=int, default=60, help="steps (at least 0) for --seed workloads")
    p_run.add_argument("--m", type=int, default=3, help="objective count for --seed workloads")
    p_run.add_argument("--out", help="write the final front-set dump to this path")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="measured vs formula comparison counts")
    p_bench.add_argument("--scenario", choices=SCENARIOS, help="default: all scenarios")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--k", type=int, help="front count (at least 1) for equal-fronts")
    p_bench.add_argument("--approach", choices=APPROACHES, help="default: all approaches")
    p_bench.add_argument("--report", choices=("text", "json"), default="text")
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser("verify", help="validate a front-set dump against a fresh sort")
    p_verify.add_argument("--fs", required=True, help="front-set dump to verify")
    p_verify.add_argument("--report", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def _parse_cols(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; the loaders check them
    against the file's columns (see :func:`_read_rows`)."""
    try:
        return tuple(int(part) for part in text.split(",")) if text.strip() else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad column list {text!r}") from None


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # a reader that stops early is not bad input; stdout now goes to
        # devnull, so the interpreter's last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except CheckFailedError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
