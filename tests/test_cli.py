"""End-to-end checks of the command-line surface and its file formats."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ndfronts.cli
from ndfronts import APPROACHES, Counter, FrontSet, Solution, core, full_sort, same_partition
from ndfronts.cli import (
    InputError,
    bench_rows,
    check_workload,
    front_set_from_doc,
    front_set_to_doc,
    load_population,
    load_workload,
    main,
    random_workload,
    run_workload,
    sort_online,
    verify_front_set,
    write_dump,
)
from tests.conftest import NINE_LEVELS, TWELVE_LEVELS, s


def write_population_csv(path, rows, m=2):
    header = "id," + ",".join(f"obj_{i}" for i in range(1, m + 1))
    path.write_text("\n".join([header] + rows) + "\n")


def twelve_csv(tmp_path, twelve):
    path = tmp_path / "pop.csv"
    rows = [f"{sol.id}," + ",".join(str(v) for v in sol.objectives) for sol in twelve]
    write_population_csv(path, rows)
    return path


# --- ingestion ----------------------------------------------------------------

def test_load_population_roundtrip(tmp_path, twelve_in_five_levels):
    path = twelve_csv(tmp_path, twelve_in_five_levels)
    pop, m = load_population(str(path))
    assert m == 2
    assert [sol.id for sol in pop] == [sol.id for sol in twelve_in_five_levels]
    assert pop[3].objectives == twelve_in_five_levels[3].objectives


def test_load_population_negate_columns(tmp_path):
    path = tmp_path / "pop.csv"
    write_population_csv(path, ["a,1,2", "b,3,4"])
    pop, _ = load_population(str(path), negate=(2,))
    assert pop[0].objectives == (1.0, -2.0)
    assert pop[1].objectives == (3.0, -4.0)


def test_load_population_rejects_bad_header(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("name,obj_1,obj_2\na,1,2\n")
    with pytest.raises(InputError):
        load_population(str(path))


def test_load_population_rejects_ragged_rows(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("id,obj_1,obj_2\na,1\n")
    with pytest.raises(InputError):
        load_population(str(path))


# a population and a workload CSV, and the command that reads each
CSV_KINDS = {
    "population": (b"id,obj_1,obj_2\na,1,3\nb,3,1\n", ["sort", "--input"]),
    "workload": (b"op,id,obj_1,obj_2\ninsert,a,1,3\nlookup,a,,\n", ["run", "--workload"]),
}


@pytest.mark.parametrize("kind", CSV_KINDS)
def test_a_byte_order_mark_before_the_header_is_skipped(tmp_path, capsys, kind):
    # spreadsheet exports of "CSV UTF-8" start with one
    text, argv = CSV_KINDS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text)
    assert main(argv + [str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", CSV_KINDS)
def test_a_csv_that_is_not_utf8_is_a_usage_error_naming_its_path(tmp_path, capsys, kind):
    text, argv = CSV_KINDS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text.replace(b"a,1,3", b"\xff,1,3"))
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: not UTF-8 text (invalid start byte)"]


@pytest.mark.parametrize("kind", CSV_KINDS)
def test_a_csv_field_over_the_csv_limit_is_a_usage_error_naming_its_line(tmp_path, capsys, kind):
    text, argv = CSV_KINDS[kind]
    path = tmp_path / f"{kind}.csv"
    limit = csv.field_size_limit()
    path.write_bytes(text.replace(b"a,1,3", b"a,1," + b"3" * (limit + 1)))
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:2: field larger than field limit ({limit})"]


DUMP = b'{"m": 2, "fronts": [[{"id": "a", "obj": [1, 3]}, {"id": "b", "obj": [3, 1]}]]}\n'


@pytest.mark.parametrize("argv", [["verify"], ["run", "--seed", "1", "--steps", "5", "--m", "2"]], ids=["verify", "run"])
def test_a_byte_order_mark_before_a_dump_is_skipped(tmp_path, capsys, argv):
    path = tmp_path / "fs.json"
    path.write_bytes(b"\xef\xbb\xbf" + DUMP)
    assert main(argv + ["--fs", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_a_dump_that_is_not_utf8_is_a_usage_error_naming_its_path(tmp_path, capsys):
    path = tmp_path / "fs.json"
    path.write_bytes(DUMP.replace(b'"a"', b'"\xff"'))
    assert main(["verify", "--fs", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: not UTF-8 text (invalid start byte)"]


def test_dump_roundtrip_is_bit_exact(twelve_in_five_levels, tmp_path):
    fs = full_sort(twelve_in_five_levels)
    fs.fronts[0][0] = Solution("p1", (0.1 + 0.2, 1e-17))  # awkward floats on purpose
    path = tmp_path / "fs.json"
    write_dump(fs, str(path))
    loaded = front_set_from_doc(json.loads(path.read_text()))
    assert [s.objectives for s in loaded.solutions()] == [s.objectives for s in fs.solutions()]
    assert loaded.level_ids() == fs.level_ids()


# --- workloads ----------------------------------------------------------------

def test_load_workload_and_liveness(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(
        "op,id,obj_1,obj_2\n"
        "insert,a,1,2\n"
        "insert,b,2,1\n"
        "lookup,a,,\n"
        "delete,a,,\n"
    )
    workload = load_workload(str(path))
    assert workload.m == 2
    check_workload(workload)


def test_check_workload_returns_the_solution_each_step_acts_on():
    from ndfronts.cli import Step, Workload

    pre, a, a2 = s("p", 5, 5), s("a", 1, 2), s("a", 3, 1)
    steps = [
        Step("lookup", "p"),
        Step("insert", "a", a),
        Step("lookup", "a"),
        Step("delete", "a"),
        Step("insert", "a", a2),  # the id again, with another vector
        Step("lookup", "a"),
        Step("delete", "p"),
        Step("delete", "a"),
    ]
    assert check_workload(Workload(2, steps), [pre]) == [pre, a, a, a, a2, a2, pre, a2]
    assert check_workload(Workload(2, steps[1:6])) == [a, a, a, a2, a2]
    with pytest.raises(InputError, match="^step 1: lookup of unknown id 'p'$"):
        check_workload(Workload(2, steps))  # p is not stored


def test_load_workload_rejects_dead_reference(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("op,id,obj_1,obj_2\ninsert,a,1,2\ndelete,b,,\n")
    with pytest.raises(InputError):
        check_workload(load_workload(str(path)))


def test_load_workload_rejects_unknown_op_and_missing_id(tmp_path):
    bad_op = tmp_path / "bad_op.csv"
    bad_op.write_text("op,id,obj_1,obj_2\nupsert,a,1,2\n")
    with pytest.raises(InputError):
        load_workload(str(bad_op))
    no_id = tmp_path / "no_id.csv"
    no_id.write_text("op,id,obj_1,obj_2\ninsert,,1,2\n")
    with pytest.raises(InputError):
        load_workload(str(no_id))


def test_a_workload_row_with_no_id_cell_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("op,id,obj_1,obj_2\ninsert,a,1,2\nlookup\n")
    assert main(["run", "--workload", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:3: missing id"]


@pytest.mark.parametrize(
    "row, message",
    [
        ("delete,b,,", "delete of unknown id 'b'"),
        ("lookup,b,,", "lookup of unknown id 'b'"),
        ("insert,a,3,3", "insert of already-live id 'a'"),
    ],
    ids=["delete", "lookup", "repeated-insert"],
)
def test_a_dead_reference_names_its_file_and_line(tmp_path, capsys, row, message):
    from ndfronts.cli import Workload

    path = tmp_path / "w.csv"
    path.write_text(f"op,id,obj_1,obj_2\ninsert,a,1,2\n\n{row}\n")
    assert main(["run", "--workload", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:4: {message}"]
    # the same steps built in code, as seeded workloads are, are named by number
    workload = load_workload(str(path))
    with pytest.raises(InputError, match=f"^step 2: {message}$"):
        check_workload(Workload(workload.m, workload.steps))


@pytest.mark.parametrize("op", ["delete", "lookup"])
@pytest.mark.parametrize("cells", ["9,9", ",9", "9,"])
def test_a_delete_or_lookup_row_with_objective_values_is_a_usage_error(tmp_path, capsys, op, cells):
    # the values would be dropped: the step acts on the live solution's vector
    path = tmp_path / "w.csv"
    path.write_text(f"op,id,obj_1,obj_2\ninsert,a,1,2\n{op},a,{cells}\n")
    assert main(["run", "--workload", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}:3: a {op} row leaves its objective cells empty"]


def test_cli_run_rejects_a_workload_file_and_a_seed_together(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("op,id,obj_1,obj_2\ninsert,a,1,2\n")
    assert main(["run", "--workload", str(path), "--seed", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --workload and --seed each give the workload; pass one"]


@pytest.mark.parametrize(
    "argv, flag",
    [(["--m", "5"], "--m"), (["--steps", "7"], "--steps"), (["--m", "2"], "--m"), (["--steps", "7", "--m", "5"], "--m")],
    ids=["m5", "steps7", "m-matching-the-file", "both"],
)
def test_cli_run_rejects_seeded_sizes_with_a_workload_file(tmp_path, capsys, argv, flag):
    # the file gives M and the steps; a size flag it would ignore is an error
    path = tmp_path / "w.csv"
    path.write_text("op,id,obj_1,obj_2\ninsert,a,1,2\n")
    assert main(["run", "--workload", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} applies to --seed workloads; a --workload file gives its own"]


def test_cli_run_seeded_sizes_default_to_m3_and_60_steps(capsys):
    assert main(["run", "--seed", "4", "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["front_set"]["m"] == 3 and len(report["steps"]) == 60


def test_load_workload_negate_applies_to_inserts(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("op,id,obj_1,obj_2\ninsert,a,1,2\n")
    workload = load_workload(str(path), negate=(1,))
    assert workload.steps[0].solution.objectives == (-1.0, 2.0)


def test_cli_run_rejects_out_of_range_negate_for_workload_file(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("op,id,obj_1,obj_2,obj_3\ninsert,a,1,2,3\n")
    with pytest.raises(InputError):
        load_workload(str(path), negate=(5,))
    assert main(["run", "--workload", str(path), "--negate", "5"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: --negate column 5 out of range 1..3"]


def test_the_loaders_reject_a_repeated_negate_column(tmp_path):
    population, workload = tmp_path / "pop.csv", tmp_path / "w.csv"
    write_population_csv(population, ["a,1,2"])
    workload.write_text("op,id,obj_1,obj_2\ninsert,a,1,2\n")
    # negating column 1 twice would leave it as it was
    with pytest.raises(InputError, match="--negate column 1 repeated"):
        load_population(str(population), negate=(1, 1))
    with pytest.raises(InputError, match="--negate column 2 repeated"):
        load_workload(str(workload), negate=(2, 1, 2))


@pytest.mark.parametrize(
    "header, row",
    [("id,obj_1,obj_2", "b,{},1"), ("op,id,obj_1,obj_2", "insert,b,{},1")],
    ids=["population", "workload"],
)
@pytest.mark.parametrize("cell", ["x", "inf", "nan"])
def test_a_bad_objective_names_its_file_and_line(tmp_path, capsys, header, row, cell):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, row.format(0), "", row.replace("b,", "c,").format(cell)]) + "\n")
    command = ["sort", "--input"] if header.startswith("id") else ["run", "--workload"]
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}:4: ")


def test_front_set_from_doc_rejects_malformed_documents():
    with pytest.raises(InputError):
        front_set_from_doc({"fronts": []})
    with pytest.raises(InputError):
        front_set_from_doc({"m": 2, "fronts": [[{"id": "a"}]]})


@pytest.mark.parametrize(
    "m, obj",
    [(2, "12"), (2.9, [1.0, 2.0]), (2, [True, 2]), (2, [10**400, 2])],
    ids=["obj-string", "fractional-m", "bool-objective", "overflowing-objective"],
)
def test_cli_verify_rejects_a_malformed_dump_with_its_path(tmp_path, capsys, m, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": m, "fronts": [[{"id": "a", "obj": obj}]]}))
    assert main(["verify", "--fs", str(path)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")


@pytest.mark.parametrize("sol_id", [None, 5, "", {"id": "a"}], ids=["null", "number", "empty", "object"])
def test_cli_verify_rejects_a_dump_id_that_is_not_a_non_empty_string(tmp_path, capsys, sol_id):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 2, "fronts": [[{"id": sol_id, "obj": [1, 2]}, {"id": "None", "obj": [2, 1]}]]}))
    assert main(["verify", "--fs", str(path)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.splitlines() == [
        f"error: {path}: malformed front-set document: solution id must be a non-empty string, got {sol_id!r}"
    ]


def test_cli_sort_names_the_line_of_a_repeated_id(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    write_population_csv(path, ["a,1,2", "b,2,1", "", "a,3,3"])
    assert main(["sort", "--input", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:5: duplicate solution id 'a'"]


def test_cli_verify_rejects_malformed_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["verify", "--fs", str(path)]) == 2


def test_cli_verify_fails_on_mixed_objective_counts(tmp_path, capsys):
    doc = {
        "m": 2,
        "fronts": [[{"id": "a", "obj": [1.0, 2.0]}, {"id": "b", "obj": [1.0, 2.0, 3.0]}]],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--fs", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_bench_equal_fronts_requires_divisible_k(capsys):
    assert main(["bench", "--scenario", "equal-fronts", "--n", "100", "--k", "7"]) == 2


@pytest.mark.parametrize(
    "argv, error",
    [
        (["bench", "--n", "0"], "--n must be at least 1, got 0"),
        (["bench", "--scenario", "equal-fronts", "--n", "0", "--k", "2"], "--n must be at least 1, got 0"),
        (["bench", "--scenario", "chain", "--n", "0"], "--n must be at least 1, got 0"),
        (["bench", "--scenario", "antichain", "--n", "0"], "--n must be at least 1, got 0"),
        (["bench", "--scenario", "worst-two-front", "--n", "0"], "--n must be at least 1, got 0"),
        (["bench", "--n", "3"], "worst-two-front needs --n of at least 4, got 3"),
        (["bench", "--n", "3", "--scenario", "worst-two-front"], "worst-two-front needs --n of at least 4, got 3"),
    ],
    ids=[
        "default-scenarios",
        "equal-fronts",
        "chain",
        "antichain",
        "worst-two-front",
        "default-scenarios-n3",
        "worst-two-front-n3",
    ],
)
def test_cli_bench_with_no_solutions_is_a_usage_error(capsys, argv, error):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {error}"]


def test_cli_bench_equal_fronts_runs_below_the_worst_two_front_minimum(capsys):
    assert main(["bench", "--n", "3", "--scenario", "equal-fronts"]) == 0
    assert "ALL PASS" in capsys.readouterr().out


@pytest.mark.parametrize("scenario", ["chain", "antichain", "worst-two-front"])
def test_cli_bench_rejects_k_for_a_scenario_without_fronts_to_count(capsys, scenario):
    # --k sizes equal-fronts only: given with another scenario it is an error, not ignored
    assert main(["bench", "--scenario", scenario, "--n", "10", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --k applies to equal-fronts only, not to {scenario}"]


def test_cli_bench_applies_k_to_equal_fronts_among_all_scenarios(capsys):
    assert main(["bench", "--n", "12", "--k", "3", "--report", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert {r["scenario"] for r in rows} == {"chain", "antichain", "equal-fronts", "worst-two-front"}
    # linear's equal-fronts lookup of the last member of the last front: k + n / k - 1
    assert [r["measured"] for r in rows if r["scenario"] == "equal-fronts" and r["approach"] == "linear"] == [6]


@pytest.mark.parametrize("k", ["0", "-3"])
def test_cli_bench_rejects_a_k_below_one(capsys, k):
    assert main(["bench", "--n", "16", "--k", k]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --k must be at least 1, got {k}"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--steps", "-5"], "--steps must be at least 0, got -5"),
        (["--steps", "-1"], "--steps must be at least 0, got -1"),
        (["--m", "1"], "--m must be at least 2, got 1"),
        (["--m", "1", "--steps", "0"], "--m must be at least 2, got 1"),
        (["--m", "0"], "--m must be at least 2, got 0"),
    ],
    ids=["steps-5", "steps-1", "m1", "m1-no-steps", "m0"],
)
def test_cli_run_rejects_bad_seeded_sizes(capsys, argv, error):
    assert main(["run", "--seed", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {error}"]


def test_cli_run_with_zero_steps_is_an_empty_run(capsys):
    assert main(["run", "--seed", "1", "--steps", "0", "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["steps"] == [] and report["total_compares"] == 0


def test_equal_fronts_tree_lookup_saves_k_minus_1_minus_log_k():
    """The abstract's delete claim: on K equal fronts the tree finds its
    worst target with K - 1 - floor(log2 K) fewer comparisons than the
    sequential scan finds its own."""
    for k in range(2, 65):
        rows = bench_rows("equal-fronts", 3 * k, k, list(APPROACHES))
        assert all(r["ok"] for r in rows), k
        cost = {r["approach"]: r["measured"] for r in rows}
        assert cost["ltree"] == cost["rtree"]
        assert cost["linear"] - cost["ltree"] == k - 1 - (k.bit_length() - 1), k


def test_random_workload_is_deterministic_and_live():
    w1 = random_workload(42, m=3, total_steps=50)
    w2 = random_workload(42, m=3, total_steps=50)
    assert w1 == w2
    check_workload(w1)


# Total comparisons of random_workload(seed, m, 60) over seeds 0-59: any change
# to a comparison made by an insert, delete or lookup moves one of these.
SEEDED_TOTALS = {
    (2, "linear"): 27455, (2, "ltree"): 26724, (2, "rtree"): 26211,
    (3, "linear"): 38691, (3, "ltree"): 42150, (3, "rtree"): 40561,
    (5, "linear"): 48733, (5, "ltree"): 53597, (5, "rtree"): 50453,
}


@pytest.mark.parametrize("m, approach", sorted(SEEDED_TOTALS))
def test_seeded_workload_totals_are_pinned(m, approach):
    total = sum(
        run_workload(FrontSet(m), random_workload(seed, m, 60), approach)["total_compares"]
        for seed in range(60)
    )
    assert total == SEEDED_TOTALS[m, approach]


# The same for random_workload(seed, 5, 1500, max_live=1000) over seeds 0-2.
# Its fronts grow past core._SCAN_MIN_WIDTH, so these totals pin the counts of
# the numpy front scan, which SEEDED_TOTALS (at most 40 live) never reaches.
WIDE_TOTALS = {"linear": 7325143, "ltree": 7446930, "rtree": 7418918}


@pytest.mark.parametrize("approach", sorted(WIDE_TOTALS))
def test_wide_front_workload_totals_are_pinned(approach):
    total = widest = 0
    for seed in range(3):
        fs = FrontSet(5)
        total += run_workload(fs, random_workload(seed, 5, 1500, max_live=1000), approach)["total_compares"]
        widest = max(widest, *map(len, fs.fronts))
    assert widest >= core._SCAN_MIN_WIDTH
    assert total == WIDE_TOTALS[approach]


# sha256 of the JSON of every step's compares, every lookup's (front, index)
# and the final dump of run_workload over random_workload(seed, m, 60), seeds
# 0-19 at M = 2, 3 and 5: where SEEDED_TOTALS pins sums, this pins each step.
STEP_DIGESTS = {
    "linear": "c60c68d807af249886a520649360c0284712c4545ee0052494a5f6f7019b3659",
    "ltree": "4a94829fa1bebba8a9fed4ecce5c9f0730c2b9bec7d7751f725cea5c440532f6",
    "rtree": "46223e4d44d29660626f6a18325cf8f15e2ed4a970966d20f5ecd77a013f4476",
}


@pytest.mark.parametrize("approach", sorted(STEP_DIGESTS))
def test_seeded_workload_steps_are_pinned(approach):
    runs = []
    for m in (2, 3, 5):
        for seed in range(20):
            fs = FrontSet(m)
            steps = run_workload(fs, random_workload(seed, m, 60), approach)["steps"]
            runs.append(
                {
                    "compares": [r["compares"] for r in steps],
                    "lookups": [[r.get("front"), r.get("index")] for r in steps if r["op"] == "lookup"],
                    "dump": front_set_to_doc(fs),
                }
            )
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == STEP_DIGESTS[approach]


def test_run_workload_delete_reshapes_levels(nine_in_four_levels):
    path_rows = []
    workload = load_workload_from_steps(nine_in_four_levels)
    fs = FrontSet(2)
    report = run_workload(fs, workload, "linear", check=True)
    assert report["final_solutions"] == 8
    assert fs.level_ids() == [{"2"}, {"1", "3", "6"}, {"8", "5", "7"}, {"9"}]
    assert report["steps"][-1]["op"] == "delete"


def load_workload_from_steps(by_id):
    from ndfronts.cli import Step, Workload

    steps = [Step("insert", sol.id, sol) for sol in by_id.values()]
    steps.append(Step("delete", "4"))
    return Workload(2, steps)


def test_run_workload_empty_leaves_front_set_alone(twelve_in_five_levels):
    from ndfronts.cli import Workload

    fs = full_sort(twelve_in_five_levels)
    before = fs.level_ids()
    report = run_workload(fs, Workload(2, []), "rtree")
    assert fs.level_ids() == before
    assert report["total_compares"] == 0


# --- library-level command behaviors ------------------------------------------

def test_sort_online_twelve_stream(twelve_in_five_levels):
    for approach in ("linear", "ltree", "rtree"):
        counter = Counter()
        fs = sort_online(twelve_in_five_levels, 2, approach, counter, check=True)
        assert fs.level_ids() == TWELVE_LEVELS
        assert counter.pair_compares > 0


def test_sort_online_empty_stream():
    fs = sort_online([], 3, "linear", Counter())
    assert fs.k == 0


def test_sort_online_rejects_duplicate_id_mid_stream():
    from ndfronts import DuplicateIdError

    stream = [s("a", 1, 2), s("b", 2, 1), s("a", 3, 3)]
    with pytest.raises(DuplicateIdError):
        sort_online(stream, 2, "linear", Counter())


def test_sort_online_chain_sixteen_within_competitive_bound():
    from ndfronts import gen_chain

    stream = list(reversed(gen_chain(16)))  # worst arrival order: each new best
    offline = Counter()
    reference = full_sort(stream, counter=offline)
    online = Counter()
    fs = sort_online(stream, 2, "linear", online)
    assert fs.k == 16
    assert same_partition(fs, reference)
    assert online.pair_compares <= 16 * offline.pair_compares


def test_verify_front_set_flags_tampering(twelve_in_five_levels):
    fs = full_sort(twelve_in_five_levels)
    ok, problems = verify_front_set(fs)
    assert ok and problems == []
    fs.fronts[0], fs.fronts[1] = fs.fronts[1], fs.fronts[0]
    ok, problems = verify_front_set(fs)
    assert not ok and problems


def test_verify_front_set_resorts_independently_of_validate(monkeypatch, twelve_in_five_levels):
    # no partition that validate accepts differs from a fresh sort, so only a
    # validate that misses a problem lets the referee's own re-sort show
    fs = full_sort(twelve_in_five_levels)
    fs.fronts[0], fs.fronts[1] = fs.fronts[1], fs.fronts[0]
    monkeypatch.setattr(ndfronts.cli, "validate", lambda fs: [])
    assert verify_front_set(fs) == (False, ["partition differs from a from-scratch sort of the same solutions"])


def test_bench_rows_all_pass():
    for scenario, n, k in (
        ("chain", 100, None),
        ("antichain", 50, None),
        ("equal-fronts", 100, 10),
        ("worst-two-front", 100, None),
    ):
        for row in bench_rows(scenario, n, k, ("linear", "ltree", "rtree")):
            assert row["ok"], row


@pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (30, 5), (97, 1), (100, 10)])
def test_bench_rows_picks_the_equal_fronts_default_k(n, k):
    # the largest divisor of n up to max(2, isqrt(n)), as `bench` without --k runs it
    assert bench_rows("equal-fronts", n, None, list(APPROACHES)) == bench_rows("equal-fronts", n, k, list(APPROACHES))


@pytest.mark.parametrize("k", [0, -3])
def test_bench_rows_rejects_a_k_below_one(k):
    # a library caller reaches the equal-fronts branch with no CLI check in front
    with pytest.raises(InputError) as exc:
        bench_rows("equal-fronts", 12, k, ["linear"])
    assert str(exc.value) == f"--k must be at least 1, got {k}"


def test_bench_rows_rejects_an_unknown_scenario():
    # argparse's choices guard the CLI; a library caller reaches the check itself
    with pytest.raises(InputError, match="^unknown scenario 'nope'$"):
        bench_rows("nope", 8, None, ["linear"])


# --- the executable ------------------------------------------------------------

def test_cli_sort_and_verify_roundtrip(tmp_path, twelve_in_five_levels, capsys):
    pop_csv = twelve_csv(tmp_path, twelve_in_five_levels)
    dump = tmp_path / "out.json"
    assert main(["sort", "--input", str(pop_csv), "--approach", "ltree", "--out", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "5 fronts" in out
    assert main(["verify", "--fs", str(dump)]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sort", "run"])
def test_cli_writes_the_dump_before_a_closed_stdout_cuts_the_report(tmp_path, capsys, command):
    # each report is longer than a pipe holds, so the command is still
    # writing it when the reader closes stdout after one line
    if command == "sort":
        pop_csv = tmp_path / "chain.csv"
        write_population_csv(pop_csv, [f"p{i},{-i},{-i}" for i in range(4000)])  # 4000 fronts of one
        argv = ["sort", "--input", str(pop_csv)]
    else:
        argv = ["run", "--seed", "42", "--steps", "1500"]
    dump = tmp_path / "out.json"
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ndfronts", *argv, "--out", str(dump)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141, err
    assert err == ""
    assert main(["verify", "--fs", str(dump)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_fails_on_tampered_dump(tmp_path, twelve_in_five_levels, capsys):
    fs = full_sort(twelve_in_five_levels)
    fs.fronts.reverse()
    dump = tmp_path / "bad.json"
    write_dump(fs, str(dump))
    assert main(["verify", "--fs", str(dump)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_run_with_workload_file(tmp_path, nine_in_four_levels, capsys):
    w = tmp_path / "w.csv"
    lines = ["op,id,obj_1,obj_2"]
    for sid, sol in nine_in_four_levels.items():
        lines.append(f"insert,{sid},{sol.objectives[0]},{sol.objectives[1]}")
    lines.append("delete,4,,")
    w.write_text("\n".join(lines) + "\n")
    dump = tmp_path / "after.json"
    code = main(["run", "--workload", str(w), "--check", "--out", str(dump), "--report", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    levels = [sorted(e["id"] for e in front) for front in report["front_set"]["fronts"]]
    assert levels == [sorted(level) for level in [{"2"}, {"1", "3", "6"}, {"8", "5", "7"}, {"9"}]]


@pytest.mark.parametrize("approach", APPROACHES)
def test_cli_delete_and_lookup_act_on_the_requested_twin(tmp_path, capsys, approach):
    w = tmp_path / "twins.csv"
    w.write_text("op,id,obj_1,obj_2\ninsert,a,1,1\ninsert,b,1,1\ndelete,b,,\nlookup,a,,\n")
    assert main(["run", "--workload", str(w), "--approach", approach, "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [[e["id"] for e in front] for front in report["front_set"]["fronts"]] == [["a"]]
    lookup = report["steps"][-1]
    assert (lookup["found"], lookup["front"], lookup["index"]) == (True, 1, 1)


@pytest.mark.parametrize("command", ["run", "sort"])
def test_cli_check_fails_on_an_invalid_partition(tmp_path, capsys, monkeypatch, command):
    from ndfronts import Approach

    class SwapsFronts(Approach):
        """An approach whose inserts swap fronts 1 and 2 afterwards."""

        def insert(self, fs, sol, counter):
            super().insert(fs, sol, counter)
            if fs.k >= 2:
                fs.fronts[0], fs.fronts[1] = fs.fronts[1], fs.fronts[0]

    linear = APPROACHES["linear"]
    monkeypatch.setitem(APPROACHES, "linear", SwapsFronts(linear.insert_order, linear.search_order))
    population = tmp_path / "chain.csv"
    write_population_csv(population, ["a,1,1", "b,2,2", "c,3,3"])
    argv = ["sort", "--input", str(population)] if command == "sort" else ["run", "--seed", "3", "--steps", "40"]
    assert main([*argv, "--check"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("FAIL: invalid partition after ")


def test_cli_run_fuzz_seed_then_verify(tmp_path, capsys):
    dump = tmp_path / "fuzz.json"
    assert main(["run", "--seed", "9", "--steps", "80", "--approach", "rtree", "--check", "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["verify", "--fs", str(dump)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_bench_passes_and_is_deterministic(capsys):
    assert main(["bench", "--scenario", "worst-two-front", "--n", "100"]) == 0
    first = capsys.readouterr().out
    assert main(["bench", "--scenario", "worst-two-front", "--n", "100"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "ALL PASS" in first


def test_cli_bench_json_report(capsys):
    assert main(["bench", "--scenario", "chain", "--n", "64", "--approach", "rtree", "--report", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["rows"][0]["measured"] == 7  # floor(log2 64) + 1


# sha256 of stdout for a fixed set of commands: where STEP_DIGESTS pins the
# counts, these pin the reports' layout too (JSON key order, text columns).
# "{population}" stands for a CSV of forty M = 3 solutions with tied vectors.
STDOUT_COMMANDS = {
    "bench-text": ["bench", "--n", "64"],
    "bench-json": ["bench", "--n", "64", "--report", "json"],
    **{
        f"run-{approach}-{report}": ["run", "--seed", "5", "--steps", "80", "--approach", approach, "--report", report]
        for approach in APPROACHES
        for report in ("text", "json")
    },
    **{
        f"sort-{approach}": ["sort", "--input", "{population}", "--approach", approach, "--report", "json"]
        for approach in APPROACHES
    },
}
STDOUT_DIGESTS = {
    "bench-text": "73fbb439c2253373eb8972df76ac359fa8b7aaca7703e8a136d18b9b87b1fd3f",
    "bench-json": "193aab6ab3d106195af0b2d42d71482333cce0f3b19aa204058e4df950fa720a",
    "run-linear-text": "049f4fd4888862867e8496859d525b92345dfa01ea50b4effa4d6a167b5650a2",
    "run-linear-json": "df0bfbb2d5793be719ac04cb2872b9d234f5d5a61b9d5d1792354f7bfa8cbbfd",
    "run-ltree-text": "4da163f1741c5c599cc0899b370700dad69a19c1f00f8170b1f3f85e676262aa",
    "run-ltree-json": "bb0191a10ac14d7a28db8537cc7267cd8db5f679cac124551e2df97cbed00030",
    "run-rtree-text": "f1332a31951463f86f1d8d3b80983eda7bf60958a97ecbb71f6a6d311ef96a6b",
    "run-rtree-json": "91d47759b56859ffade30acaeebe114dfbefdfa7ec06e51583ad8bb0cb0bf2b6",
    "sort-linear": "65aea13941a475b606a998b29a9ad7d9c7becc7154bacd5e6b1ee1e7ce499842",
    "sort-ltree": "43ada0cab76b6b85b35ced5f63cfb55c804a5e4d926632efa3aea82ac2ed04a1",
    "sort-rtree": "ef6b29fcfa847734b01c2f4d7d2dbd4df909b3b0409a2851e183554088105930",
}


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_cli_stdout_is_pinned(tmp_path, capsys, name):
    population = tmp_path / "pop.csv"
    write_population_csv(population, [f"q{i},{i * 7 % 11},{i * 5 % 13},{i * 3 % 7}" for i in range(40)], m=3)
    argv = [str(population) if arg == "{population}" else arg for arg in STDOUT_COMMANDS[name]]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_DIGESTS[name]


def test_cli_same_workload_same_report_across_runs(tmp_path, capsys):
    args = ["run", "--seed", "21", "--steps", "60", "--approach", "linear", "--report", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert first == capsys.readouterr().out


def test_cli_final_partition_same_for_every_approach(tmp_path, capsys):
    finals = []
    for approach in ("linear", "ltree", "rtree"):
        args = ["run", "--seed", "33", "--steps", "70", "--approach", approach, "--report", "json"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        finals.append([sorted(e["id"] for e in front) for front in doc["front_set"]["fronts"]])
    assert finals[0] == finals[1] == finals[2]


def test_cli_run_against_preloaded_front_set(tmp_path, twelve_in_five_levels, capsys):
    dump = tmp_path / "start.json"
    write_dump(full_sort(twelve_in_five_levels), str(dump))
    w = tmp_path / "w.csv"
    w.write_text("op,id,obj_1,obj_2\nlookup,p7,,\ndelete,p1,,\n")
    out = tmp_path / "after.json"
    assert main(["run", "--fs", str(dump), "--workload", str(w), "--check", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--fs", str(out)]) == 0
    report = capsys.readouterr().out
    assert "PASS" in report and "11 solutions" in report


M2_INSERT = "op,id,obj_1,obj_2\ninsert,n,0.5,0.5\n"


@pytest.mark.parametrize(
    "fronts, workload, verdict",
    [
        # a repeated id, which the FrontSet constructor rejects
        ([[{"id": "a", "obj": [1.0, 2.0]}, {"id": "b", "obj": [2.0, 1.0]}], [{"id": "a", "obj": [3.0, 3.0]}]], M2_INSERT, "FAIL"),
        # a solution whose objective count disagrees with the dump's m
        ([[{"id": "a", "obj": [1.0, 2.0]}], [{"id": "b", "obj": [3.0, 3.0, 3.0]}]], M2_INSERT, "FAIL"),
        # an empty front, which validate reports
        ([[], [{"id": "a", "obj": [1.0, 2.0]}]], M2_INSERT, "FAIL"),
        # fronts out of order: the lower one dominates the upper one
        ([[{"id": "b", "obj": [5.0, 5.0]}], [{"id": "a", "obj": [1.0, 1.0]}]], M2_INSERT, "FAIL"),
        # a valid dump under a workload of another M, whose lookup and delete
        # would run before its insert failed
        (
            [[{"id": "a", "obj": [1.0, 2.0]}, {"id": "b", "obj": [2.0, 1.0]}]],
            "op,id,obj_1,obj_2,obj_3\nlookup,a,,,\ndelete,b,,,\ninsert,n,0.5,0.5,0.5\n",
            "PASS",
        ),
    ],
    ids=["duplicate-id", "wrong-m", "empty-front", "unsorted", "workload-m"],
)
def test_cli_run_rejects_invalid_dump_before_any_step(tmp_path, capsys, fronts, workload, verdict):
    dump = tmp_path / "bad.json"
    dump.write_text(json.dumps({"m": 2, "fronts": fronts}))
    w = tmp_path / "w.csv"
    w.write_text(workload)
    out = tmp_path / "after.json"
    assert main(["run", "--fs", str(dump), "--workload", str(w), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {dump}: ")
    assert not out.exists()
    assert main(["verify", "--fs", str(dump)]) == (0 if verdict == "PASS" else 1)
    assert verdict in capsys.readouterr().out


def test_cli_run_rejects_workload_referencing_unknown_id(tmp_path, twelve_in_five_levels, capsys):
    dump = tmp_path / "start.json"
    write_dump(full_sort(twelve_in_five_levels), str(dump))
    w = tmp_path / "w.csv"
    w.write_text("op,id,obj_1,obj_2\ndelete,ghost,,\n")
    assert main(["run", "--fs", str(dump), "--workload", str(w)]) == 2


def test_cli_sort_duplicate_id_exits_with_usage_error(tmp_path, capsys):
    path = tmp_path / "pop.csv"
    write_population_csv(path, ["a,1,2", "a,2,1"])
    assert main(["sort", "--input", str(path)]) == 2


def test_cli_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])  # missing --n
    assert exc.value.code == 2
    assert main(["verify", "--fs", str(tmp_path / "missing.json")]) == 2
    assert main(["run", "--approach", "linear"]) == 2  # neither workload nor seed


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sort", "--negate", "1,x"], "--negate"),
        (["bench", "--n", "abc"], "--n"),
        (["run", "--seed", "1", "--m", "x"], "--m"),
        (["sort", "--approach", "foo"], "--approach"),
    ],
)
def test_cli_argparse_usage_errors_are_one_line(capsys, argv, flag):
    # argparse's own errors end as the loaders' do: one line, exit 2, no usage dump
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: argument {flag}: "), err


def test_cli_negate_handles_maximization(tmp_path, capsys):
    path = tmp_path / "pop.csv"
    write_population_csv(path, ["a,1,1", "b,2,2", "c,3,3"])
    # maximizing both objectives reverses the chain
    assert main(["sort", "--input", str(path), "--negate", "1,2", "--report", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    levels = [[e["id"] for e in front] for front in doc["front_set"]["fronts"]]
    assert levels == [["c"], ["b"], ["a"]]


def test_cli_negate_rejects_a_repeated_column(tmp_path, capsys):
    path = tmp_path / "pop.csv"
    write_population_csv(path, ["a,1,1", "b,2,2"])
    assert main(["sort", "--input", str(path), "--negate", "1,1"]) == 2  # would negate column 1 twice
    assert capsys.readouterr().err.splitlines() == ["error: --negate column 1 repeated"]


def test_cli_negate_rejects_a_column_below_one_in_one_line(tmp_path, capsys):
    path = tmp_path / "pop.csv"
    write_population_csv(path, ["a,1,1", "b,2,2"])
    assert main(["sort", "--input", str(path), "--negate", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: --negate column 0 out of range 1..2"]


def test_cli_run_rejects_negate_without_a_workload_file(capsys):
    # a seeded workload has no file columns to negate, so the flag is an error, not ignored
    assert main(["run", "--seed", "1", "--negate", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --negate applies to --workload files, not to --seed workloads"]


def _run_script(name, *argv):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *argv], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("size", ["0", "-1", "x"])
def test_online_ratio_script_rejects_a_size_below_one(size):
    done = _run_script("online_ratio.py", "--sizes", "8", size)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith("online_ratio.py: error: argument --sizes: ")



@pytest.mark.parametrize("args", [["--sizes"], ["--sizes", "--seed", "3"]], ids=["alone", "before-seed"])
def test_online_ratio_script_rejects_sizes_without_a_value(args):
    # an empty --sizes list would print the table header and run nothing
    done = _run_script("online_ratio.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1] == "online_ratio.py: error: argument --sizes: expected at least one argument"

def test_code_lines_script_counts_code_only(tmp_path):
    # docstrings, comments and blank lines are not code; a string that is
    # not a docstring and a statement split over lines count every line
    (tmp_path / "mod.py").write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "import os  # a trailing comment\n"
        "\n"
        "# a comment line\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self, a,\n"
        "          b):\n"
        '        """Function\n        docstring."""\n'
        '        text = """not a\n        docstring"""\n'
        "        return text\n"
    )
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    done = _run_script("code_lines.py", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert [line.split() for line in done.stdout.splitlines()] == [["empty.py", "0"], ["mod.py", "7"], ["total", "7"]]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["code_lines.py"], ["online_ratio.py", "--sizes", "8"]], ids=["code_lines", "online_ratio"])
def test_script_exits_141_quietly_when_stdout_closes_early(argv, unbuffered):
    # as the CLI does under `| head -1`.  The read end closes before the
    # script starts, so its first write fails: at a print when unbuffered,
    # at the final flush when buffered
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, str(root / "scripts" / argv[0]), *argv[1:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141, err
    assert err == ""


def test_online_ratio_script_runs_its_checks():
    # the script asserts same_partition and the N-times-offline bound itself
    done = _run_script("online_ratio.py", "--sizes", "8", "16")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    keys = {(row[0], " ".join(row[1:-5]), row[-5]) for row in rows}
    assert len(keys) == len(rows) == 2 * 4 * len(APPROACHES)  # sizes x streams x approaches
    assert {(n, approach) for n, _, approach in keys} == {(n, a) for n in ("8", "16") for a in APPROACHES}
