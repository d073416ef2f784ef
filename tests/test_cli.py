"""End-to-end checks of the command-line surface and its file formats."""

from __future__ import annotations

import json

import pytest

from ndfronts import Counter, FrontSet, Solution, full_sort, same_partition
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


def test_front_set_from_doc_rejects_malformed_documents():
    with pytest.raises(InputError):
        front_set_from_doc({"fronts": []})
    with pytest.raises(InputError):
        front_set_from_doc({"m": 2, "fronts": [[{"id": "a"}]]})


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


def test_random_workload_is_deterministic_and_live():
    w1 = random_workload(42, m=3, total_steps=50)
    w2 = random_workload(42, m=3, total_steps=50)
    assert w1 == w2
    check_workload(w1)


def test_run_workload_delete_reshapes_levels(nine_in_four_levels):
    path_rows = []
    workload = load_workload_from_steps(nine_in_four_levels)
    fs = FrontSet(2)
    report = run_workload(fs, workload, "linear", check=True)
    assert report["final_solutions"] == 8
    assert fs.level_ids() == [{"2"}, {"1", "3", "6"}, {"8", "5", "7"}, {"9"}]
    assert report["steps"][-1]["op"] == "delete"


def load_workload_from_steps(by_id):
    from ndfronts.cli import DeleteStep, InsertStep, Workload

    steps = [InsertStep(sol) for sol in by_id.values()]
    steps.append(DeleteStep("4"))
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


def test_bench_rows_all_pass():
    for scenario, n, k in (
        ("chain", 100, None),
        ("antichain", 50, None),
        ("equal-fronts", 100, 10),
        ("worst-two-front", 100, None),
    ):
        for row in bench_rows(scenario, n, k, ("linear", "ltree", "rtree")):
            assert row["ok"], row


# --- the executable ------------------------------------------------------------

def test_cli_sort_and_verify_roundtrip(tmp_path, twelve_in_five_levels, capsys):
    pop_csv = twelve_csv(tmp_path, twelve_in_five_levels)
    dump = tmp_path / "out.json"
    assert main(["sort", "--input", str(pop_csv), "--approach", "ltree", "--out", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "5 fronts" in out
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


@pytest.mark.parametrize(
    "fronts",
    [
        # a repeated id, which FrontSet would silently merge
        [[{"id": "a", "obj": [1.0, 2.0]}, {"id": "b", "obj": [2.0, 1.0]}], [{"id": "a", "obj": [3.0, 3.0]}]],
        # a solution whose objective count disagrees with the dump's m
        [[{"id": "a", "obj": [1.0, 2.0]}], [{"id": "b", "obj": [3.0, 3.0, 3.0]}]],
    ],
    ids=["duplicate-id", "wrong-m"],
)
def test_cli_run_rejects_invalid_dump_before_any_step(tmp_path, capsys, fronts):
    dump = tmp_path / "bad.json"
    dump.write_text(json.dumps({"m": 2, "fronts": fronts}))
    w = tmp_path / "w.csv"
    w.write_text("op,id,obj_1,obj_2\ninsert,n,0.5,0.5\n")
    out = tmp_path / "after.json"
    assert main(["run", "--fs", str(dump), "--workload", str(w), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()
    assert main(["verify", "--fs", str(dump)]) == 1
    assert "FAIL" in capsys.readouterr().out


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


def test_cli_negate_handles_maximization(tmp_path, capsys):
    path = tmp_path / "pop.csv"
    write_population_csv(path, ["a,1,1", "b,2,2", "c,3,3"])
    # maximizing both objectives reverses the chain
    assert main(["sort", "--input", str(path), "--negate", "1,2", "--report", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    levels = [[e["id"] for e in front] for front in doc["front_set"]["fronts"]]
    assert levels == [["c"], ["b"], ["a"]]
