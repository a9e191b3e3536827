"""tools/bench_pairs.py: pair order, seeds, run length, timed runs and the BENCH summary figures."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

CHECKOUTS = {side: ROOT / side for side in bench_pairs.SIDES}
SECTIONS = {"traced": "traced", "sweep": "selftest_sweep", "check-cp": "check_cp", "to-poly": "to_poly",
            "to-poly-deep": "to_poly_deep", "closure-scale": "closure_scale", "criteria": "selftest_criteria",
            "parse-keep": "parse_keep"}
# criteria 2 and 3 share the universe sweep that `sweep` times
ARGS = {"sweep": ("all",), "check-cp": ("identity", "mirror", "recolor:b", "poly:<<c*<x*a>>*x>"),
        "to-poly": ("identity", "poly:<<c*<x*a>>*x>"),
        "to-poly-deep": ("const:abc", "poly:xa"), "closure-scale": ("8", "9"),
        "criteria": ("1", "4", "5", "6", "7", "8", "9", "10", "11", "12"), "parse-keep": ("parse", "rebuild")}


def fake_result(work_per_s, setup_s):
    metrics = {"work_per_s": {"value": work_per_s, "unit": "1/s"}, "setup_s": {"value": setup_s, "unit": "s"}}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


def test_pairs_alternate_and_summarize(monkeypatch):
    calls = []
    # change: more work per second in every pair, slower setup in pairs 1 and 3
    figures = {
        "parent": {1: (100, 1.0), 2: (110, 1.0), 3: (90, 1.0), 4: (100, 1.0)},
        "change": {1: (120, 2.0), 2: (130, 0.5), 3: (95, 2.0), 4: (150, 0.5)},
    }

    def run_bench(checkout, workload, seed, trace):
        calls.append((checkout.name, seed))
        return fake_result(*figures[checkout.name][seed])

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "end_to_end_metrics", lambda _: {"setup_s": "lower", "work_per_s": "higher"})
    section = bench_pairs.pairs_section(CHECKOUTS, "views", 4)

    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    assert section["seeds"] == [1, 2, 3, 4]
    assert section["attempted"] == {"parent": 40, "change": 40}
    work = section["metrics"]["work_per_s"]
    assert work["parent"] == {"median": 100, "q1": 97.5, "q3": 102.5}
    assert work["change"]["median"] == 125
    assert work["change_vs_parent"] == 0.25
    assert work["change_better_in_pairs"] == 4
    assert section["metrics"]["setup_s"]["change_better_in_pairs"] == 2


def test_pairs_start_at_the_first_seed(monkeypatch):
    seeds = []
    monkeypatch.setattr(bench_pairs, "run_bench", lambda checkout, workload, seed, trace: seeds.append(seed)
                        or fake_result(100, 1.0))
    monkeypatch.setattr(bench_pairs, "end_to_end_metrics", lambda _: {"work_per_s": "higher"})
    section = bench_pairs.pairs_section(CHECKOUTS, "views", 3, first_seed=21)
    assert seeds == [21, 21, 22, 22, 23, 23] and section["seeds"] == [21, 22, 23]


def test_a_batch_on_other_seeds_goes_beside_the_first(monkeypatch, tmp_path):
    runs = []

    def run_bench(checkout, workload, seed, trace):
        runs.append(seed)
        return fake_result(100 + len(runs), 1.0)

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "end_to_end_metrics", lambda _: {"work_per_s": "higher"})
    monkeypatch.setattr(bench_pairs, "run_seconds", lambda _: 5)
    out = tmp_path / "BENCH.json"

    def pairs(workload, seed, count):
        bench_pairs.main(["pairs", "parent", "change", "--workload", workload, "--seed", str(seed),
                          "--pairs", str(count), "--out", str(out)])
        return {name: section["seeds"] for name, section in json.loads(out.read_text())["workloads"].items()}

    assert pairs("evidence", 1, 3) == {"evidence": [1, 2, 3]}
    assert pairs("evidence", 11, 2) == {"evidence": [1, 2, 3], "evidence seeds 11-12": [11, 12]}
    assert pairs("views", 1, 2) == {"evidence": [1, 2, 3], "evidence seeds 11-12": [11, 12], "views": [1, 2]}
    # a rerun on the same seeds replaces its batch, whichever it is
    figures = json.loads(out.read_text())["workloads"]["evidence seeds 11-12"]["metrics"]["work_per_s"]
    assert pairs("evidence", 11, 2) == {"evidence": [1, 2, 3], "evidence seeds 11-12": [11, 12], "views": [1, 2]}
    rerun = json.loads(out.read_text())["workloads"]["evidence seeds 11-12"]["metrics"]["work_per_s"]
    assert rerun["parent"]["median"] > figures["parent"]["median"]
    assert pairs("evidence", 1, 3) == {"evidence": [1, 2, 3], "evidence seeds 11-12": [11, 12], "views": [1, 2]}
    assert len(runs) == 2 * (3 + 2 + 2 + 2 + 3)


def test_runs_last_the_declared_run_seconds(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 2, "end_to_end": []}))
    argvs = []

    def run(argv, **kwargs):
        argvs.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(fake_result(1, 1)) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    bench_pairs.run_bench(tmp_path, "views", 3, 0)
    assert argvs[0][argvs[0].index("--seconds") + 1] == "2"
    assert bench_pairs.run_seconds(ROOT) == json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def test_traced_alternates_and_takes_medians(monkeypatch):
    calls = []
    figures = {"parent": [2.0, 1.0, 9.0], "change": [1.5, 0.5, 1.0]}

    def run_bench(checkout, workload, seed, trace):
        calls.append((checkout.name, workload, seed, trace))
        value = figures[checkout.name][sum(1 for c in calls if c[0] == checkout.name) - 1]
        return {"correct": True, "metrics": {"views.trees.encode.us_per_tree": {"value": value, "unit": "us"}}}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "run_seconds", lambda _: 5)
    section = bench_pairs.traced_section(CHECKOUTS, 7, 3)

    assert [c[0] for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {c[1:] for c in calls} == {("views", 7, 1)}
    assert section["views.trees.encode.us_per_tree"] == {"unit": "us", "parent": 2.0, "change": 1.0}
    assert "3 runs per side" in section["note"] and "median" in section["note"]


def test_check_cp_alternates_and_takes_medians(monkeypatch):
    calls = []
    seconds = {"parent": [5.0, 4.0, 6.0], "change": [1.0, 1.2, 0.8]}

    def timed_run(checkout, command, arg):
        calls.append((checkout.name, command, arg))
        k = calls.count((checkout.name, command, arg)) - 1
        return {"seconds": seconds[checkout.name][k], "peak_rss_mb": 40.0 + k}

    monkeypatch.setattr(bench_pairs, "timed_run", timed_run)
    section = bench_pairs.timed_section(CHECKOUTS, "check-cp", 3)

    assert calls[:6] == [("parent", "check-cp", "identity"), ("change", "check-cp", "identity"),
                         ("change", "check-cp", "identity"), ("parent", "check-cp", "identity"),
                         ("parent", "check-cp", "identity"), ("change", "check-cp", "identity")]
    assert len(calls) == 6 * len(ARGS["check-cp"]) and {c[2] for c in calls[6:12]} == {"mirror"}
    assert "cp_evidence(function_from_spec(ARG), 6)" in section["note"]
    assert section["identity"]["parent"]["seconds"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
    assert section["mirror"]["change"]["seconds"]["median"] == 1.0
    assert section["mirror"]["change_vs_parent"] == -0.8


def test_check_cp_records_peak_rss_beside_seconds(monkeypatch):
    figures = iter([{"seconds": 0.7, "peak_rss_mb": 44.1}, {"seconds": 0.8, "peak_rss_mb": 36.2}] * 2)
    monkeypatch.setattr(bench_pairs, "timed_run", lambda *args: next(figures))
    monkeypatch.setitem(bench_pairs.TIMED, "check-cp", bench_pairs.TIMED["check-cp"][:3] + (("identity",),))
    section = bench_pairs.timed_section(CHECKOUTS, "check-cp", 2)

    # pair 1 runs the parent first, pair 2 the change
    assert section["identity"]["parent"]["runs"] == [{"seconds": 0.7, "peak_rss_mb": 44.1},
                                                     {"seconds": 0.8, "peak_rss_mb": 36.2}]
    assert section["identity"]["change"]["peak_rss_mb"] == {"median": 40.15, "q1": 38.175, "q3": 42.125}
    assert "peak RSS" in section["note"] and "2 runs per side" in section["note"]
    code = bench_pairs.child("check-cp")
    assert "ru_maxrss" in code and "'peak_rss_mb'" in code


@pytest.mark.parametrize("command", ["traced", *bench_pairs.TIMED])
def test_every_command_takes_its_run_count_from_pairs(monkeypatch, tmp_path, command):
    counts = []
    monkeypatch.setattr(bench_pairs, "traced_section", lambda checkouts, seed, count: counts.append(count) or {})
    monkeypatch.setattr(bench_pairs, "timed_section", lambda checkouts, name, count: counts.append(count) or {})
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"kept": 1}))
    bench_pairs.main([command, "parent", "change", "--pairs", "4", "--out", str(out)])
    assert counts == [4]
    assert set(json.loads(out.read_text())) == {"kept", "machine", SECTIONS[command]}


@pytest.mark.parametrize("command", bench_pairs.TIMED)
def test_timed_section_alternates_and_takes_quartiles(monkeypatch, command):
    calls = []
    seconds = {"parent": [5.0, 4.0, 6.0], "change": [1.0, 1.2, 0.8]}

    def timed_run(checkout, name, arg):
        calls.append((checkout.name, name, arg))
        k = calls.count((checkout.name, name, arg)) - 1
        return {"seconds": seconds[checkout.name][k], "peak_rss_mb": 40.0 + k}

    monkeypatch.setattr(bench_pairs, "timed_run", timed_run)
    section = bench_pairs.timed_section(CHECKOUTS, command, 3)

    args = bench_pairs.TIMED[command][3]
    assert args == ARGS[command]
    # one fresh interpreter per run, run k starting with the parent when k is odd
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(side, command, arg) for arg in args for side in order]
    assert list(section) == ["note", *args]
    for arg in args:
        assert section[arg]["parent"] == {
            "runs": [{"seconds": 5.0, "peak_rss_mb": 40.0}, {"seconds": 4.0, "peak_rss_mb": 41.0},
                     {"seconds": 6.0, "peak_rss_mb": 42.0}],
            "seconds": {"median": 5.0, "q1": 4.5, "q3": 5.5},
            "peak_rss_mb": {"median": 41.0, "q1": 40.5, "q3": 41.5},
        }
        assert section[arg]["change"]["seconds"] == {"median": 1.0, "q1": 0.9, "q3": 1.1}
        assert section[arg]["change_vs_parent"] == -0.8
    assert "3 runs per side" in section["note"] and "peak RSS" in section["note"]
    assert bench_pairs.TIMED[command][2] in section["note"]


def failing_run(failures):
    """A ``subprocess.run`` stand-in: run k of a side fails, for every ARG, with ``failures[side, k]`` as its stderr."""
    calls = []

    def run(argv, **kwargs):
        side = Path(kwargs["cwd"]).name
        calls.append((side, argv[-1]))
        k = calls.count((side, argv[-1])) - 1
        if (side, k) in failures:
            return subprocess.CompletedProcess(argv, 1, stdout="", stderr=failures[side, k])
        figures = {"seconds": 6.0 - k if side == "parent" else 3.0 + k, "peak_rss_mb": 90.0}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(figures) + "\n", stderr="")

    return run


@pytest.mark.parametrize("command", bench_pairs.TIMED)
def test_timed_section_records_failed_runs(monkeypatch, command):
    memory = "Traceback ...\nMemoryError\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run", failing_run({("change", 0): memory, ("change", 2): memory}))
    section = bench_pairs.timed_section(CHECKOUTS, command, 3)

    # failed runs stay in the record and out of the quartiles
    for arg in bench_pairs.TIMED[command][3]:
        assert section[arg]["change"] == {
            "runs": [{"failed": "MemoryError"}, {"seconds": 4.0, "peak_rss_mb": 90.0}, {"failed": "MemoryError"}],
            "seconds": {"median": 4.0, "q1": 4.0, "q3": 4.0},
            "peak_rss_mb": {"median": 90.0, "q1": 90.0, "q3": 90.0},
        }
        assert section[arg]["parent"]["seconds"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
        assert section[arg]["change_vs_parent"] == -0.2


@pytest.mark.parametrize("command", bench_pairs.TIMED)
def test_timed_section_leaves_out_quartiles_when_every_run_failed(monkeypatch, command):
    monkeypatch.setattr(bench_pairs.subprocess, "run", failing_run({("parent", 0): "", ("parent", 1): ""}))
    section = bench_pairs.timed_section(CHECKOUTS, command, 2)
    for arg in bench_pairs.TIMED[command][3]:
        assert section[arg]["parent"] == {"runs": [{"failed": "exit 1"}] * 2}
        assert "seconds" in section[arg]["change"] and "change_vs_parent" not in section[arg]


@pytest.mark.parametrize("command", bench_pairs.TIMED)
def test_child_program_compiles(command):
    code = bench_pairs.child(command)
    compile(code, command, "exec")
    assert bench_pairs.TIMED[command][2] in code and "perf_counter" in code and "ru_maxrss" in code


@pytest.mark.parametrize("command, arg", [("criteria", "1"), ("closure-scale", "3")])
def test_timed_run_in_a_fresh_interpreter(command, arg):
    run = bench_pairs.timed_run(ROOT, command, arg)
    assert set(run) == {"seconds", "ref_seconds", "peak_rss_mb", "calls"}
    assert run["seconds"] >= 0 and run["ref_seconds"] >= 0 and run["peak_rss_mb"] > 0 and run["calls"] >= 1


def test_sub_millisecond_criteria_repeat_until_the_reference_clock_has_run():
    # criterion 1 takes well under a millisecond, so one run makes many calls, each with a fresh context
    assert "_Context(0)" in bench_pairs.TIMED["criteria"][2]
    run = bench_pairs.timed_run(ROOT, "criteria", "1")
    assert run["calls"] > 10
    # per-call figures keep nine digits, so that their product with the call count still reads the whole run
    assert run["ref_seconds"] * run["calls"] >= bench_pairs.MIN_REF_S["criteria"] - 1e-9 * run["calls"]
    assert run["seconds"] < 0.05
    # a row outside MIN_REF_S makes one call however short it is
    assert bench_pairs.timed_run(ROOT, "closure-scale", "1")["calls"] == 1


def test_repeated_rows_say_so_and_keep_the_call_counts(monkeypatch):
    monkeypatch.setattr(bench_pairs, "timed_run", lambda *args: {"seconds": 0.001, "calls": 200})
    monkeypatch.setitem(bench_pairs.TIMED, "criteria", bench_pairs.TIMED["criteria"][:3] + (("1",),))
    section = bench_pairs.timed_section(CHECKOUTS, "criteria", 2)
    assert "repeats the call until 0.2 s have passed on the reference clock" in section["note"]
    assert "per call" in section["note"]
    assert section["1"]["change"]["calls"] == {"median": 200, "q1": 200, "q3": 200}
    assert "repeats" not in bench_pairs.timed_section(CHECKOUTS, "closure-scale", 1)["note"]


def test_timed_call_runs_on_the_checkouts_reference_clock(monkeypatch):
    # the call runs while the checkout's perfbench/speed.py keeps its reference clock
    call = "assert speed._active is not None and speed.clock() != time.perf_counter()"
    monkeypatch.setitem(bench_pairs.TIMED, "criteria", ("selftest_criteria", "import speed", call, ("1",)))
    run = bench_pairs.timed_run(ROOT, "criteria", "1")
    assert "failed" not in run and run["ref_seconds"] >= 0
    # ref_seconds gets its quartiles beside seconds, and the change is compared on both clocks
    figures = {"parent": [(5.0, 2.0), (4.0, 2.1), (6.0, 1.9)], "change": [(1.0, 2.2), (1.2, 2.4), (0.8, 2.0)]}
    calls = []

    def timed_run(checkout, name, arg):
        calls.append(checkout.name)
        seconds, ref_seconds = figures[checkout.name][calls.count(checkout.name) - 1]
        return {"seconds": seconds, "ref_seconds": ref_seconds, "peak_rss_mb": 40.0}

    monkeypatch.setattr(bench_pairs, "timed_run", timed_run)
    monkeypatch.setitem(bench_pairs.TIMED, "check-cp", bench_pairs.TIMED["check-cp"][:3] + (("identity",),))
    entry = bench_pairs.timed_section(CHECKOUTS, "check-cp", 3)["identity"]
    assert entry["parent"]["ref_seconds"] == {"median": 2.0, "q1": 1.95, "q3": 2.05}
    assert entry["change"]["ref_seconds"] == {"median": 2.2, "q1": 2.1, "q3": 2.3}
    assert entry["change_vs_parent"] == -0.8 and entry["ref_change_vs_parent"] == 0.1


def test_timed_run_records_a_failed_call(monkeypatch):
    assert bench_pairs.timed_run(ROOT, "closure-scale", "0") == {"failed": "ValueError: max_leaves must be >= 1"}
    # a criterion that does not pass is a failed run
    monkeypatch.setitem(bench_pairs.TIMED, "criteria", ("selftest_criteria", "import sys", "assert ARG == '1'", ("2",)))
    assert bench_pairs.timed_run(ROOT, "criteria", "2") == {"failed": "AssertionError"}
