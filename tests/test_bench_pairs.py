"""tools/bench_pairs.py: pair order, seeds, run length and the BENCH summary figures."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402


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
    checkouts = {side: ROOT / side for side in bench_pairs.SIDES}
    monkeypatch.setattr(bench_pairs, "end_to_end_metrics", lambda _: {"setup_s": "lower", "work_per_s": "higher"})
    section = bench_pairs.pairs_section(checkouts, "views", 4)

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


def test_check_cp_alternates_and_takes_medians(monkeypatch):
    calls = []
    seconds = {"parent": [5.0, 4.0, 6.0], "change": [1.0, 1.2, 0.8]}

    def last_line(checkout, code, spec, bound):
        calls.append((checkout.name, spec, bound))
        k = sum(1 for c in calls if c[:2] == (checkout.name, spec)) - 1
        return json.dumps({"seconds": seconds[checkout.name][k], "peak_rss_mb": 40.0 + k})

    monkeypatch.setattr(bench_pairs, "last_line", last_line)
    checkouts = {side: ROOT / side for side in bench_pairs.SIDES}
    section = bench_pairs.check_cp_section(checkouts, 3)

    assert calls[:6] == [("parent", "identity", "6"), ("change", "identity", "6"), ("change", "identity", "6"),
                         ("parent", "identity", "6"), ("parent", "identity", "6"), ("change", "identity", "6")]
    assert len(calls) == 12 and {c[1] for c in calls[6:]} == {"mirror"}
    assert section["identity"]["parent"]["seconds"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
    assert section["mirror"]["change"]["seconds"]["median"] == 1.0
    assert section["mirror"]["change_vs_parent"] == -0.8


def test_check_cp_records_peak_rss_beside_seconds(monkeypatch):
    figures = iter([{"seconds": 0.7, "peak_rss_mb": 44.1}, {"seconds": 0.8, "peak_rss_mb": 36.2}] * 2)
    monkeypatch.setattr(bench_pairs, "last_line", lambda *args: json.dumps(next(figures)))
    monkeypatch.setattr(bench_pairs, "CHECK_CP_SPECS", ("identity",))
    checkouts = {side: ROOT / side for side in bench_pairs.SIDES}
    section = bench_pairs.check_cp_section(checkouts, 2)

    # pair 1 runs the parent first, pair 2 the change
    assert section["identity"]["parent"]["runs"] == [{"seconds": 0.7, "peak_rss_mb": 44.1},
                                                     {"seconds": 0.8, "peak_rss_mb": 36.2}]
    assert section["identity"]["change"]["peak_rss_mb"] == {"median": 40.15, "q1": 38.175, "q3": 42.125}
    assert "peak RSS" in section["note"] and "2 runs per side" in section["note"]
    code = bench_pairs.CHECK_CP
    assert "ru_maxrss" in code and "'peak_rss_mb'" in code


def test_closure_scale_alternates_and_records_failures(monkeypatch):
    calls = []
    seconds = {"parent": [6.0, 5.0, 8.0], "change": [3.0, 3.5, 3.2]}

    def run(argv, **kwargs):
        side, bound = Path(kwargs["cwd"]).name, argv[-1]
        calls.append((side, bound))
        k = sum(1 for c in calls if c == (side, bound)) - 1
        if (side, bound, k) in {("parent", "9", 0), ("parent", "9", 2), ("change", "9", 1)}:
            return subprocess.CompletedProcess(argv, 1, stdout="", stderr="Traceback ...\nMemoryError\n")
        figures = {"seconds": seconds[side][k], "peak_rss_mb": 90 if side == "parent" else 50 + k}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(figures) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    checkouts = {side: ROOT / side for side in bench_pairs.SIDES}
    section = bench_pairs.closure_scale_section(checkouts, 3)

    assert calls == [("parent", "8"), ("change", "8"), ("change", "8"), ("parent", "8"), ("parent", "8"),
                     ("change", "8"), ("parent", "9"), ("change", "9"), ("change", "9"), ("parent", "9"),
                     ("parent", "9"), ("change", "9")]
    assert section["8"]["parent"]["runs"][1] == {"seconds": 5.0, "peak_rss_mb": 90}
    assert section["8"]["parent"]["seconds"] == {"median": 6.0, "q1": 5.5, "q3": 7.0}
    assert section["8"]["change"]["peak_rss_mb"] == {"median": 51, "q1": 50.5, "q3": 51.5}
    # failed runs stay in the record and out of the quartiles
    assert section["9"]["parent"] == {
        "runs": [{"failed": "MemoryError"}, {"seconds": 5.0, "peak_rss_mb": 90}, {"failed": "MemoryError"}],
        "seconds": {"median": 5.0, "q1": 5.0, "q3": 5.0},
        "peak_rss_mb": {"median": 90, "q1": 90, "q3": 90},
    }
    assert section["9"]["change"]["seconds"] == {"median": 3.1, "q1": 3.05, "q3": 3.15}
    assert "3 runs per side" in section["note"]


def test_closure_scale_leaves_out_quartiles_when_every_run_failed(monkeypatch):
    def run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 1, stdout="", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    checkouts = {side: ROOT / side for side in bench_pairs.SIDES}
    section = bench_pairs.closure_scale_section(checkouts, 2)
    assert section["8"]["change"] == {"runs": [{"failed": "exit 1"}, {"failed": "exit 1"}]}


def test_traced_alternates_and_takes_medians(monkeypatch):
    calls = []
    figures = {"parent": [2.0, 1.0, 9.0], "change": [1.5, 0.5, 1.0]}

    def run_bench(checkout, workload, seed, trace):
        calls.append((checkout.name, workload, seed, trace))
        value = figures[checkout.name][sum(1 for c in calls if c[0] == checkout.name) - 1]
        return {"correct": True, "metrics": {"views.trees.encode.us_per_tree": {"value": value, "unit": "us"}}}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "run_seconds", lambda _: 5)
    checkouts = {side: ROOT / side for side in bench_pairs.SIDES}
    section = bench_pairs.traced_section(checkouts, 7)

    assert bench_pairs.TRACED_RUNS == 3
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {c[1:] for c in calls} == {("views", 7, 1)}
    assert section["views.trees.encode.us_per_tree"] == {"unit": "us", "parent": 2.0, "change": 1.0}
    assert "3 runs per side" in section["note"] and "median" in section["note"]


def test_criteria_alternate_skip_the_sweep_and_take_medians(monkeypatch):
    calls = []
    seconds = {"parent": [2.4, 2.8, 2.6], "change": [1.0, 1.4, 1.2]}

    def last_line(checkout, code, number):
        calls.append((checkout.name, number))
        k = sum(1 for c in calls if c == (checkout.name, number)) - 1
        return json.dumps({"seconds": seconds[checkout.name][k], "passed": True})

    monkeypatch.setattr(bench_pairs, "last_line", last_line)
    checkouts = {side: ROOT / side for side in bench_pairs.SIDES}
    section = bench_pairs.criteria_section(checkouts, 3)

    # one fresh interpreter per run, pair k starting with the parent when k is odd
    assert calls[:6] == [("parent", "1"), ("change", "1"), ("change", "1"),
                         ("parent", "1"), ("parent", "1"), ("change", "1")]
    assert [c[1] for c in calls[::6]] == ["1", "4", "5", "6", "7", "8", "9", "10", "11", "12"]
    assert "2" not in section and "3" not in section
    assert section["8"]["parent"] == {"runs": [2.4, 2.8, 2.6], "passed": True,
                                      "seconds": {"median": 2.6, "q1": 2.5, "q3": 2.7}}
    assert section["8"]["change"]["seconds"]["median"] == 1.2
    assert section["8"]["change_vs_parent"] == round(1.2 / 2.6 - 1, 4)
    assert "3 runs per side" in section["note"]
    code = bench_pairs.CRITERION
    assert "CRITERIA[int(sys.argv[1]) - 1]" in code and "perf_counter" in code
