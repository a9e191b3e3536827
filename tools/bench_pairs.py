"""Compare two source checkouts on the benchmark and write a BENCH file.

    python3 tools/bench_pairs.py pairs PARENT CHANGE --workload views --pairs 10 --out BENCH_4.json
    python3 tools/bench_pairs.py traced PARENT CHANGE --out BENCH_4.json
    python3 tools/bench_pairs.py sweep PARENT CHANGE --out BENCH_4.json
    python3 tools/bench_pairs.py check-cp PARENT CHANGE --pairs 3 --out BENCH_5.json
    python3 tools/bench_pairs.py closure-scale PARENT CHANGE --pairs 3 --out BENCH_8.json
    python3 tools/bench_pairs.py criteria PARENT CHANGE --pairs 5 --out BENCH_10.json

PARENT and CHANGE are directories holding a checkout each (``src/`` and
``perfbench/``).  ``pairs`` runs ``perfbench/run.py --trace 0`` once per
side for each pair, pair k with seed k, alternating which side runs first
(the parent in odd pairs), and records medians, quartiles,
``change_vs_parent`` and ``change_better_in_pairs`` of every end-to-end
metric.  ``traced`` runs ``perfbench/run.py --trace 1`` ``TRACED_RUNS``
times per side, alternating which side runs first (the parent in odd
runs), and records each per-layer metric's median over a side's runs.
Every run lasts the ``run_seconds`` its checkout's BENCHMARK.json declares.
``sweep`` times selftest's shared universe sweep once per side in a fresh
interpreter, change first.  ``check-cp`` times ``cp_evidence`` at bound 6
(what ``treealg check-cp --bound 6`` runs) for ``identity`` and ``mirror``,
``--pairs`` times per side, each run in a fresh interpreter, alternating
which side runs first, and records each run's seconds and peak RSS
(``ru_maxrss``) with their medians and quartiles.  ``closure-scale`` times
``bounded_closure([("a", "b")], N, cap=None)`` for N = 8 and 9 ``--pairs``
times per side, each run in a fresh interpreter whose address space is
capped at ``SCALE_MEMORY_GB``, alternating which side runs first, and
records each run's seconds and peak RSS (``ru_maxrss``) with their
medians and quartiles; a run that hits the cap is recorded as failed and
left out of the quartiles.  ``criteria`` times each selftest criterion
that skips the shared sweep (all but 2 and 3) ``--pairs`` times per side,
each run in a fresh interpreter, alternating which side runs first, and
records each run's seconds with their medians and quartiles.  Each
command merges its section into ``--out`` and leaves the other sections
as they are.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

SIDES = ("parent", "change")
TRACED_RUNS = 3  # one traced run cannot resolve a per-layer change under about 10%
RUN_TIMEOUT_S = 900
SWEEP = (
    "import time; from treealg.selftest import _Context; "
    "start = time.perf_counter(); _Context(0).sweep(); print(time.perf_counter() - start)"
)
CHECK_CP = (
    "import json, resource, sys, time; from treealg import cp_evidence, function_from_spec; "
    "func = function_from_spec(sys.argv[1]); start = time.perf_counter(); "
    "cp_evidence(func, int(sys.argv[2])); seconds = time.perf_counter() - start; "
    "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
    "print(json.dumps({'seconds': round(seconds, 3), 'peak_rss_mb': round(peak / 1024, 1)}))"
)
CHECK_CP_BOUND = 6
CHECK_CP_SPECS = ("identity", "mirror")
SCALE = (
    "import json, resource, sys, time; from treealg import bounded_closure; "
    "start = time.perf_counter(); bounded_closure([('a', 'b')], int(sys.argv[1]), cap=None); "
    "seconds = time.perf_counter() - start; peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
    "print(json.dumps({'seconds': round(seconds, 2), 'peak_rss_mb': round(peak / 1024)}))"
)
SCALE_BOUNDS = (8, 9)
SCALE_MEMORY_GB = 2  # address space per run, so that a universe too large for the box fails fast
CRITERION = (
    "import json, sys, time; from treealg.selftest import CRITERIA, _Context; "
    "criterion = CRITERIA[int(sys.argv[1]) - 1]; start = time.perf_counter(); "
    "passed = criterion(_Context(0)).passed; seconds = time.perf_counter() - start; "
    "print(json.dumps({'seconds': round(seconds, 6), 'passed': passed}))"
)
TIMED_CRITERIA = (1, 4, 5, 6, 7, 8, 9, 10, 11, 12)  # 2 and 3 share the universe sweep that `sweep` times


def machine() -> str:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return (
        f"{platform.machine()}, {os.cpu_count()} vCPUs, {pages / 2**30:.1f} GiB RAM, "
        f"{platform.system()} {platform.release()}, Python {platform.python_version()}"
    )


def declared(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def run_seconds(checkout: Path):
    """The run length, in seconds, that a checkout's BENCHMARK.json fixes."""
    return declared(checkout)["run_seconds"]


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The final JSON line of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(run_seconds(checkout)), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if not out.stdout.strip():
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout.name} printed nothing (exit {out.returncode})")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout.name}: wrong output")
    return result


def end_to_end_metrics(checkout: Path) -> dict:
    """Name -> "higher" or "lower" for the end-to-end metrics a checkout declares."""
    return {m["name"]: m["better"] for m in declared(checkout)["end_to_end"]}


def quartiles(values: list) -> dict:
    if len(values) == 1:  # statistics.quantiles needs two values
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def alternate(checkouts: dict, count: int, run: Callable[[Path, int], dict], label: str) -> dict:
    """Side -> ``[run(checkout, k) for k in 1..count]``, run k starting with the parent when k is odd."""
    runs = {side: [] for side in SIDES}
    for k in range(1, count + 1):
        for side in SIDES if k % 2 else SIDES[::-1]:
            runs[side].append(run(checkouts[side], k))
            print(f"{label} run {k}/{count}: {side} done", file=sys.stderr)
    return runs


def pairs_section(checkouts: dict, workload: str, count: int) -> dict:
    results = alternate(checkouts, count, lambda checkout, k: run_bench(checkout, workload, k, 0), workload)
    metrics = {}
    for name, better in end_to_end_metrics(checkouts["change"]).items():
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1 if better == "higher" else -1
        parent_median = statistics.median(values["parent"])
        metrics[name] = {
            "better": better,
            **{side: quartiles(values[side]) for side in SIDES},
            "change_vs_parent": round(statistics.median(values["change"]) / parent_median - 1, 4),
            "change_better_in_pairs": sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
            ),
        }
    return {
        "pairs": count,
        "seeds": list(range(1, count + 1)),
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "metrics": metrics,
    }


def traced_section(checkouts: dict, seed: int) -> dict:
    runs = alternate(checkouts, TRACED_RUNS, lambda checkout, k: run_bench(checkout, "views", seed, 1)["metrics"],
                     "traced")
    seconds = run_seconds(checkouts["change"])
    section = {
        "note": f"python3 perfbench/run.py --workload views --seed {seed} --seconds {seconds} --trace 1, "
        f"{TRACED_RUNS} runs per side, run k starting with the parent when k is odd; each run makes one "
        "traced round of every workload, each in a fresh interpreter; a figure is the median of a "
        "side's runs"
    }
    for name in runs["change"][0]:
        section[name] = {
            "unit": runs["change"][0][name]["unit"],
            **{side: round(statistics.median(m[name]["value"] for m in runs[side]), 4) for side in SIDES},
        }
    return section


def last_line(checkout: Path, code: str, *args: str) -> str:
    """The last line that ``code``, run with ``args`` in a fresh interpreter on a checkout, prints."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=checkout, env=env, stdout=subprocess.PIPE,
                         text=True, check=True, timeout=RUN_TIMEOUT_S)
    return out.stdout.splitlines()[-1]


def sweep_section(checkouts: dict) -> dict:
    seconds = {side: round(float(last_line(checkouts[side], SWEEP)), 1) for side in SIDES[::-1]}
    return {
        "note": "wall seconds (time.perf_counter) of _Context(0).sweep(), the encode/erase/rebuild/"
        "parse_tree sweep over all 3,137,844 trees with at most 8 leaves that selftest criteria "
        "share; one run per side in a fresh interpreter, change first",
        **{side: seconds[side] for side in SIDES},
    }


def check_cp_section(checkouts: dict, count: int) -> dict:
    section = {
        "note": f"wall seconds (time.perf_counter) and peak RSS (ru_maxrss) of "
        f"cp_evidence(function_from_spec(SPEC), {CHECK_CP_BOUND}), the work of treealg check-cp --bound "
        f"{CHECK_CP_BOUND}; {count} runs per side, each in a fresh interpreter, run k starting with the "
        "parent when k is odd; change_vs_parent compares the median seconds"
    }
    for spec in CHECK_CP_SPECS:
        runs = alternate(checkouts, count, lambda checkout, k: json.loads(
            last_line(checkout, CHECK_CP, spec, str(CHECK_CP_BOUND))), f"check-cp {spec}")
        section[spec] = {
            side: {"runs": runs[side], **{key: quartiles([run[key] for run in runs[side]])
                                          for key in ("seconds", "peak_rss_mb")}}
            for side in SIDES
        }
        medians = {side: section[spec][side]["seconds"]["median"] for side in SIDES}
        section[spec]["change_vs_parent"] = round(medians["change"] / medians["parent"] - 1, 4)
    return section


def scale_run(checkout: Path, bound: int) -> dict:
    """Seconds and peak RSS of one uncapped a~b closure at ``bound``, or why the run failed."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    limit = SCALE_MEMORY_GB * 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    out = subprocess.run([sys.executable, "-c", SCALE, str(bound)], cwd=checkout, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, preexec_fn=cap_memory)
    if out.returncode != 0:
        last = out.stderr.strip().splitlines()[-1:] or [f"exit {out.returncode}"]
        return {"failed": last[0]}
    return json.loads(out.stdout.splitlines()[-1])


def closure_scale_section(checkouts: dict, count: int) -> dict:
    section = {
        "note": "bounded_closure([('a', 'b')], N, cap=None): wall seconds (time.perf_counter) and peak RSS "
        f"(ru_maxrss) of {count} runs per side, each in a fresh interpreter with its address space capped at "
        f"{SCALE_MEMORY_GB} GiB, run k starting with the parent when k is odd; medians and quartiles "
        "leave failed runs out"
    }
    for bound in SCALE_BOUNDS:
        runs = alternate(checkouts, count, lambda checkout, k: scale_run(checkout, bound),
                         f"closure-scale bound {bound}")
        section[str(bound)] = {}
        for side in SIDES:
            done = [run for run in runs[side] if "failed" not in run]
            section[str(bound)][side] = {
                "runs": runs[side],
                **{key: quartiles([run[key] for run in done]) for key in ("seconds", "peak_rss_mb") if done},
            }
    return section


def criteria_section(checkouts: dict, count: int) -> dict:
    section = {
        "note": "wall seconds (time.perf_counter) of CRITERIA[N - 1](_Context(0)), selftest criterion N, for "
        f"the criteria that skip the shared universe sweep; {count} runs per side, each in a fresh "
        "interpreter, run k starting with the parent when k is odd; change_vs_parent compares the medians"
    }
    for number in TIMED_CRITERIA:
        runs = alternate(checkouts, count, lambda checkout, k: json.loads(
            last_line(checkout, CRITERION, str(number))), f"criterion {number}")
        section[str(number)] = {
            side: {"runs": [run["seconds"] for run in runs[side]],
                   "passed": all(run["passed"] for run in runs[side]),
                   "seconds": quartiles([run["seconds"] for run in runs[side]])}
            for side in SIDES
        }
        medians = {side: section[str(number)][side]["seconds"]["median"] for side in SIDES}
        section[str(number)]["change_vs_parent"] = round(medians["change"] / medians["parent"] - 1, 4)
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("pairs", "traced", "sweep", "check-cp", "closure-scale", "criteria"))
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to create or update")
    parser.add_argument("--workload", default="views", help="workload for pairs (default views)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pair count, or runs per side of check-cp, closure-scale and criteria (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the traced round (default 1)")
    parser.add_argument("--parent-name", help="how the file names the parent, such as its commit")
    parser.add_argument("--change-name", help="how the file names the change")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["machine"] = machine()
    for side, name in (("parent", args.parent_name), ("change", args.change_name)):
        if name:
            bench[side] = name
    if args.command == "pairs":
        bench["command"] = (
            f"python3 perfbench/run.py --workload W --seed S --seconds {run_seconds(checkouts['change'])} --trace 0, "
            "run from a fresh copy of each commit; pairs alternate which side runs first, pair k uses "
            "seed k; quartiles are statistics.quantiles(n=4, method='inclusive')"
        )
        section = pairs_section(checkouts, args.workload, args.pairs)
        bench.setdefault("workloads", {})[args.workload] = section
    elif args.command == "traced":
        bench["traced"] = traced_section(checkouts, args.seed)
    elif args.command == "sweep":
        bench["selftest_sweep"] = sweep_section(checkouts)
    elif args.command == "closure-scale":
        bench["closure_scale"] = closure_scale_section(checkouts, args.pairs)
    elif args.command == "criteria":
        bench["selftest_criteria"] = criteria_section(checkouts, args.pairs)
    else:
        bench["check_cp"] = check_cp_section(checkouts, args.pairs)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
