"""Compare two source checkouts on the benchmark and write a BENCH file.

    python3 tools/bench_pairs.py pairs PARENT CHANGE --workload views --pairs 10 --out BENCH_4.json
    python3 tools/bench_pairs.py traced PARENT CHANGE --pairs 10 --out BENCH_4.json
    python3 tools/bench_pairs.py COMMAND PARENT CHANGE --pairs 5 --out BENCH_10.json

PARENT and CHANGE are directories holding a checkout each (``src/`` and
``perfbench/``).  Every command makes ``--pairs`` runs per side, run k
starting with the parent when k is odd.  ``pairs`` runs ``perfbench/run.py
--trace 0`` with seed ``--seed`` + k - 1 and records medians, quartiles,
``change_vs_parent`` and ``change_better_in_pairs`` of every end-to-end
metric; ``traced`` runs ``perfbench/run.py --trace 1`` and records each
per-layer metric's median over a side's runs.  Both last the
``run_seconds`` each checkout's BENCHMARK.json declares.  Every other
COMMAND is a row of ``TIMED``: for each of its ARGs a fresh interpreter,
its address space capped at ``MEMORY_GB``, runs the row's call inside the
checkout's ``perfbench/speed.Speedometer`` and reports its wall seconds
(``perf_counter``), its seconds on the reference clock (``ref_seconds``,
which host speed drift mostly leaves alone) and its peak RSS
(``ru_maxrss``), per call over its number of calls (``calls``): a row of
``MIN_REF_S`` repeats its call until that many seconds have passed on the
reference clock, and every other row makes one call.  The row's section
keeps every run, failed ones as their last stderr line, and the quartiles
of the others.  Each command merges its section into ``--out`` and leaves
the other sections as they are.  A ``pairs`` batch goes under its
workload's name in ``workloads``, unless a batch on other seeds is there;
then it goes beside it, under the name and its seeds, such as ``evidence
seeds 11-15``.  A batch on the same seeds replaces the one there.  Stdlib
only.
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
RUN_TIMEOUT_S = 900
MEMORY_GB = 2  # address space per timed run, so that a universe too large for the box fails fast
TIMED = {  # command: (BENCH section, imports, timed call of ARG, ARGs)
    "sweep": ("selftest_sweep", "from treealg.selftest import _Context", "_Context(0).sweep()", ("all",)),
    "check-cp": ("check_cp", "from treealg import cp_evidence, function_from_spec",
                 "cp_evidence(function_from_spec(ARG), 6)",
                 ("identity", "mirror", "recolor:b", "poly:<<c*<x*a>>*x>")),
    "to-poly": ("to_poly", "from treealg import cp_to_polynomial, function_from_spec",
                "cp_to_polynomial(function_from_spec(ARG), 7, cap=None)", ("identity", "poly:<<c*<x*a>>*x>")),
    # ARG is KIND:LETTERS, for a left comb of 1,200 leaves with LETTERS cycling up from its bottom leaf
    "to-poly-deep": ("to_poly_deep", "from treealg import cp_to_polynomial, function_from_spec; comb = lambda kind, "
                     "letters: f\"{kind}:{'<' * 1199}{letters[0]}\" + ''.join(f'*{letters[i % len(letters)]}>' "
                     "for i in range(1, 1200))",
                     "cp_to_polynomial(function_from_spec(comb(*ARG.split(':'))), 4)", ("const:abc", "poly:xa")),
    "closure-scale": ("closure_scale", "from treealg import bounded_closure",
                      "bounded_closure([('a', 'b')], int(ARG), cap=None)", ("8", "9")),
    # 2 and 3 share the universe sweep that `sweep` times
    "criteria": ("selftest_criteria", "from treealg.selftest import CRITERIA, _Context",
                 "assert CRITERIA[int(ARG) - 1](_Context(0)).passed", ("1", *map(str, range(4, 13)))),
    # every tree of U_7 kept at once: ARG parse parses each word, ARG rebuild rebuilds each word's two projections
    "parse-keep": ("parse_keep", "from treealg import Universe, erase_letters, erase_shapes, parse_tree, rebuild; "
                   "words = Universe(7, cap=None).words(); "
                   "foliages, skeletons = list(map(erase_shapes, words)), list(map(erase_letters, words))",
                   "kept = list(map(parse_tree, words)) if ARG == 'parse' else list(map(rebuild, foliages, skeletons))",
                   ("parse", "rebuild")),
}
# rows whose call is repeated, each time with fresh arguments, until this many seconds have
# passed on the reference clock: criteria 1, 7 and 9 take well under a millisecond each
MIN_REF_S = {"criteria": 0.2}


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
    return {"median": round(median, 9), "q1": round(q1, 9), "q3": round(q3, 9)}


def alternate(checkouts: dict, count: int, run: Callable[[Path, int], dict], label: str) -> dict:
    """Side -> ``[run(checkout, k) for k in 1..count]``, run k starting with the parent when k is odd."""
    runs = {side: [] for side in SIDES}
    for k in range(1, count + 1):
        for side in SIDES if k % 2 else SIDES[::-1]:
            runs[side].append(run(checkouts[side], k))
            print(f"{label} run {k}/{count}: {side} done", file=sys.stderr)
    return runs


def pairs_section(checkouts: dict, workload: str, count: int, first_seed: int = 1) -> dict:
    seeds = list(range(first_seed, first_seed + count))
    results = alternate(checkouts, count, lambda checkout, k: run_bench(checkout, workload, seeds[k - 1], 0), workload)
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
        "seeds": seeds,
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "metrics": metrics,
    }


def batch_key(workloads: dict, workload: str, seeds: list) -> str:
    """The key of a ``pairs`` batch on ``seeds`` in a BENCH file's ``workloads``."""
    first = workloads.get(workload)
    if first is None or first["seeds"] == seeds:
        return workload
    return f"{workload} seeds {seeds[0]}-{seeds[-1]}"


def traced_section(checkouts: dict, seed: int, count: int) -> dict:
    runs = alternate(checkouts, count, lambda checkout, k: run_bench(checkout, "views", seed, 1)["metrics"],
                     "traced")
    seconds = run_seconds(checkouts["change"])
    section = {
        "note": f"python3 perfbench/run.py --workload views --seed {seed} --seconds {seconds} --trace 1, "
        f"{count} runs per side, run k starting with the parent when k is odd; each run makes one "
        "traced round of every workload, each in a fresh interpreter; a figure is the median of a "
        "side's runs"
    }
    for name in runs["change"][0]:
        section[name] = {
            "unit": runs["change"][0][name]["unit"],
            **{side: round(statistics.median(m[name]["value"] for m in runs[side]), 4) for side in SIDES},
        }
    return section


def child(command: str) -> str:
    """The program a timed run of ``command`` runs in a checkout: it times the call for
    ``ARG = sys.argv[1]`` on the wall clock and on the checkout's reference clock, repeating
    it until ``MIN_REF_S`` of the row have passed on the reference clock."""
    _, imports, call, _ = TIMED[command]
    return (
        f"import json, resource, sys, time\nsys.path.insert(0, 'perfbench')\nfrom speed import Speedometer, clock\n"
        f"{imports}\nARG = sys.argv[1]\nwith Speedometer():\n"
        "    start, ref, calls = time.perf_counter(), clock(), 0\n"
        f"    while not calls or clock() - ref < {MIN_REF_S.get(command, 0)}:\n        {call}\n        calls += 1\n"
        "    seconds, ref_seconds = (time.perf_counter() - start) / calls, (clock() - ref) / calls\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps({'seconds': round(seconds, 9), 'ref_seconds': round(ref_seconds, 9), "
        "'peak_rss_mb': round(peak / 1024, 1), 'calls': calls}))"
    )


def timed_run(checkout: Path, command: str, arg: str) -> dict:
    """Seconds and peak RSS of one timed call in a fresh interpreter on a checkout, or why the run failed."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    limit = MEMORY_GB * 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    out = subprocess.run([sys.executable, "-c", child(command), arg], cwd=checkout, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, preexec_fn=cap_memory)
    if out.returncode != 0:
        return {"failed": (out.stderr.strip().splitlines() or [f"exit {out.returncode}"])[-1]}
    return json.loads(out.stdout.splitlines()[-1])


def timed_section(checkouts: dict, command: str, count: int) -> dict:
    _, imports, call, args = TIMED[command]
    section = {
        "note": f"{imports}; {call}: wall seconds (time.perf_counter), seconds on the reference clock of "
        f"perfbench/speed.py (ref_seconds) and peak RSS (ru_maxrss) of {count} runs per side for each ARG, "
        f"each in a fresh interpreter with its address space capped at {MEMORY_GB} GiB and the call inside a "
        "Speedometer, whose speed samples the wall seconds include, run k starting with the parent when k is "
        "odd; quartiles leave failed runs out, and change_vs_parent and ref_change_vs_parent compare the "
        "median seconds and ref_seconds"
    }
    if command in MIN_REF_S:
        section["note"] += (f"; each run repeats the call until {MIN_REF_S[command]} s have passed on the reference "
                            "clock, and its seconds and ref_seconds are per call over its calls")
    for arg in args:
        runs = alternate(checkouts, count, lambda checkout, k: timed_run(checkout, command, arg), f"{command} {arg}")
        entry = section[arg] = {}
        for side in SIDES:
            done = [run for run in runs[side] if "failed" not in run]
            figures = done[0] if done else {}  # seconds, ref_seconds and peak_rss_mb
            entry[side] = {"runs": runs[side], **{key: quartiles([run[key] for run in done]) for key in figures}}
        for key, name in (("seconds", "change_vs_parent"), ("ref_seconds", "ref_change_vs_parent")):
            if all(key in entry[side] for side in SIDES):
                medians = [entry[side][key]["median"] for side in SIDES]
                entry[name] = round(medians[1] / medians[0] - 1, 4)
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("pairs", "traced", *TIMED))
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to create or update")
    parser.add_argument("--workload", default="views", help="workload for pairs (default views)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pair count of pairs, or runs per side of traced and the TIMED commands (default 10)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the traced round, and of the first pair of pairs (default 1)")
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
            "the k-th seed of the section's seeds; quartiles are statistics.quantiles(n=4, method='inclusive')"
        )
        section = pairs_section(checkouts, args.workload, args.pairs, args.seed)
        workloads = bench.setdefault("workloads", {})
        workloads[batch_key(workloads, args.workload, section["seeds"])] = section
    elif args.command == "traced":
        bench["traced"] = traced_section(checkouts, args.seed, args.pairs)
    else:
        bench[TIMED[args.command][0]] = timed_section(checkouts, args.command, args.pairs)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
