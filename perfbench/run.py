"""Benchmark for treealg: run one workload, print its metrics as one JSON line.

    python3 perfbench/run.py --workload views --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; treealg is imported from ``src``.
``--trace 0`` measures the end-to-end metrics of the named workload with
tracing off.  ``--trace 1`` gives the per-layer metrics: it runs one
traced round of every workload, each in a fresh interpreter.
The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
a wrong output makes ``correct`` false and the exit code 1.
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
import time
from pathlib import Path

import workloads
from oracle import Mismatch
from speed import Speedometer
from workloads import Sizes, Tracer, GcClock, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
# Whole rounds a run makes at the least.  The views tail is the 11th
# slowest of 324 ops of about 45 ms, set by where garbage collections
# fall; one round's tail spread by up to 0.09 of its median between runs.
MIN_ROUNDS = {"views": 2}
CHILD_TIMEOUT_S = 170

WRONG = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_treealg():
    """Import treealg from the checkout's ``src`` directory, and from nowhere else."""
    package = ROOT / "src" / "treealg"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no treealg sources at {package}")
    if str(package.parent) not in sys.path:
        sys.path.insert(0, str(package.parent))
    import treealg

    if Path(treealg.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"treealg was imported from {treealg.__file__}, not {package}")
    return treealg


def tail(ops: list) -> float:
    """Highest percentile with at least ten ops beyond it; the slowest op if fewer."""
    ranked = sorted(ops)
    return ranked[-11] if len(ranked) > 10 else ranked[-1]


def setup_seconds() -> float:
    """Median over fresh interpreters of importing treealg and warming it up."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(workload: str, seed: int, seconds: float, sizes: Sizes) -> dict:
    """Whole rounds until ``seconds`` have passed; per-round figures are medians.

    Times are read from the reference clock (speed.py); ``seconds`` is wall time.
    """
    T = load_treealg()
    setup = setup_seconds()
    run = workloads.WORKLOADS[workload]
    rounds = []
    with Speedometer() as meter:
        workloads.warm_up(T)
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS.get(workload, 1) or time.perf_counter() - start < seconds:
            rounds.append(run(T, seed, sizes))
    work = sum(r.work for r in rounds)
    work_s = sum(r.work_s for r in rounds)
    values = {
        "setup_s": setup,
        "work_per_s": work / work_s,
        "op_p50_ms": statistics.median(statistics.median(r.ops) for r in rounds) * 1e3,
        "op_tail_ms": statistics.median(tail(r.ops) for r in rounds) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ops = sum(len(r.ops) for r in rounds)
    print(f"{workload}: {len(rounds)} round(s), {ops} timed ops, {work} units of work; {meter.summary()}",
          file=sys.stderr)
    return {
        "correct": True,
        "attempted": sum(r.work + r.failed for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


# --- traced run --------------------------------------------------------------


def _busy(tracer: Tracer, name: str, under: str = None) -> tuple:
    """(seconds, calls) of spans named ``name``, optionally under a parent name."""
    busy = calls = 0
    for span_name, start, end, parent, _, span_calls in tracer.spans:
        if span_name == name and (under is None or tracer.spans[parent][0] == under):
            busy += end - start
            calls += span_calls
    return busy, calls


def _mean(tracer, name, scale, under=None) -> float:
    busy, calls = _busy(tracer, name, under)
    return busy / calls * scale if calls else 0.0


def _layer_self(tracer: Tracer, layer: str) -> float:
    return sum(s for name, s in tracer.self_time().items() if name.startswith(layer + "."))


def _views_layers(tracer, rnd) -> dict:
    out = {"views.trees.iter_universe.us_per_tree": (_mean(tracer, "trees.iter_universe", 1e6), "us")}
    leaves = tracer.counts.get("large.leaves", 0)
    for fn in workloads.VIEW_FNS:
        name = f"{'morphisms' if fn == 'graft' else 'trees'}.{fn}"
        out[f"views.{name}.us_per_tree"] = (_mean(tracer, name, 1e6, "bench.universe_batch"), "us")
        busy, _ = _busy(tracer, name, "bench.large_batch")
        out[f"views.{name}.large_us_per_leaf"] = (busy / leaves * 1e6 if leaves else 0.0, "us")
    out["views.trees.parse_tree.failed"] = (tracer.counts.get("parse_tree.failed", 0), "count")
    out["views.morphisms.graft.failed"] = (tracer.counts.get("graft.failed", 0), "count")
    return out


def _closure_layers(tracer, rnd) -> dict:
    out = {}
    for name in workloads.SEEDSETS:
        out[f"closure.congruence.bounded_closure.{name}.s"] = (_mean(tracer, f"congruence.bounded_closure.{name}", 1), "s")
    out["closure.congruence.TreePartition.classes.s"] = (_mean(tracer, "congruence.TreePartition.classes", 1), "s")
    out["closure.congruence.TreePartition.related.us_per_query"] = (_mean(tracer, "congruence.TreePartition.related", 1e6), "us")
    out["closure.trees.encode.us_per_tree"] = (_mean(tracer, "trees.encode", 1e6), "us")
    for name in workloads.SEEDSETS:
        for key, value in rnd.counts.get(name, {}).items():
            out[f"closure.congruence.{name}.{key}"] = (value, "count")
    return out


def _evidence_layers(tracer, rnd) -> dict:
    out = {
        "evidence.polynomials.function_from_spec.ms": (_mean(tracer, "polynomials.function_from_spec", 1e3), "ms"),
        "evidence.polynomials.cp_evidence.s": (_mean(tracer, "polynomials.cp_evidence", 1), "s"),
        "evidence.polynomials.cp_to_polynomial.ms": (_mean(tracer, "polynomials.cp_to_polynomial", 1e3), "ms"),
        "evidence.words.synthesize_word.us": (_mean(tracer, "words.synthesize_word", 1e6), "us"),
    }
    for family, count in rnd.counts["checked"].items():
        out[f"evidence.polynomials.cp_evidence.checked.{family}"] = (count, "count")
    return out


LAYERS = {
    "views": (_views_layers, ("trees", "morphisms")),
    "closure": (_closure_layers, ("congruence", "trees")),
    "evidence": (_evidence_layers, ("polynomials", "words")),
}


def _span_cost() -> float:
    """Seconds one span record adds, the median of 20 samples of 1,000."""
    samples = []
    for _ in range(20):
        probe = Tracer()
        start = clock()
        for _ in range(1_000):
            probe.close(probe.open("probe"))
        samples.append((clock() - start) / 1_000)
    return statistics.median(samples)


def _overhead_per_s(tracer: Tracer, rnd) -> float:
    """Traced minus untraced work_per_s.

    The traced round makes the same calls as an untraced one and adds only
    span records, so the untraced time is the traced time less their
    measured cost.
    """
    untraced_s = rnd.work_s - len(tracer.spans) * _span_cost()
    return rnd.work / rnd.work_s - rnd.work / untraced_s


def traced_part(workload: str, seed: int, sizes: Sizes) -> dict:
    """One traced round of ``workload`` and its per-layer metrics."""
    T = load_treealg()
    run = workloads.WORKLOADS[workload]
    tracer = Tracer()
    with Speedometer():
        workloads.warm_up(T)
        with GcClock() as gc_clock:
            tracer.root = tracer.open("bench.round")
            rnd = run(T, seed, sizes, tracer)
            tracer.close(tracer.root)
        overhead_per_s = _overhead_per_s(tracer, rnd)
    if workload == "views":
        workloads.deep_comb_probe(T, sizes, tracer)
    collect, layers = LAYERS[workload]
    metrics = collect(tracer, rnd)
    for layer in layers + ("bench",):
        metrics[f"{workload}.{layer}.self_s"] = (_layer_self(tracer, layer), "s")
    metrics[f"{workload}.gc.pause_s"] = (gc_clock.pause_s, "s")
    metrics[f"{workload}.gc.collections"] = (gc_clock.collections, "count")
    metrics[f"{workload}.trace.overhead_per_s"] = (overhead_per_s, "1/s")
    traces = HERE / "traces"
    traces.mkdir(exist_ok=True)
    (traces / f"{workload}-seed{seed}.json").write_text(json.dumps(tracer.spans))
    return {
        "attempted": rnd.work + rnd.failed,
        "failed": rnd.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def per_layer(seed: int) -> dict:
    """Every workload's traced part, each in a fresh interpreter."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "trace", workload, str(seed)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if out.returncode not in (0, 1) or not out.stdout.strip():
            raise RuntimeError(f"traced {workload} run exited with {out.returncode}")
        part = json.loads(out.stdout.splitlines()[-1])
        if not part["correct"]:
            return WRONG
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update(part["metrics"])
    return result


def machine() -> str:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return f"python {platform.python_version()}, {os.cpu_count()} cpus, {pages / 2**30:.1f} GiB RAM"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(f"treealg benchmark: {args.workload}, seed {args.seed}, {machine()}", file=sys.stderr)
    try:
        if args.trace:
            result = per_layer(args.seed)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, Sizes())
    except Mismatch as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        result = WRONG
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
