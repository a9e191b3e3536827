"""The three benchmark workloads, each one round of fixed work from a seed.

A round drives treealg through its public functions from one thread, a
closed loop with one client that waits for each result.  Only the calls
into treealg are timed; inputs are made before and outputs are checked
after, against :mod:`oracle`.  With a :class:`Tracer` the calls are also
recorded as spans: one per call for calls on a whole universe, one per
function per batch for per-tree and per-query calls.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from itertools import islice, permutations
from random import Random

import oracle
from oracle import expect
from speed import clock

LETTERS = "abc"
BATCH = 1_000
SEEDSETS = ("pair", "all-letters", "swap")
PERMS = 2  # seeded letter permutations per seed set in ``closure``
CANDIDATES = ("mirror", "recolor", "identity", "const", "poly", "poly", "poly", "poly")
VIEW_FNS = ("encode", "skeleton", "foliage", "rebuild", "parse_tree", "graft")
EVIDENCE_FAMILIES = ("skeleton-kernel", "foliage-kernel", "grafting-kernels", "idempotent-grafting")


def _geometric(lo: int, hi: int, count: int) -> tuple:
    return tuple(round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count))


def _tail_leaves() -> tuple:
    """100 large trees; every fourth is a comb, alternately left and right.

    Combs stop at 768 leaves, the deepest the recursive walks of today's
    code reach under the default recursion limit with margin, so that no
    op of a timed round fails.  The deeper combs go to the traced run's
    probe, which counts the calls that raise.
    """
    spread = iter(_geometric(256, 4096, 75))
    combs = iter(_geometric(256, 768, 25))
    return tuple(-next(combs) if i % 4 == 3 else next(spread) for i in range(100))


@dataclass(frozen=True)
class Sizes:
    """How much work one round does.  A negative tail entry is a comb."""

    views_bound: int = 7
    batch: int = BATCH
    tail: tuple = field(default_factory=_tail_leaves)
    probe: tuple = (1_024, 2_048, 4_096)
    closure_bound: int = 7
    seedsets: tuple = SEEDSETS
    queries: int = 10_000
    evidence_bound: int = 5
    verify_bound: int = 6
    candidates: tuple = CANDIDATES


@dataclass
class Round:
    """Timed ops of one round; ``work`` units done in ``work_s`` seconds."""

    ops: list = field(default_factory=list)
    failed: int = 0
    work: int = 0
    work_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, op id, calls]``.

    Names are ``layer.function``; ``calls`` is how many calls of one
    function a span covers.  ``parent`` is the index of the parent span.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.root = None  # parent of spans opened without one

    def record(self, name, start, end, parent=None, op=None, calls=1) -> int:
        parent = self.root if parent is None else parent
        self.spans.append([name, start, end, parent, op, calls])
        return len(self.spans) - 1

    def open(self, name, parent=None, op=None) -> int:
        return self.record(name, clock(), 0.0, parent, op)

    def close(self, sid: int) -> None:
        self.spans[sid][2] = clock()

    def self_time(self) -> dict:
        """Self seconds per span name: duration minus that of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + end - start - child[sid]
        return out


class GcClock:
    """Garbage-collector pauses, timed through ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._start = clock()
        else:
            self.pause_s += clock() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


# --- views -------------------------------------------------------------------


def _view_inputs(rng: Random, T, count: int):
    """Seeded graftings: a letter and a replacement of one to three leaves."""
    out = []
    for _ in range(count):
        repl = oracle.random_tree(rng, LETTERS, rng.randint(1, 3))
        letter = rng.choice(LETTERS)
        out.append((T.Grafting(letter, repl), letter, oracle.encode(repl)))
    return out


def _view_calls(T, t, grafting):
    e = T.encode(t)
    s = T.skeleton(t)
    f = T.foliage(t)
    return e, s, f, T.rebuild(f, s), T.parse_tree(e), T.graft(grafting, t)


def _failing_calls(T, t, grafting) -> list:
    """Names of the view functions that raise on ``t``, each called alone."""
    e = oracle.encode(t)
    s, f = oracle.skeleton_of(e), oracle.foliage_of(e)
    calls = {
        "encode": lambda: T.encode(t),
        "skeleton": lambda: T.skeleton(t),
        "foliage": lambda: T.foliage(t),
        "rebuild": lambda: T.rebuild(f, s),
        "parse_tree": lambda: T.parse_tree(e),
        "graft": lambda: T.graft(grafting, t),
    }
    failing = []
    for name, call in calls.items():
        try:
            call()
        except Exception:  # noqa: BLE001 - any exception is a failed call
            failing.append(name)
    return failing


def _check_views(t, out, exp, letter, repl, shallow: bool) -> None:
    e, s, f, r, p, g = out
    expect(e == exp, f"encode gave {e[:60]!r}, expected {exp[:60]!r}")
    expect(s == oracle.skeleton_of(exp), f"skeleton of {exp[:60]!r}")
    expect(f == oracle.foliage_of(exp), f"foliage of {exp[:60]!r}")
    expect(len(s) == 3 * (len(f) - 1) and len(e) == len(s) + len(f), f"length law on {exp[:60]!r}")
    if shallow:
        expect(r == t, f"rebuild(foliage, skeleton) != t for {exp!r}")
        expect(p == t, f"parse_tree(encode(t)) != t for {exp!r}")
    else:
        # Tuple == recurses in C and raises past depth 1000; compare encodings.
        expect(oracle.encode(r) == exp, f"rebuild(foliage, skeleton) != t for {exp[:60]!r}")
        expect(oracle.encode(p) == exp, f"parse_tree(encode(t)) != t for {exp[:60]!r}")
    expect(oracle.encode(g) == oracle.graft(exp, letter, repl), f"graft {letter}->{repl} on {exp[:60]!r}")


def _tail_trees(rng: Random, leaves: tuple) -> list:
    """Large trees in seeded order, so that the biggest are spread over the round."""
    out = []
    for i, n in enumerate(leaves):
        t = oracle.comb(rng, LETTERS, -n, left=i % 8 == 3) if n < 0 else oracle.random_tree(rng, LETTERS, n)
        out.append((t, oracle.encode(t)))
    rng.shuffle(out)
    return out


def views(T, seed: int, sizes: Sizes, tracer: Tracer = None) -> Round:
    """Every tree of the bound universe in batches, with large trees in between.

    An op is one batch with the large trees that follow it.
    """
    rng = Random(seed)
    grafts = _view_inputs(rng, T, 97)
    tail = _tail_trees(rng, sizes.tail)
    batches = -(-oracle.universe_size(sizes.views_bound, len(LETTERS)) // sizes.batch)
    tail_after = {}
    for i, item in enumerate(tail):
        tail_after.setdefault(i * batches // len(tail), []).append(item)
    rnd = Round()
    expected = oracle.universe(sizes.views_bound, LETTERS)
    trees = T.iter_universe(sizes.views_bound)
    seen = 0
    for b in range(batches + 1):
        op_s = 0.0
        start = clock()
        batch = list(islice(trees, sizes.batch))
        end = clock()
        if batch:
            rnd.work_s += end - start
            if tracer:
                tracer.record("trees.iter_universe", start, end, calls=len(batch))
            items = []
            for t, (exp, _, _) in zip(batch, expected):
                expect(oracle.encode(t) == exp, f"iter_universe tree {seen + len(items)} is not {exp!r}")
                items.append((t, exp, grafts[(seen + len(items)) % len(grafts)]))
            expect(len(items) == len(batch), "iter_universe yields more trees than the Catalan count")
            seen += len(items)
            op_s += _view_batch(T, items, rnd, tracer, b, "universe", shallow=True)
        large = [(t, exp, grafts[i % len(grafts)]) for i, (t, exp) in enumerate(tail_after.get(b, ()))]
        if large:
            op_s += _view_batch(T, large, rnd, tracer, b, "large", shallow=False)
        if op_s:
            rnd.ops.append(op_s)
    expect(next(expected, None) is None, "iter_universe yields fewer trees than the Catalan count")
    expect(seen == oracle.universe_size(sizes.views_bound, len(LETTERS)), f"iter_universe gave {seen} trees")
    return rnd


def _view_batch(T, items, rnd: Round, tracer, op, kind, shallow) -> float:
    """Run the six view calls on the batch, check the outputs, return the seconds taken."""
    start = clock()
    outs = _view_columns(T, items, tracer, op, kind)
    if outs is None:
        outs = _view_ops(T, items, rnd, tracer)
    elapsed = clock() - start
    rnd.work_s += elapsed
    rnd.work += sum(out is not None for out in outs)
    for (t, exp, (_, letter, repl)), out in zip(items, outs):
        if out is not None:
            _check_views(t, out, exp, letter, repl, shallow)
    return elapsed


def _view_ops(T, items, rnd: Round, tracer) -> list:
    """The six calls tree by tree, after a batch raised; a tree whose calls raise is a failed op."""
    outs = []
    for t, _, (grafting, _, _) in items:
        try:
            outs.append(_view_calls(T, t, grafting))
        except Exception:  # noqa: BLE001 - an op fails when it raises
            rnd.failed += 1
            outs.append(None)
            if tracer is not None:
                for name in _failing_calls(T, t, grafting):
                    tracer.counts[name + ".failed"] = tracer.counts.get(name + ".failed", 0) + 1
    return outs


def _column(tracer, name, parent, op, fn, *columns) -> list:
    """``fn`` over the columns, recorded as one span when tracing."""
    start = clock()
    out = list(map(fn, *columns))
    if tracer is not None:
        tracer.record(name, start, clock(), parent, op, calls=len(out))
    return out


def _view_columns(T, items, tracer, op, kind):
    """The view calls function by function over the batch; None if any raises.

    Traced, each function is one span over the whole batch, so no clock is
    read per call.
    """
    trees = [t for t, _, _ in items]
    grafts = [g for _, _, (g, _, _) in items]
    parent = tracer.open(f"bench.{kind}_batch", op=op) if tracer else None
    try:
        e = _column(tracer, "trees.encode", parent, op, T.encode, trees)
        s = _column(tracer, "trees.skeleton", parent, op, T.skeleton, trees)
        f = _column(tracer, "trees.foliage", parent, op, T.foliage, trees)
        r = _column(tracer, "trees.rebuild", parent, op, T.rebuild, f, s)
        p = _column(tracer, "trees.parse_tree", parent, op, T.parse_tree, e)
        g = _column(tracer, "morphisms.graft", parent, op, T.graft, grafts, trees)
    except Exception:  # noqa: BLE001 - the batch is redone tree by tree
        if tracer:
            del tracer.spans[parent:]
        return None
    if tracer:
        tracer.close(parent)
        tracer.counts[kind + ".leaves"] = tracer.counts.get(kind + ".leaves", 0) + sum(map(len, f))
    return list(zip(e, s, f, r, p, g))


def deep_comb_probe(T, sizes: Sizes, tracer: Tracer) -> None:
    """Count the view calls that raise on combs deeper than the recursion limit."""
    rng = Random(0)
    grafting = T.Grafting("a", ("b", "c"))
    for n in sizes.probe:
        for left in (True, False):
            for name in _failing_calls(T, oracle.comb(rng, LETTERS, n, left), grafting):
                tracer.counts[name + ".failed"] = tracer.counts.get(name + ".failed", 0) + 1


# --- closure -----------------------------------------------------------------


def _queries(rng: Random, ss: oracle.SeedSet, bound: int, count: int) -> list:
    """Half the pairs related by construction, half independent trees."""
    out = []
    for i in range(count):
        t = oracle.random_tree(rng, LETTERS, rng.randint(1, bound))
        if i % 2:
            u = ss.variant(rng, t)
        else:
            u = oracle.random_tree(rng, LETTERS, rng.randint(1, bound))
        out.append((t, u, ss.normal(oracle.encode(t)) == ss.normal(oracle.encode(u))))
    return out


def _chunks(tracer, name, parent, op, fn, items, calls=len) -> list:
    """``fn`` over ``items`` in chunks of BATCH, one span per chunk when tracing."""
    out = []
    for i in range(0, len(items), BATCH):
        chunk = items[i:i + BATCH]
        start = clock()
        out += map(fn, chunk)
        if tracer is not None:
            tracer.record(name, start, clock(), parent, op, calls=calls(chunk))
    return out


def _closure_job(T, tracer, op, ss: oracle.SeedSet, bound: int, query_pairs: list):
    parent = tracer.open("bench.closure_job", op=op) if tracer else None
    try:
        part = _call(tracer, f"congruence.bounded_closure.{ss.name}", parent, op,
                     T.bounded_closure, ss.pairs, bound, cap=None)
        classes = _call(tracer, "congruence.TreePartition.classes", parent, op, part.classes)
        rendered = _chunks(tracer, "trees.encode", parent, op, lambda cls: [T.encode(t) for t in cls],
                           classes, calls=lambda chunk: sum(map(len, chunk)))
        answers = _chunks(tracer, "congruence.TreePartition.related", parent, op,
                          lambda pair: part.related(*pair), query_pairs)
    finally:
        if tracer:
            tracer.close(parent)
    return part, classes, rendered, answers


def closure(T, seed: int, sizes: Sizes, tracer: Tracer = None) -> Round:
    """Uncapped bounded closures, then classes, rendering and queries.

    One job per seed set and seeded letter permutation; two permutations
    give six jobs, enough that the median job is not one noisy sample.
    """
    rng = Random(seed)
    perms = rng.sample(["".join(p) for p in permutations(LETTERS)], PERMS)
    jobs = [(perm, name) for perm in perms for name in sizes.seedsets]
    rnd = Round()
    bound = sizes.closure_bound
    for op, (perm, name) in enumerate(jobs):
        ss = oracle.SeedSet(name, LETTERS, perm)
        queries = _queries(rng, ss, bound, sizes.queries)
        start = clock()
        try:
            part, classes, rendered, answers = _closure_job(T, tracer, op, ss, bound, [(t, u) for t, u, _ in queries])
        except Exception:  # noqa: BLE001 - an op fails when it raises
            rnd.failed += 1
            continue
        dt = clock() - start
        rnd.ops.append(dt)
        rnd.work_s += dt
        rnd.work += 1
        size = part.universe_size
        expect(size == oracle.universe_size(bound, len(LETTERS)), f"{name}: universe size {size}")
        expect(len(classes) == ss.class_count(bound), f"{name}: {len(classes)} classes, expected {ss.class_count(bound)}")
        for (t, u, want), got in zip(queries, answers):
            expect(got == want, f"{name}: related({oracle.encode(t)}, {oracle.encode(u)}) gave {got}")
        rnd.counts[name] = {"universe_size": size, "classes": len(classes), "merges": size - len(classes)}
        del part, classes, answers
        _check_classes(ss, bound, rendered)
    return rnd


def _check_classes(ss: oracle.SeedSet, bound: int, rendered: list) -> None:
    """Classes are exactly the normal-form classes, in enumeration order."""
    position = {enc: i for i, (enc, _, _) in enumerate(oracle.universe(bound, LETTERS))}
    seen = bytearray(len(position))
    normals = set()
    last_first = -1
    for cls in rendered:
        normal = ss.normal(cls[0])
        expect(normal not in normals, f"{ss.name}: two classes share the normal form of {cls[0]}")
        normals.add(normal)
        prev = -1
        for enc in cls:
            pos = position.get(enc)
            expect(pos is not None, f"{ss.name}: {enc!r} is not in the universe")
            expect(pos > prev and not seen[pos], f"{ss.name}: class of {cls[0]} out of order at {enc}")
            expect(ss.normal(enc) == normal, f"{ss.name}: {enc} and {cls[0]} are not congruent")
            seen[pos] = 1
            prev = pos
        first = position[cls[0]]
        expect(first > last_first, f"{ss.name}: classes out of enumeration order at {cls[0]}")
        last_first = first
    expect(all(seen), f"{ss.name}: classes miss some trees of the universe")


# --- evidence ----------------------------------------------------------------


def _call(tracer, name, parent, op, fn, *args, **kwargs):
    """Call ``fn``, recording a span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    sid = tracer.open(name, parent, op)
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.close(sid)


def _candidate_job(T, cand, seed, sizes, tracer, op):
    parent = tracer.open("bench.candidate", op=op) if tracer else None
    try:
        func = _call(tracer, "polynomials.function_from_spec", parent, op, T.function_from_spec, cand.spec)
        report = _call(tracer, "polynomials.cp_evidence", parent, op, T.cp_evidence, func, sizes.evidence_bound, seed=seed)
        try:
            poly = _call(tracer, "polynomials.cp_to_polynomial", parent, op, T.cp_to_polynomial, func, sizes.verify_bound)
            refusal = None
        except T.NotCP as exc:  # the correct answer for a function that is not CP
            poly, refusal = None, exc
        word = None
        if poly is not None:
            table = {a: T.foliage(func(a)) for a in LETTERS}
            word = _call(tracer, "words.synthesize_word", parent, op, T.synthesize_word, table)
    finally:
        if tracer:
            tracer.close(parent)
    return report, poly, refusal, word


def evidence(T, seed: int, sizes: Sizes, tracer: Tracer = None) -> Round:
    """Evidence, to-polynomial and word synthesis for seeded candidate functions."""
    cands = oracle.candidates(Random(seed), LETTERS, sizes.candidates)
    rnd = Round()
    checked = dict.fromkeys(EVIDENCE_FAMILIES, 0)
    for op, cand in enumerate(cands):
        start = clock()
        try:
            report, poly, refusal, word = _candidate_job(T, cand, seed, sizes, tracer, op)
        except Exception:  # noqa: BLE001 - an op fails when it raises
            rnd.failed += 1
            continue
        dt = clock() - start
        rnd.ops.append(dt)
        rnd.work_s += dt
        rnd.work += 1
        for test in report.tests:
            checked[test.name] += test.checked
        _check_candidate(cand, report, poly, refusal, word)
    rnd.counts["checked"] = checked
    return rnd


def _check_candidate(cand: oracle.Candidate, report, poly, refusal, word) -> None:
    verdict = "evidence-of-cp" if cand.is_cp else "not-cp"
    expect(report.verdict == verdict, f"{cand.spec}: cp_evidence verdict {report.verdict}, expected {verdict}")
    expect({t.name for t in report.tests} == set(EVIDENCE_FAMILIES), f"{cand.spec}: evidence families")
    for test in report.tests:
        if not test.passed:
            oracle.check_kernel_witness(cand, test.name, test.witness)
    if cand.is_cp:
        expect(poly is not None and oracle.encode(poly) == cand.polynomial,
               f"{cand.spec}: cp_to_polynomial gave {poly!r}, expected {cand.polynomial}")
        expect(word == oracle.foliage_of(cand.polynomial), f"{cand.spec}: synthesize_word gave {word!r}")
        return
    expect(refusal is not None and refusal.stage == "verification", f"{cand.spec}: cp_to_polynomial should refuse at verification")
    at = oracle.encode(refusal.at_input)
    want, got = (oracle.encode(t) for t in refusal.witness)
    expect(got == cand.apply(at), f"{cand.spec}: NotCP reports f({at}) = {got}")
    expect(want == oracle.eval_poly(cand.letter_poly, at), f"{cand.spec}: NotCP reports p({at}) = {want}")
    expect(want != got, f"{cand.spec}: NotCP witness agrees")


WORKLOADS = {"views": views, "closure": closure, "evidence": evidence}

# Inputs of warm_up, made once at import so that set-up time does not include them.
WARM_PAIRS = tuple(oracle.SeedSet(name, LETTERS, LETTERS).pairs for name in SEEDSETS)
WARM_SPECS = tuple(cand.spec for cand in oracle.candidates(Random(0), LETTERS, ("mirror", "poly")))


def warm_up(T) -> None:
    """Call every timed entry point of treealg once at bound 2, checking nothing."""
    grafting = T.Grafting("a", ("b", "c"))
    for t in T.iter_universe(2):
        e, s, f = T.encode(t), T.skeleton(t), T.foliage(t)
        T.rebuild(f, s)
        T.parse_tree(e)
        T.graft(grafting, t)
    for pairs in WARM_PAIRS:
        part = T.bounded_closure(pairs, 2, cap=None)
        part.classes()
        part.related("a", "b")
    for spec in WARM_SPECS:
        func = T.function_from_spec(spec)
        T.cp_evidence(func, 2, seed=0)
        try:
            T.cp_to_polynomial(func, 2)
        except T.NotCP:
            continue
        T.synthesize_word({a: T.foliage(func(a)) for a in LETTERS})
