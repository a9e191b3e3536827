"""Self-verification suite: every documented law run at full scale.

``CRITERIA`` is one table of law checks.  ``@_criterion(slug)`` registers
a check returning ``(passed, detail)`` and numbers it by its place; its
entry returns a :class:`CriterionResult`.  A counterexample is the first
failing case of an explicit case list (:func:`_first`).  One
:class:`_Context` per run builds the bound-8 sweep and each small universe
once.  The CLI ``selftest`` subcommand prints one line per criterion and
exits 3 if any fails.  The suite always runs over the reference alphabet
``abc`` (the scale its fixtures are frozen at); only the seed of the
randomized criteria is configurable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from functools import partial, wraps
from random import Random
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from .congruence import bounded_closure
from .errors import HypothesesViolated, LengthMismatch, NotCP
from .morphisms import Grafting, commute_check, graft, is_idempotent
from .polynomials import (
    check_hypotheses,
    compile_poly,
    constant_function,
    cp_evidence,
    cp_to_polynomial,
    identity_function,
    mirror_function,
    poly_function,
    synthesize,
)
from .trees import (
    DEFAULT_ALPHABET,
    VARIABLE,
    Tree,
    Universe,
    encode,
    erase_letters,
    erase_shapes,
    foliage,
    iter_polynomials,
    iter_universe,
    mirror,
    parse_tree,
    random_tree,
    rebuild,
    skeleton,
)
from .words import eval_word_poly, synthesize_word

FIG_LEFT = "<<a*c>*b>"
FIG_RIGHT = "<a*<c*b>>"
FIG_LEFT_SKELETON = "<<*>*>"
FIG_RIGHT_SKELETON = "<*<*>>"
FIG_FOLIAGE = "acb"

CLOSURE_FIXTURE = (
    '{"universe_size":12,"classes":[["a","b"],["c"],'
    '["<a*a>","<a*b>","<b*a>","<b*b>"],["<a*c>","<b*c>"],'
    '["<c*a>","<c*b>"],["<c*c>"]]}'
)


@dataclass
class CriterionResult:
    number: int
    slug: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.number:>2} {status} {self.slug:<26} {self.detail}"

    def as_json(self) -> dict:
        return asdict(self)


class _Context:
    """Shared state across criteria; the big universe sweep and each small universe are built once."""

    def __init__(self, seed: int):
        self.alphabet = DEFAULT_ALPHABET
        self.seed = seed
        self._sweep: Optional[tuple] = None
        self._trees: Dict[int, List[Tree]] = {}

    def trees(self, bound: int) -> List[Tree]:
        """Every tree of ``U_bound``, in enumeration order."""
        if bound not in self._trees:
            self._trees[bound] = Universe(bound, self.alphabet, cap=None).trees
        return self._trees[bound]

    def sweep(self) -> tuple:
        if self._sweep is None:
            total = 0
            length_law_witness = None
            roundtrip_witness = None
            parser_witness = None
            alphabet = self.alphabet
            for t in iter_universe(8, alphabet, cap=None):
                total += 1
                enc = encode(t)
                leaves = erase_shapes(enc)
                shape = erase_letters(enc)
                if length_law_witness is None and len(shape) != 3 * len(leaves) - 3:
                    length_law_witness = enc
                if roundtrip_witness is None and rebuild(leaves, shape, alphabet) != t:
                    roundtrip_witness = enc
                if parser_witness is None and parse_tree(enc, alphabet) != t:
                    parser_witness = enc
            self._sweep = (total, length_law_witness, roundtrip_witness, parser_witness)
        return self._sweep


CRITERIA: List[Callable[[_Context], CriterionResult]] = []

T = TypeVar("T")


def _criterion(slug: str):
    """Append a check returning ``(passed, detail)`` to ``CRITERIA`` as the next criterion."""

    def register(check: Callable[[_Context], Tuple[bool, str]]) -> Callable[[_Context], CriterionResult]:
        number = len(CRITERIA) + 1

        @wraps(check)
        def criterion(ctx: _Context) -> CriterionResult:
            return CriterionResult(number, slug, *check(ctx))

        CRITERIA.append(criterion)
        return criterion

    return register


def _first(cases: Iterable[T], broken: Callable[[T], object]) -> Optional[T]:
    """The first of ``cases`` that ``broken`` holds for, or None."""
    return next((case for case in cases if broken(case)), None)


@_criterion("figure-fixture")
def criterion_figure_fixture(ctx: _Context) -> Tuple[bool, str]:
    alphabet = ctx.alphabet
    t = parse_tree(FIG_LEFT, alphabet)
    t2 = parse_tree(FIG_RIGHT, alphabet)
    ok = (
        encode(t) == FIG_LEFT
        and encode(t2) == FIG_RIGHT
        and skeleton(t) == FIG_LEFT_SKELETON
        and skeleton(t2) == FIG_RIGHT_SKELETON
        and foliage(t) == FIG_FOLIAGE
        and foliage(t2) == FIG_FOLIAGE
        and skeleton(t) != skeleton(t2)
        and rebuild(foliage(t), skeleton(t), alphabet) == t
        and rebuild(foliage(t2), skeleton(t2), alphabet) == t2
    )
    return ok, "reference trees: shared leaf word, distinct shapes, exact round-trips"


@_criterion("product-laws")
def criterion_product_laws(ctx: _Context) -> Tuple[bool, str]:
    u4 = ctx.trees(4)
    shapes = [skeleton(t) for t in u4]
    leaves = [foliage(t) for t in u4]

    def broken_law(pair: Tuple[int, int]) -> Optional[str]:
        i, j = pair
        enc = encode((u4[i], u4[j]))
        if erase_letters(enc) != f"<{shapes[i]}*{shapes[j]}>":
            return "shape"
        if erase_shapes(enc) != leaves[i] + leaves[j]:
            return "leaf-word"

    pair = _first(itertools.product(range(len(u4)), repeat=2), broken_law)
    total, length_law_witness, _, _ = ctx.sweep()
    if pair is not None:
        return False, f"{broken_law(pair)} law broke at ({encode(u4[pair[0]])}, {encode(u4[pair[1]])})"
    if length_law_witness is not None:
        return False, f"length law broke at {length_law_witness}"
    return True, f"pairing laws on {len(u4) ** 2} pairs; length law on {total} trees"


@_criterion("rebuild-roundtrip")
def criterion_rebuild_roundtrip(ctx: _Context) -> Tuple[bool, str]:
    alphabet = ctx.alphabet
    total, _, roundtrip_witness, parser_witness = ctx.sweep()
    rng = Random(ctx.seed)
    rejected = 0
    for _ in range(100):
        shape = skeleton(random_tree(rng, alphabet.symbols, 5))
        m = len(shape) // 3 + 1
        n = rng.choice([k for k in range(1, 6) if k != m])
        word = "".join(rng.choice(alphabet.symbols) for _ in range(n))
        try:
            rebuild(word, shape, alphabet)
        except LengthMismatch:
            rejected += 1
    if roundtrip_witness is not None:
        return False, f"rebuild round-trip broke at {roundtrip_witness}"
    if parser_witness is not None:
        return False, f"parse round-trip broke at {parser_witness}"
    if rejected != 100:
        return False, f"only {rejected}/100 pairs rejected"
    return True, f"rebuild and parse round-trips on {total} trees; 100 mismatched pairs rejected"


@_criterion("graft-foliage-diagram")
def criterion_graft_foliage_diagram(ctx: _Context) -> Tuple[bool, str]:
    u3 = ctx.trees(3)
    graftings = [Grafting(a, replacement) for a in ctx.alphabet for replacement in u3]
    g = _first(graftings, lambda g: not all(commute_check(g, t) for t in u3))
    if g is not None:
        t = _first(u3, lambda t: not commute_check(g, t))
        return False, f"diagram broke at {g.source}->{encode(g.replacement)} on {encode(t)}"
    return True, f"grafting/substitution diagram on {len(graftings) * len(u3)} cases"


@_criterion("idempotence-criterion")
def criterion_idempotence(ctx: _Context) -> Tuple[bool, str]:
    u4 = ctx.trees(4)
    # the letter test rejects the identity grafting by design
    graftings = [Grafting(a, replacement) for a in ctx.alphabet for replacement in u4 if replacement != a]

    def functional(g: Grafting) -> bool:
        return all(graft(g, once) == once for once in (graft(g, t) for t in u4))

    g = _first(graftings, lambda g: functional(g) != is_idempotent(g))
    if g is not None:
        return False, f"criterion disagrees at {g.source}->{encode(g.replacement)}"
    return True, f"letter criterion equals functional idempotence for {len(graftings)} graftings"


@_criterion("two-grafting-injectivity")
def criterion_two_grafting_injectivity(ctx: _Context) -> Tuple[bool, str]:
    u4 = ctx.trees(4)
    letter_pairs = itertools.combinations(ctx.alphabet.symbols, 2)
    combos = [(a, b, replacement) for a, b in letter_pairs for replacement in ctx.trees(3)]

    def collision(combo: Tuple[str, str, Tree]) -> Optional[Tuple[int, int]]:
        """The first pair of positions that both graftings merge, class by class of the first one's kernel."""
        a, b, replacement = combo
        ga, gb = Grafting(a, replacement), Grafting(b, replacement)
        images_b = [graft(gb, t) for t in u4]
        classes: Dict[Tree, List[int]] = {}
        for i, t in enumerate(u4):
            classes.setdefault(graft(ga, t), []).append(i)
        pairs = ((cls[k], i) for cls in classes.values() if len(cls) > 1 for n, i in enumerate(cls) for k in range(n))
        return _first(pairs, lambda pair: images_b[pair[0]] == images_b[pair[1]])

    combo = _first(combos, collision)
    if combo is not None:
        a, b, replacement = combo
        i, j = collision(combo)
        return False, f"({encode(u4[i])}, {encode(u4[j])}) collapses under both {a}->{encode(replacement)} and {b}->..."
    return True, f"{len(combos)} letter-pair/replacement combinations x {len(u4) * (len(u4) - 1) // 2} tree pairs"


@_criterion("closure-partition")
def criterion_closure_partition(ctx: _Context) -> Tuple[bool, str]:
    alphabet = ctx.alphabet
    part2 = bounded_closure([("a", "b")], 2, alphabet)
    got = json.dumps(
        {
            "universe_size": part2.universe_size,
            "classes": [[encode(t) for t in cls] for cls in part2.classes()],
        },
        separators=(",", ":"),
    )
    if got != CLOSURE_FIXTURE:
        return False, f"partition fixture mismatch: {got}"

    classes = bounded_closure([("a", "b")], 3, alphabet).classes()
    kernels = [("skeleton", skeleton), ("foliage", foliage)]
    kernels += [(f"{c}->{encode(r)}", partial(graft, Grafting(c, r))) for c in alphabet for r in ctx.trees(2)]

    def splits(case: Tuple[str, Callable, List[Tree]]) -> bool:
        _, image, cls = case
        return any(image(t) != image(cls[0]) for t in cls[1:])

    # only a kernel that contains the generating pair must hold every class together
    split = _first(((name, image, cls) for name, image in kernels if image("a") == image("b") for cls in classes),
                   splits)
    if split is not None:
        return False, f"kernel {split[0]} splits class of {encode(split[2][0])}"

    part4 = bounded_closure([("a", "b")], 4, alphabet)
    lost = _first(((cls[0], t) for cls in classes for t in cls[1:]), lambda pair: not part4.related(*pair))
    if lost is not None:
        return False, f"monotonicity broke: {encode(lost[0])} ~ {encode(lost[1])} lost at bound 4"
    return True, "frozen 6-class partition; sound vs qualifying kernels; monotone 3->4"


@_criterion("synthesis-roundtrip")
def criterion_synthesis_roundtrip(ctx: _Context) -> Tuple[bool, str]:
    alphabet = ctx.alphabet
    polys = list(iter_polynomials(5, alphabet))  # 5 leaves == 9 nodes

    def lost(poly: Tree) -> bool:
        evaluate = compile_poly(poly)
        return synthesize({a: evaluate(a) for a in alphabet}, alphabet) != poly

    poly = _first(polys, lost)
    if poly is not None:
        return False, f"recovery failed for {encode(poly)}"
    return True, f"all {len(polys)} polynomials with at most 9 nodes recovered exactly"


@_criterion("synthesis-negatives")
def criterion_synthesis_negatives(ctx: _Context) -> Tuple[bool, str]:
    alphabet = ctx.alphabet
    problems = []

    table1 = {"a": "a", "b": ("b", "c"), "c": "c"}
    chk = check_hypotheses(table1, alphabet)
    if chk.ok or chk.failure != "skeleton-mismatch" or chk.pair != ("a", "b"):
        problems.append("skeleton-mismatch case")
    else:
        try:
            synthesize(table1, alphabet)
            problems.append("skeleton-mismatch not raised")
        except HypothesesViolated:
            pass

    table2 = {"a": "b", "b": "a", "c": "c"}
    chk = check_hypotheses(table2, alphabet)
    if chk.ok or chk.failure != "grafting-compatibility" or chk.pair != ("a", "c"):
        problems.append("compatibility case")

    table3 = {"a": "ab", "b": "ba", "c": "ca"}
    try:
        synthesize_word(table3, alphabet)
        problems.append("word case not raised")
    except HypothesesViolated as exc:
        if exc.check.pair != ("a", "c") or exc.check.position != 1:
            problems.append(f"word witness was {exc.check.pair}@{exc.check.position}")

    return not problems, "; ".join(problems) or "three failing tables report the expected error and witness pair"


@_criterion("cp-evidence")
def criterion_cp_evidence(ctx: _Context) -> Tuple[bool, str]:
    alphabet = ctx.alphabet
    problems = []

    report = cp_evidence(mirror_function(), 4, alphabet, ctx.seed)
    by_name = {t.name: t for t in report.tests}
    if report.passed or by_name["idempotent-grafting"].passed:
        problems.append("mirror not caught by the idempotent-grafting identity")

    # Documented witness family: an asymmetric replacement without the letter.
    replacement = parse_tree("<b*<b*c>>", alphabet)
    g = Grafting("a", replacement)
    if not (
        is_idempotent(g)
        and graft(g, mirror("a")) == replacement
        and graft(g, mirror(replacement)) == parse_tree("<<c*b>*b>", alphabet)
        and graft(g, mirror(replacement)) != replacement
    ):
        problems.append("documented mirror witness did not check out")

    try:
        cp_to_polynomial(mirror_function(), 6, alphabet)
        problems.append("mirror produced a polynomial")
    except NotCP:
        pass

    rng = Random(ctx.seed)
    letters = alphabet.symbols + (VARIABLE,)
    passing = [identity_function()]
    passing += [constant_function(parse_tree(text, alphabet)) for text in ("a", "<a*b>", "<<a*c>*b>")]
    passing += [poly_function(random_tree(rng, letters, 4)) for _ in range(50)]
    func = _first(passing, lambda func: not cp_evidence(func, 4, alphabet, ctx.seed).passed)
    if func is not None:
        problems.append(f"{func.name} failed {cp_evidence(func, 4, alphabet, ctx.seed).witness_pair()}")

    detail = "mirror disproved with witness; identity, constants and 50 random polynomials pass"
    return not problems, "; ".join(problems) or detail


@_criterion("generator-agreement")
def criterion_generator_agreement(ctx: _Context) -> Tuple[bool, str]:
    alphabet = ctx.alphabet
    rng = Random(ctx.seed)
    u6 = ctx.trees(6)
    letters = alphabet.symbols + (VARIABLE,)
    for _ in range(200):
        first = random_tree(rng, letters, 7)
        f1 = compile_poly(first)
        second = synthesize({a: f1(a) for a in alphabet}, alphabet)
        f2 = compile_poly(second)
        for t in u6:
            if f1(t) != f2(t):
                return False, f"{encode(first)} vs {encode(second)} at {encode(t)}"
    return True, f"200 polynomial pairs agreeing on letters agree on all {len(u6)} trees"


@_criterion("word-variant")
def criterion_word_variant(ctx: _Context) -> Tuple[bool, str]:
    alphabet = ctx.alphabet
    symbols = alphabet.symbols + (VARIABLE,)
    polys = ["".join(letters) for length in range(1, 7) for letters in itertools.product(symbols, repeat=length)]
    poly = _first(polys, lambda poly: synthesize_word({a: eval_word_poly(poly, a) for a in alphabet},
                                                      alphabet) != poly)
    if poly is not None:
        return False, f"recovery failed for {poly}"
    if synthesize_word({"a": "ac", "b": "bc", "c": "cc"}, alphabet) != "xc":
        return False, "recovery failed for xc example"
    return True, f"all {len(polys)} word polynomials up to length 6 recovered; xc example exact"


def run_all(seed: int = 0) -> List[CriterionResult]:
    ctx = _Context(seed)
    return [criterion(ctx) for criterion in CRITERIA]


def run_selftest(out, seed: int = 0, as_json: bool = False) -> int:
    results = run_all(seed)
    if as_json:
        payload = {
            "seed": seed,
            "passed": all(r.passed for r in results),
            "criteria": [r.as_json() for r in results],
        }
        out.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        for result in results:
            out.write(result.line() + "\n")
        good = sum(r.passed for r in results)
        out.write(f"{good}/{len(results)} criteria passed\n")
    return 0 if all(r.passed for r in results) else 3
