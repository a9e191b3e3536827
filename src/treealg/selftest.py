"""Self-verification suite: every documented law run at full scale.

Each criterion is a function returning a :class:`CriterionResult`; the
CLI ``selftest`` subcommand prints one line per criterion and exits
nonzero if any fails.  The suite always runs over the reference alphabet
``abc`` (the scale its fixtures are frozen at); only the seed of the
randomized criteria is configurable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from random import Random
from typing import Callable, List, Optional, Tuple

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
    """Shared state across criteria; the big universe sweep runs once."""

    def __init__(self, seed: int):
        self.alphabet = DEFAULT_ALPHABET
        self.seed = seed
        self._sweep: Optional[tuple] = None

    def sweep(self) -> tuple:
        if self._sweep is None:
            total = 0
            length_law_witness = None
            roundtrip_witness = None
            parser_witness = None
            alphabet = self.alphabet
            for t in iter_universe(8, alphabet):
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


def criterion_figure_fixture(ctx: _Context) -> CriterionResult:
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
    return CriterionResult(
        1, "figure-fixture", ok,
        "reference trees: shared leaf word, distinct shapes, exact round-trips",
    )


def criterion_product_laws(ctx: _Context) -> CriterionResult:
    alphabet = ctx.alphabet
    u4 = Universe(4, alphabet, cap=None).trees
    shapes = [skeleton(t) for t in u4]
    leaves = [foliage(t) for t in u4]
    pair_count = 0
    witness = None
    for i, t in enumerate(u4):
        si, fi = shapes[i], leaves[i]
        for j, t2 in enumerate(u4):
            pair_count += 1
            enc = encode((t, t2))
            if erase_letters(enc) != f"<{si}*{shapes[j]}>":
                witness = f"shape law broke at ({encode(t)}, {encode(t2)})"
                break
            if erase_shapes(enc) != fi + leaves[j]:
                witness = f"leaf-word law broke at ({encode(t)}, {encode(t2)})"
                break
        if witness:
            break
    total, length_law_witness, _, _ = ctx.sweep()
    ok = witness is None and length_law_witness is None
    detail = (
        f"pairing laws on {pair_count} pairs; length law on {total} trees"
        if ok
        else (witness or f"length law broke at {length_law_witness}")
    )
    return CriterionResult(2, "product-laws", ok, detail)


def criterion_rebuild_roundtrip(ctx: _Context) -> CriterionResult:
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
    ok = roundtrip_witness is None and parser_witness is None and rejected == 100
    if ok:
        detail = f"rebuild and parse round-trips on {total} trees; 100 mismatched pairs rejected"
    elif roundtrip_witness:
        detail = f"rebuild round-trip broke at {roundtrip_witness}"
    elif parser_witness:
        detail = f"parse round-trip broke at {parser_witness}"
    else:
        detail = f"only {rejected}/100 pairs rejected"
    return CriterionResult(3, "rebuild-roundtrip", ok, detail)


def criterion_graft_foliage_diagram(ctx: _Context) -> CriterionResult:
    alphabet = ctx.alphabet
    u3 = Universe(3, alphabet, cap=None).trees
    checked = 0
    witness = None
    for a in alphabet:
        for replacement in u3:
            g = Grafting(a, replacement)
            for t in u3:
                checked += 1
                if not commute_check(g, t):
                    witness = f"{a}->{encode(replacement)} on {encode(t)}"
                    break
            if witness:
                break
        if witness:
            break
    ok = witness is None
    detail = f"grafting/substitution diagram on {checked} cases" if ok else f"diagram broke at {witness}"
    return CriterionResult(4, "graft-foliage-diagram", ok, detail)


def criterion_idempotence(ctx: _Context) -> CriterionResult:
    alphabet = ctx.alphabet
    u4 = Universe(4, alphabet, cap=None).trees
    checked = 0
    witness = None
    for a in alphabet:
        for replacement in u4:
            if replacement == a:
                continue  # the letter test rejects the identity grafting by design
            g = Grafting(a, replacement)
            functional = True
            for t in u4:
                once = graft(g, t)
                if graft(g, once) != once:
                    functional = False
                    break
            checked += 1
            if is_idempotent(g) != functional:
                witness = f"{a}->{encode(replacement)}"
                break
        if witness:
            break
    ok = witness is None
    detail = (
        f"letter criterion equals functional idempotence for {checked} graftings"
        if ok
        else f"criterion disagrees at {witness}"
    )
    return CriterionResult(5, "idempotence-criterion", ok, detail)


def criterion_two_grafting_injectivity(ctx: _Context) -> CriterionResult:
    alphabet = ctx.alphabet
    u4 = Universe(4, alphabet, cap=None).trees
    u3 = Universe(3, alphabet, cap=None).trees
    combos = 0
    witness = None
    for a, b in itertools.combinations(alphabet.symbols, 2):
        for replacement in u3:
            combos += 1
            ga = Grafting(a, replacement)
            gb = Grafting(b, replacement)
            images_b = [graft(gb, t) for t in u4]
            groups = {}
            for i, t in enumerate(u4):
                groups.setdefault(graft(ga, t), []).append(i)
            for members in groups.values():
                if len(members) < 2:
                    continue
                seen = {}
                for i in members:
                    key = images_b[i]
                    if key in seen:
                        witness = (
                            f"({encode(u4[seen[key]])}, {encode(u4[i])}) collapses "
                            f"under both {a}->{encode(replacement)} and {b}->..."
                        )
                        break
                    seen[key] = i
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    ok = witness is None
    pair_count = len(u4) * (len(u4) - 1) // 2
    detail = (
        f"{combos} letter-pair/replacement combinations x {pair_count} tree pairs"
        if ok
        else witness
    )
    return CriterionResult(6, "two-grafting-injectivity", ok, detail)


def criterion_closure_partition(ctx: _Context) -> CriterionResult:
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
        return CriterionResult(7, "closure-partition", False, f"partition fixture mismatch: {got}")

    part3 = bounded_closure([("a", "b")], 3, alphabet)
    kernels: List[Tuple[str, Callable]] = [("skeleton", skeleton), ("foliage", foliage)]
    for c in alphabet:
        for replacement in Universe(2, alphabet).trees:
            g = Grafting(c, replacement)
            kernels.append((f"{c}->{encode(replacement)}", lambda t, g=g: graft(g, t)))
    sound = True
    witness = None
    for name, image in kernels:
        if image("a") != image("b"):
            continue  # this kernel does not contain the generating pair
        for cls in part3.classes():
            ref = image(cls[0])
            for t in cls[1:]:
                if image(t) != ref:
                    sound = False
                    witness = f"kernel {name} splits class of {encode(cls[0])}"
                    break
            if not sound:
                break
        if not sound:
            break
    if not sound:
        return CriterionResult(7, "closure-partition", False, witness)

    part4 = bounded_closure([("a", "b")], 4, alphabet)
    for cls in part3.classes():
        rep = cls[0]
        for t in cls[1:]:
            if not part4.related(rep, t):
                return CriterionResult(
                    7, "closure-partition", False,
                    f"monotonicity broke: {encode(rep)} ~ {encode(t)} lost at bound 4",
                )
    return CriterionResult(
        7, "closure-partition", True,
        "frozen 6-class partition; sound vs qualifying kernels; monotone 3->4",
    )


def criterion_synthesis_roundtrip(ctx: _Context) -> CriterionResult:
    alphabet = ctx.alphabet
    count = 0
    witness = None
    for poly in iter_polynomials(5, alphabet):  # 5 leaves == 9 nodes
        evaluate = compile_poly(poly)
        table = {a: evaluate(a) for a in alphabet}
        if synthesize(table, alphabet) != poly:
            witness = encode(poly)
            break
        count += 1
    ok = witness is None
    detail = (
        f"all {count} polynomials with at most 9 nodes recovered exactly"
        if ok
        else f"recovery failed for {witness}"
    )
    return CriterionResult(8, "synthesis-roundtrip", ok, detail)


def criterion_synthesis_negatives(ctx: _Context) -> CriterionResult:
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

    ok = not problems
    detail = (
        "three failing tables report the expected error and witness pair"
        if ok
        else "; ".join(problems)
    )
    return CriterionResult(9, "synthesis-negatives", ok, detail)


def criterion_cp_evidence(ctx: _Context) -> CriterionResult:
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

    passing = [identity_function()]
    for text in ("a", "<a*b>", "<<a*c>*b>"):
        passing.append(constant_function(parse_tree(text, alphabet)))
    rng = Random(ctx.seed)
    letters = alphabet.symbols + (VARIABLE,)
    for _ in range(50):
        passing.append(poly_function(random_tree(rng, letters, 4)))
    for func in passing:
        result = cp_evidence(func, 4, alphabet, ctx.seed)
        if not result.passed:
            problems.append(f"{func.name} failed {result.witness_pair()}")
            break

    ok = not problems
    detail = (
        "mirror disproved with witness; identity, constants and 50 random polynomials pass"
        if ok
        else "; ".join(problems)
    )
    return CriterionResult(10, "cp-evidence", ok, detail)


def criterion_generator_agreement(ctx: _Context) -> CriterionResult:
    alphabet = ctx.alphabet
    rng = Random(ctx.seed)
    u6 = Universe(6, alphabet, cap=None).trees
    letters = alphabet.symbols + (VARIABLE,)
    witness = None
    for _ in range(200):
        first = random_tree(rng, letters, 7)
        f1 = compile_poly(first)
        second = synthesize({a: f1(a) for a in alphabet}, alphabet)
        f2 = compile_poly(second)
        for t in u6:
            if f1(t) != f2(t):
                witness = f"{encode(first)} vs {encode(second)} at {encode(t)}"
                break
        if witness:
            break
    ok = witness is None
    detail = (
        f"200 polynomial pairs agreeing on letters agree on all {len(u6)} trees"
        if ok
        else witness
    )
    return CriterionResult(11, "generator-agreement", ok, detail)


def criterion_word_variant(ctx: _Context) -> CriterionResult:
    alphabet = ctx.alphabet
    symbols = alphabet.symbols + (VARIABLE,)
    count = 0
    witness = None
    for length in range(1, 7):
        for letters in itertools.product(symbols, repeat=length):
            poly = "".join(letters)
            table = {a: eval_word_poly(poly, a) for a in alphabet}
            if synthesize_word(table, alphabet) != poly:
                witness = poly
                break
            count += 1
        if witness:
            break
    if witness is None and synthesize_word({"a": "ac", "b": "bc", "c": "cc"}, alphabet) != "xc":
        witness = "xc example"
    ok = witness is None
    detail = (
        f"all {count} word polynomials up to length 6 recovered; xc example exact"
        if ok
        else f"recovery failed for {witness}"
    )
    return CriterionResult(12, "word-variant", ok, detail)


CRITERIA = (
    criterion_figure_fixture,
    criterion_product_laws,
    criterion_rebuild_roundtrip,
    criterion_graft_foliage_diagram,
    criterion_idempotence,
    criterion_two_grafting_injectivity,
    criterion_closure_partition,
    criterion_synthesis_roundtrip,
    criterion_synthesis_negatives,
    criterion_cp_evidence,
    criterion_generator_agreement,
    criterion_word_variant,
)


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
