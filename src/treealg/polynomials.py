"""Polynomials over trees and congruence-preservation checking.

A polynomial is a tree over the alphabet extended with the reserved
variable ``x``; it induces the function that grafts its argument into
every ``x`` leaf.  Polynomial functions preserve every congruence.  The
converse direction is operationalized in two ways:

* :func:`cp_evidence` runs decidable *necessary* conditions for a
  candidate function (kernel congruences of the two projections and of
  sampled graftings, plus the idempotent-grafting identity).  Passing is
  evidence only; any failure disproves preservation with a witness.
* :func:`cp_to_polynomial` reads the candidate's values on the letter
  leaves, synthesizes the unique polynomial agreeing there, and verifies
  the two functions agree on a whole bounded universe.

:func:`synthesize` recovers a polynomial from a generator table that
satisfies the two hypotheses checked by :func:`check_hypotheses`: all
images share one skeleton, and collapsing any letter pair collapses the
corresponding images.  On a shared skeleton a grafting ``a -> b`` acts on
the foliage alone, as the substitution ``a => b``, so both run the checks
of :mod:`treealg.words` on the foliages and never recurse over a tree.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial
from random import Random
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .errors import (
    AlphabetTooSmall,
    EvaluationFailure,
    HypothesesViolated,
    NotCP,
    UnknownLetter,
)
from .morphisms import _graft_deep, recolor
from .trees import (
    Alphabet,
    DEFAULT_ALPHABET,
    DEFAULT_UNIVERSE_CAP,
    Tree,
    Universe,
    VARIABLE,
    _encode_deep,
    encode,
    erase_letters,
    erase_shapes,
    iter_universe,
    leaf_count,
    mirror,
    parse_tree,
    read_table,
    _TO_TUPLE,
    _require_cover,
    _scan,
)
from .words import _leaves, check_word_hypotheses


def compile_poly(poly: Tree) -> Callable[[Tree], Tree]:
    """The function of a polynomial: graft its argument into every variable leaf.

    Compiled from the word like :func:`parse_tree`'s builders, with ``t`` for
    the variable and a literal for each letter, so a call is one frame.  Past
    the parser's nesting limit (about 200 levels) the function is the
    iterative fold, which no recursion limit stops.
    """
    word = encode(poly)
    if VARIABLE not in word:
        return lambda t: poly
    leaves = {ord(ch): repr(ch) for ch in set(erase_shapes(word))}
    source = word.translate({**_TO_TUPLE, **leaves, ord(VARIABLE): "t"})
    try:
        return eval(f"lambda t: {source}")  # noqa: S307
    except (SyntaxError, MemoryError):  # too many nested parentheses; the parser's stack overflowed
        return lambda t: _graft_deep(VARIABLE, t, poly)


@dataclass(frozen=True)
class HypothesisCheck:
    """Outcome of checking a generator table against the synthesis hypotheses."""

    ok: bool
    common_skeleton: Optional[str] = None
    failure: Optional[str] = None  # "skeleton-mismatch" | "grafting-compatibility" | "basis-dichotomy"
    pair: Optional[Tuple[str, str]] = None

    def describe(self) -> str:
        if self.ok:
            return f"hypotheses hold, common skeleton {self.common_skeleton!r}"
        a, b = self.pair
        return f"{self.failure} on letter pair ({a}, {b})"

    def as_json(self) -> dict:
        if self.ok:
            return {"ok": True, "common_skeleton": self.common_skeleton}
        return {"ok": False, "failure": self.failure, "pair": list(self.pair)}


def _checked(table: Mapping[str, Tree], alphabet: Alphabet) -> Tuple[HypothesisCheck, Dict[str, str]]:
    """:func:`check_hypotheses`, with the foliage of each letter's image."""
    _require_cover(table, alphabet)
    words = {a: encode(table[a]) for a in alphabet}
    foliages = {a: erase_shapes(word) for a, word in words.items()}
    on_foliages = check_word_hypotheses(foliages, alphabet)  # a foreign letter raises first
    first = alphabet.symbols[0]
    shape = erase_letters(words[first])
    for a in alphabet.symbols[1:]:
        if erase_letters(words[a]) != shape:
            return HypothesisCheck(False, failure="skeleton-mismatch", pair=(first, a)), foliages
    if not on_foliages.ok:  # equal skeletons, so the foliages failed the substitution check
        return HypothesisCheck(False, failure="grafting-compatibility", pair=on_foliages.pair), foliages
    return HypothesisCheck(True, common_skeleton=shape), foliages


def check_hypotheses(table: Mapping[str, Tree], alphabet: Alphabet = DEFAULT_ALPHABET) -> HypothesisCheck:
    """Check the two synthesis hypotheses, reporting the failing pair as data.

    (1) all images share one skeleton; (2) for every letter pair a != b,
    grafting a -> b maps the images of a and b to the same tree, that is,
    substituting a => b maps their foliages to the same word.
    """
    return _checked(table, alphabet)[0]


def synthesize(table: Mapping[str, Tree], alphabet: Alphabet = DEFAULT_ALPHABET) -> Tree:
    """Unique polynomial whose values on the letter leaves match the table.

    Each leaf of the common skeleton resolves by a dichotomy on the foliage
    column there: every letter maps to itself (variable) or all map to one
    constant.  A table with no variable leaf returns its first image.
    """
    check, foliages = _checked(table, alphabet)
    if not check.ok:
        raise HypothesesViolated(check)
    leaves = _leaves(foliages, alphabet.symbols, lambda i, anchor, offender, constant: HypothesisCheck(
        False, failure="basis-dichotomy", pair=(anchor, offender)))  # only with fewer than three letters
    if VARIABLE not in leaves:
        return table[alphabet.symbols[0]]
    return _scan(check.common_skeleton, (), iter(leaves))


@dataclass(frozen=True)
class CandidateFunction:
    """Named total function on trees, evaluable wherever the checks need it."""

    name: str
    fn: Callable[[Tree], Tree]

    def __call__(self, t: Tree) -> Tree:
        return self.fn(t)


def identity_function() -> CandidateFunction:
    return CandidateFunction("identity", lambda t: t)


def mirror_function() -> CandidateFunction:
    return CandidateFunction("mirror", mirror)


def recolor_function(color: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> CandidateFunction:
    if color not in alphabet:
        raise UnknownLetter(color, "recolor target")
    return CandidateFunction(f"recolor:{color}", lambda t: recolor(t, color, alphabet))


def constant_function(value: Tree) -> CandidateFunction:
    return CandidateFunction(f"const:{encode(value)}", lambda t: value)


def poly_function(poly: Tree) -> CandidateFunction:
    return CandidateFunction(f"poly:{encode(poly)}", compile_poly(poly))


def table_function(mapping: Mapping[Tree, Tree], name: str = "table") -> CandidateFunction:
    def fn(t: Tree) -> Tree:
        try:
            return mapping[t]
        except KeyError:
            raise EvaluationFailure(encode(t)) from None

    return CandidateFunction(name, fn)


def function_from_spec(spec: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> CandidateFunction:
    """Build a candidate from its CLI spelling.

    ``identity`` | ``mirror`` | ``recolor:LETTER`` | ``const:TREE`` |
    ``poly:TREE`` | ``table:FILE`` (one ``TREE TREE`` pair per line, no
    tree twice on the left).
    """
    if spec == "identity":
        return identity_function()
    if spec == "mirror":
        return mirror_function()
    kind, _, arg = spec.partition(":")
    if kind == "recolor" and arg:
        return recolor_function(arg, alphabet)
    if kind == "const" and arg:
        return constant_function(parse_tree(arg, alphabet))
    if kind == "poly" and arg:
        return poly_function(parse_tree(arg, alphabet, variable=True))
    if kind == "table" and arg:
        tree = partial(parse_tree, alphabet=alphabet)
        return table_function(read_table(arg, tree, tree, "TREE TREE"), name=spec)
    raise ValueError(f"unknown function spec {spec!r}")


@dataclass(frozen=True)
class EvidenceTest:
    name: str
    passed: bool
    checked: int
    witness: Optional[dict] = None

    def as_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvidenceReport:
    function: str
    bound: int
    seed: int
    verdict: str  # "evidence-of-cp" | "not-cp"
    tests: Tuple[EvidenceTest, ...]
    # counters and phase seconds of the run; not part of the report's JSON
    stats: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "evidence-of-cp"

    def witness_pair(self) -> Optional[List[str]]:
        for test in self.tests:
            if not test.passed:
                return test.witness["pair"]
        return None

    def as_json(self) -> dict:
        return {
            "function": self.function,
            "bound": self.bound,
            "seed": self.seed,
            "verdict": self.verdict,
            "tests": [t.as_json() for t in self.tests],
            "witness": self.witness_pair(),
        }


def _first_with_key(keys: List[str]) -> Dict[int, int]:
    """The sparse kernel of a key per tree: each later position to the first with its key."""
    first_of: Dict[str, int] = {}
    return {i: first for i, key in enumerate(keys) if (first := first_of.setdefault(key, i)) != i}


def _kernel_test(
    moved: Mapping[int, int], view: Callable[[int], object], words: List[str]
) -> Tuple[bool, int, Optional[dict]]:
    """Each tree in ``moved`` (a sparse kernel) must agree under ``view`` with its first tree.

    ``view`` maps a position to the key of its image; classes are checked in
    order of their first trees, members in position order.
    """
    checked = 0
    first, ref = -1, None
    for rep, i in sorted(zip(moved.values(), moved)):
        if rep != first:
            first, ref = rep, view(rep)
        checked += 1
        if view(i) != ref:
            return False, checked, {"pair": [words[rep], words[i]]}
    return True, checked, None


def cp_evidence(
    func: CandidateFunction,
    bound: int,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    seed: int = 0,
    cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
) -> EvidenceReport:
    """Run the decidable necessary conditions for congruence preservation.

    Four families over the universe of trees with at most ``bound`` leaves:
    kernels of the skeleton and foliage projections, kernels of sampled
    graftings (all replacements with at most two leaves plus 100 seeded
    random ones with at most four), and the idempotent-grafting identity
    ``graft(a->t)(f(a)) == graft(a->t)(f(t))``.  All passes constitute
    evidence only; any failure is a disproof with a concrete witness.
    A universe larger than ``cap`` raises :class:`UniverseTooLarge`.

    Only the trees that a sparse kernel (:meth:`Universe.kernel`) moves are
    checked, on encodings computed once: ``a -> r`` replaces the letter
    ``a`` by the encoding of ``r``, and skeleton and foliage erase the
    letters or the shapes.  ``stats`` holds the universe size, the sampled
    graftings, the trees their kernels moved, and the seconds spent on the
    images (``images_s``), the kernels (``kernels_s``) and the checks
    (``checks_s``).
    """
    universe = Universe(bound, alphabet, cap)
    start = time.perf_counter()
    words = universe.words()
    foliages = [erase_shapes(word) for word in words]
    images = [encode(func(t)) for t in universe.trees]
    stats = {"universe_size": len(words), "images_s": time.perf_counter() - start, "kernels_s": 0.0}

    def kernel(read: Callable, arg) -> Dict[int, int]:
        start = time.perf_counter()
        moved = read(arg)
        stats["kernels_s"] += time.perf_counter() - start
        return moved

    start = time.perf_counter()
    tests: List[EvidenceTest] = []

    # (a) skeleton kernel: the kernel of sending every letter to one letter; (b) foliage kernel
    for name, moved, view in (
        ("skeleton-kernel", kernel(universe.kernel, dict.fromkeys(alphabet, alphabet.symbols[0])), erase_letters),
        ("foliage-kernel", kernel(_first_with_key, foliages), erase_shapes),
    ):
        tests.append(EvidenceTest(name, *_kernel_test(moved, lambda i, view=view: view(images[i]), words)))

    # (c) grafting kernels over a fixed-plus-seeded sample of graftings
    rng = Random(seed)
    small = Universe(2, alphabet, cap=None).trees
    larger = Universe(4, alphabet, cap=None).trees
    sample = [(a, t) for a in alphabet for t in small]
    sample += [(rng.choice(alphabet.symbols), rng.choice(larger)) for _ in range(100)]

    ok_all, checked_all, witness_all, moved_all = True, 0, None, 0
    for a, replacement in sample:
        word = encode(replacement)
        moved = kernel(universe.kernel, {b: replacement if b == a else b for b in alphabet})
        moved_all += len(moved)
        view = lambda i, a=a, word=word: images[i].replace(a, word)  # noqa: E731
        ok, checked, witness = _kernel_test(moved, view, words)
        checked_all += checked
        if not ok and ok_all:
            ok_all = False
            witness_all = dict(witness, grafting=f"{a}->{word}")
    tests.append(EvidenceTest("grafting-kernels", ok_all, checked_all, witness_all))

    # (d) idempotent-grafting identity
    ok_d, checked_d, witness_d = True, 0, None
    for i, a in enumerate(alphabet):
        leaf_image = images[i]  # the letters come first in the universe
        for word, leaves, image in zip(words, foliages, images):
            if a in leaves:
                continue  # grafting a -> t would not be idempotent
            checked_d += 1
            if leaf_image.replace(a, word) != image.replace(a, word):
                ok_d = False
                witness_d = {"pair": [a, word], "grafting": f"{a}->{word}"}
                break
        if not ok_d:
            break
    tests.append(EvidenceTest("idempotent-grafting", ok_d, checked_d, witness_d))

    stats.update(graftings=len(sample), moved=moved_all)
    stats["checks_s"] = time.perf_counter() - start - stats["kernels_s"]
    verdict = "evidence-of-cp" if all(t.passed for t in tests) else "not-cp"
    return EvidenceReport(func.name, bound, seed, verdict, tuple(tests), stats)


def cp_to_polynomial(
    func: CandidateFunction,
    verify_bound: int = 6,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
) -> Tree:
    """Polynomial representing ``func``, or :class:`NotCP` with a witness.

    Reads the function's values on the letter leaves, synthesizes the
    unique polynomial agreeing there, then verifies agreement on every
    tree with at most ``verify_bound`` leaves.  Any failure along the way
    shows the function preserves no congruence structure of the required
    kind, i.e. it is not congruence preserving.  A universe larger than
    ``cap`` raises :class:`UniverseTooLarge` before any tree is built.
    """
    if len(alphabet) < 3:
        raise AlphabetTooSmall(3, len(alphabet))
    Universe(verify_bound, alphabet, cap)  # the count check, before any tree is built
    table = {a: func(a) for a in alphabet}
    try:
        poly = synthesize(table, alphabet)
    except HypothesesViolated as exc:
        a, b = exc.check.pair
        raise NotCP(f"generator-hypotheses:{exc.check.failure}", (table[a], table[b])) from None
    evaluate = compile_poly(poly)
    word = encode(poly)
    constant = VARIABLE not in word
    # an image nests at most the polynomial's leaves plus verify_bound deep, and
    # comparing tuples recurses once per level: past a few hundred, compare the
    # image's word with the polynomial's, the tree's word in place of the variable
    by_word = leaf_count(poly) > 200
    for t in iter_universe(verify_bound, alphabet):
        actual = func(t)
        if constant and actual is poly:  # a constant's one image
            continue
        if (_encode_deep(actual) != word.replace(VARIABLE, encode(t))) if by_word else evaluate(t) != actual:
            raise NotCP("verification", (evaluate(t), actual), at_input=t)
    return poly
