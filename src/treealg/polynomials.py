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
from itertools import compress, count, repeat, tee
from operator import contains, ne, not_
from random import Random
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

from .errors import (
    AlphabetTooSmall,
    EvaluationFailure,
    HypothesesViolated,
    NotCP,
    UnknownLetter,
)
from .morphisms import recolor
from .trees import (
    Alphabet,
    DEFAULT_ALPHABET,
    DEFAULT_UNIVERSE_CAP,
    Tree,
    Universe,
    VARIABLE,
    _fold_deep,
    encode,
    erase_letters,
    erase_shapes,
    foliage,
    leaf_count,
    mirror,
    parse_tree,
    read_table,
    _require_cover,
    _scan,
)
from .words import _leaves, check_word_hypotheses, eval_word_poly


_NESTING = 100  # parentheses per subexpression of a compiled polynomial, half the parser's limit


def compile_poly(poly: Tree) -> Callable[[Tree], Tree]:
    """The function of a polynomial: graft its argument into every variable leaf.

    One ``lambda`` of nested tuples, like :func:`parse_tree`'s builders, with
    ``t`` for the variable and a literal for each letter, so a call is one
    frame.  The parser refuses about 200 nested parentheses, so a subexpression
    ``_NESTING`` levels deep is named, ``((n0:=(...)),...,body)[-1]``.
    """
    if VARIABLE not in foliage(poly):
        return lambda t: poly
    named: List[str] = []

    def pair(node: Tree, left: Tuple[str, int], right: Tuple[str, int]) -> Tuple[str, int]:
        text, depth = f"({left[0]},{right[0]})", max(left[1], right[1]) + 1
        if depth < _NESTING:
            return text, depth
        named.append(f"(n{len(named)}:={text})")
        return f"n{len(named) - 1}", 0

    body = _fold_deep(poly, lambda a: ("t" if a == VARIABLE else repr(a), 0), pair)[0]
    return eval(f"lambda t: ({','.join(named)},{body})[-1]" if named else f"lambda t: {body}")  # noqa: S307


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
    """Named total function on trees, with the same function on their encodings.

    ``word_fn`` is the function on encodings: its contract is
    ``word_fn(encode(t)) == encode(fn(t))`` for every tree ``t`` over the
    alphabet.  Every built-in candidate gives one that builds no tree; when
    none is given, it reads the word's tree, applies ``fn`` and encodes the
    image.  :func:`dataclasses.replace` copies it, so a copy with a new
    ``fn`` passes ``word_fn=None`` to read it off that ``fn``.
    """

    name: str
    fn: Callable[[Tree], Tree]
    word_fn: Optional[Callable[[str], str]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.word_fn is None:  # the word's tree by rebuild's scan, which needs no alphabet
            fn = self.fn
            object.__setattr__(
                self, "word_fn", lambda w: encode(fn(_scan(erase_letters(w), (), iter(erase_shapes(w))))))

    def __call__(self, t: Tree) -> Tree:
        return self.fn(t)


_SWAP_ENDS = str.maketrans("<>", "><")


def identity_function() -> CandidateFunction:
    return CandidateFunction("identity", lambda t: t, lambda w: w)


def mirror_function() -> CandidateFunction:
    # a reversed word reads every pair right half first, with its ends turned round
    return CandidateFunction("mirror", mirror, lambda w: w[::-1].translate(_SWAP_ENDS))


def recolor_function(color: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> CandidateFunction:
    if color not in alphabet:
        raise UnknownLetter(color, "recolor target")
    to_color = str.maketrans(dict.fromkeys(alphabet, color))
    return CandidateFunction(f"recolor:{color}", lambda t: recolor(t, color, alphabet),
                             lambda w: w.translate(to_color))


def constant_function(value: Tree) -> CandidateFunction:
    word = encode(value)
    return CandidateFunction(f"const:{word}", lambda t: value, lambda w: word)


def poly_function(poly: Tree) -> CandidateFunction:
    word = encode(poly)
    return CandidateFunction(f"poly:{word}", compile_poly(poly), partial(eval_word_poly, word))


def _word_table_function(images: Mapping[str, Tree], name: str) -> CandidateFunction:
    """The candidate of a table keyed by the words of its trees.

    Hashing a tree recurses in C once per level, with no depth guard, so
    no tree is ever a key: ``fn`` looks up the word of its argument.
    """
    image_words = {word: encode(image) for word, image in images.items()}

    def fn(t: Tree) -> Tree:
        word = encode(t)
        try:
            return images[word]
        except KeyError:
            raise EvaluationFailure(word) from None

    def word_fn(word: str) -> str:
        try:
            return image_words[word]
        except KeyError:
            raise EvaluationFailure(word) from None

    return CandidateFunction(name, fn, word_fn)


def table_function(mapping: Mapping[Tree, Tree], name: str = "table") -> CandidateFunction:
    return _word_table_function({encode(t): image for t, image in mapping.items()}, name)


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
        def word(text: str) -> str:
            parse_tree(text, alphabet)  # a tree has one spelling, so a key that parses is its word
            return text

        return _word_table_function(read_table(arg, word, partial(parse_tree, alphabet=alphabet), "TREE TREE"), spec)
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


def _first_with_key(keys: Iterable[Hashable]) -> Dict[int, int]:
    """The sparse kernel of a key per tree: each later position to the first with its key."""
    first_of: Dict[Hashable, int] = {}
    return {i: first for i, key in enumerate(keys) if (first := first_of.setdefault(key, i)) != i}


def _factors(tree_keys: Iterable[Hashable], image_keys: Iterable[str], size: int) -> Optional[int]:
    """The dense kernel test: whether each tree's image key depends only on its own key.

    One C-level pass keeps the first image key of each tree key and compares
    every later one with it.  ``None`` on a mismatch; else the number of the
    ``size`` trees that are not first in their class, which is the check
    count of the sparse kernel of the same keys when it passes.
    """
    seen: Dict[Hashable, str] = {}
    firsts, image_keys = tee(image_keys)
    if any(map(ne, map(seen.setdefault, tree_keys, firsts), image_keys)):
        return None
    return size - len(seen)


def _kernel_test(
    moved: Mapping[int, int], keys: Callable[[Iterable[int]], Iterator[str]], words: List[str]
) -> Tuple[bool, int, Optional[dict]]:
    """Each tree in ``moved`` (a sparse kernel) must agree under ``keys`` with its first tree.

    ``keys`` maps positions to the keys of their images, lazily, as a chain
    of ``map``: a passing kernel is one comparison in C.  A failing one is
    compared again in order of the first trees, members in position order,
    so its witness and count are those of the first failing pair.
    """
    if not any(map(ne, keys(moved), keys(moved.values()))):
        return True, len(moved), None
    firsts, members = zip(*sorted(zip(moved.values(), moved)))
    at = next(compress(count(), map(ne, keys(firsts), keys(members))))
    return False, at + 1, {"pair": [words[firsts[at]], words[members[at]]]}


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
    A universe larger than ``cap`` raises :class:`UniverseTooLarge`: first
    the universe itself, then the grafting sample's ``U_4``, which counts
    against ``cap`` too, whatever the bound.

    Every kernel is the kernel of a *view*, a map of encodings applied to
    the images, computed once: skeleton and foliage erase the letters or the
    shapes, and ``a -> r`` replaces the letter ``a`` by the encoding of
    ``r``.  The images are the candidate's ``word_fn`` of the universe's
    words, so the universe's trees are never built.
    A kernel that groups most of the universe (skeleton, foliage,
    and a grafting of one letter by another) is one dense pass asking
    whether a tree's image key depends only on the tree's key
    (:func:`_factors`); on a mismatch it reads the sparse kernel of the same
    keys (:func:`_first_with_key`).  The trees' keys are ints read off the
    block table (:meth:`Universe.leaf_keys`), never off their words: the
    shape block for the skeleton, the leaf count and foliage for the
    foliage, and the shape block and foliage with ``a`` read as ``b`` for
    ``a -> b``.  ``a -> b`` and ``b -> a`` identify the same two letters, so
    they have one kernel and one image test: each letter pair is decided at
    its first grafting in the sample, and its later graftings reuse the
    outcome, trees moved included.  A grafting by a pair or of a letter by
    itself moves few trees (none when the letter occurs in the replacement),
    so it reads only the trees its sparse kernel (:meth:`Universe.kernel`)
    moves.  A sparse kernel is checked class by class, so the witness and
    count are those of the first failing pair.  ``stats`` holds the universe
    size, the sampled graftings, the trees their kernels moved, the kernels
    a dense pass that ran decided (``dense``), the dense passes that ran and
    fell back to the sparse kernel (``fallbacks``), and the seconds spent on
    the universe's words and the images (``images_s``), the sparse kernels
    (``kernels_s``) and the checks (``checks_s``).
    """
    universe = Universe(bound, alphabet, cap)
    larger = Universe(4, alphabet, cap).trees
    small = Universe(2, alphabet, cap).trees
    start = time.perf_counter()
    words = universe.words()
    images = list(map(func.word_fn, words))
    stats = {"universe_size": len(words), "images_s": time.perf_counter() - start, "kernels_s": 0.0,
             "dense": 0, "fallbacks": 0}
    image_at = images.__getitem__

    def decide(
        view: Callable[[Iterable[str]], Iterator[str]],
        keys: Optional[Callable[[], Iterator[int]]] = None,
        grafting: Optional[Tuple[str, Tree]] = None,
    ) -> Tuple[bool, int, Optional[dict], int]:
        """(passed, checked, witness, trees moved) of a kernel, with ``view`` the keys of the
        images' encodings: the sparse kernel of ``grafting`` ``(a, r)`` when given, else the
        dense pass over the trees' ``keys()`` and, on its mismatch, the sparse kernel of those keys."""
        if grafting is None:
            checked = _factors(keys(), view(images), len(words))
            if checked is not None:
                stats["dense"] += 1
                return True, checked, None, checked
            stats["fallbacks"] += 1
        start = time.perf_counter()
        moved = _first_with_key(keys()) if grafting is None else universe.kernel(*grafting)
        stats["kernels_s"] += time.perf_counter() - start
        return (*_kernel_test(moved, lambda ps: view(map(image_at, ps)), words), len(moved))

    start = time.perf_counter()
    tests: List[EvidenceTest] = []
    digit = {a: i for i, a in enumerate(alphabet)}

    # (a) skeleton kernel and (b) foliage kernel: the kernels of erasing the letters or the shapes
    tests.append(EvidenceTest("skeleton-kernel", *decide(
        partial(map, erase_letters), partial(universe.leaf_keys, (0,) * len(digit)))[:3]))
    tests.append(EvidenceTest("foliage-kernel", *decide(
        partial(map, erase_shapes), partial(universe.leaf_keys, tuple(digit.values()), by_shape=False))[:3]))

    # (c) grafting kernels over a fixed-plus-seeded sample of graftings
    rng = Random(seed)
    sample = [(a, t) for a in alphabet for t in small]
    sample += [(rng.choice(alphabet.symbols), rng.choice(larger)) for _ in range(100)]

    ok_all, checked_all, witness_all, moved_all = True, 0, None, 0
    by_letters: Dict[frozenset, Tuple[bool, int, Optional[dict], int]] = {}  # a letter pair's dense outcome
    for a, replacement in sample:
        word = encode(replacement)
        view = lambda strings, a=a, word=word: map(str.replace, strings, repeat(a), repeat(word))  # noqa: E731
        if isinstance(replacement, str) and replacement != a:
            # a letter by another groups most trees; a -> b and b -> a identify the same two letters,
            # so they have one kernel and one image test, decided at the first of them
            letters = frozenset((a, replacement))
            if letters not in by_letters:
                by_letters[letters] = decide(
                    view, partial(universe.leaf_keys, [digit[replacement if c == a else c] for c in alphabet]))
            ok, checked, witness, moved = by_letters[letters]
        else:  # a pair moves only the trees holding a copy of it
            ok, checked, witness, moved = decide(view, grafting=(a, replacement))
        moved_all += moved
        checked_all += checked
        if not ok and ok_all:
            ok_all = False
            witness_all = dict(witness, grafting=f"{a}->{word}")
    tests.append(EvidenceTest("grafting-kernels", ok_all, checked_all, witness_all))

    # (d) idempotent-grafting identity, over the trees t without a: else a -> t is not idempotent
    ok_d, checked_d, witness_d = True, 0, None
    for leaf_image, a in zip(images, alphabet):  # the letters come first in the universe
        lacks = list(map(not_, map(contains, words, repeat(a))))  # a word holds the letters of its foliage
        grafted = list(compress(words, lacks))
        expected = map(leaf_image.replace, repeat(a), grafted)
        actual = map(str.replace, compress(images, lacks), repeat(a), grafted)
        at = next(compress(count(), map(ne, expected, actual)), None)
        if at is not None:
            ok_d, checked_d = False, checked_d + at + 1
            witness_d = {"pair": [a, grafted[at]], "grafting": f"{a}->{grafted[at]}"}
            break
        checked_d += len(grafted)
    tests.append(EvidenceTest("idempotent-grafting", ok_d, checked_d, witness_d))

    stats.update(graftings=len(sample), moved=moved_all)
    stats["checks_s"] = time.perf_counter() - start - stats["kernels_s"]
    verdict = "evidence-of-cp" if all(t.passed for t in tests) else "not-cp"
    return EvidenceReport(func.name, bound, seed, verdict, tuple(tests), stats)


def _first_mismatch(trees: Iterable[Tree], f: Callable[[Tree], Tree], g: Callable[[Tree], Tree]) -> Optional[Tree]:
    """First of ``trees`` (or words) where ``f`` and ``g`` disagree, or None, in one C-level pass.

    A function of its own, so that the traceback of an error raised about the
    tree it returns does not hold the stream, and with it the smaller universe.
    """
    trees, inputs, again = tee(trees, 3)
    return next(compress(trees, map(ne, map(f, inputs), map(g, again))), None)


def cp_to_polynomial(
    func: CandidateFunction,
    verify_bound: int = 6,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
) -> Tree:
    """Polynomial representing ``func``, or :class:`NotCP` with a witness.

    Reads the function's values on the letter leaves, synthesizes the
    unique polynomial agreeing there, then verifies agreement on every
    tree with at most ``verify_bound`` leaves.  A polynomial of at most 200
    leaves is compiled and compared with ``fn`` on the universe's trees.
    Tuple ``==`` recurses once per level, so a larger one is compared on
    the universe's words, :func:`eval_word_poly` of its word against
    ``word_fn``, and is compiled only for the witness of a refusal.  Any
    failure along the way shows the function preserves no congruence
    structure of the required kind, i.e. it is not congruence preserving.
    A universe larger than ``cap`` raises :class:`UniverseTooLarge` before
    any tree is built.
    """
    if len(alphabet) < 3:
        raise AlphabetTooSmall(3, len(alphabet))
    universe = Universe(verify_bound, alphabet, cap)  # the count check, before any tree is built
    table = {a: func(a) for a in alphabet}
    try:
        poly = synthesize(table, alphabet)
    except HypothesesViolated as exc:
        a, b = exc.check.pair
        raise NotCP(f"generator-hypotheses:{exc.check.failure}", (table[a], table[b])) from None
    if leaf_count(poly) > 200:
        word = _first_mismatch(universe.words(), partial(eval_word_poly, encode(poly)), func.word_fn)
        bad = None if word is None else parse_tree(word, alphabet)
    else:
        bad = _first_mismatch(universe.stream(), compile_poly(poly), func.fn)
    if bad is not None:
        raise NotCP("verification", (compile_poly(poly)(bad), func(bad)), at_input=bad)
    return poly
