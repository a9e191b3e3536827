"""Polynomial evaluation, synthesis, and congruence-preservation checks."""

import inspect
import itertools
import json
import re
import sys
from collections.abc import Iterator
from dataclasses import replace
from functools import partial
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from treealg import (
    Alphabet,
    AlphabetTooSmall,
    CandidateFunction,
    DEFAULT_ALPHABET,
    EvaluationFailure,
    Grafting,
    HypothesesViolated,
    HypothesisCheck,
    MalformedTable,
    NotCP,
    TreeAlgebraError,
    Universe,
    UniverseTooLarge,
    check_hypotheses,
    compile_poly,
    congruent,
    constant_function,
    cp_evidence,
    cp_to_polynomial,
    encode,
    erase_letters,
    erase_shapes,
    foliage,
    function_from_spec,
    graft,
    identity_function,
    is_idempotent,
    iter_polynomials,
    iter_universe,
    leaf_count,
    mirror,
    mirror_function,
    parse_tree,
    poly_function,
    random_tree,
    recolor_function,
    skeleton,
    synthesize,
    table_function,
)
from treealg import morphisms, polynomials, trees
from treealg.errors import UnknownLetter
from treealg.polynomials import EvidenceReport, EvidenceTest
from treealg.trees import VARIABLE, _require_cover, _scan

from helpers import comb, crossing_tables, oracle_grafting, oracle_kernel, sparse_of

poly_letters = st.sampled_from("abcx")
polys = st.recursive(poly_letters, lambda ch: st.tuples(ch, ch), max_leaves=10)
small_polys = st.recursive(poly_letters, lambda ch: st.tuples(ch, ch), max_leaves=4).filter(
    lambda p: leaf_count(p) <= 4
)
plain_letters = st.sampled_from("abc")
plain_trees = st.recursive(plain_letters, lambda ch: st.tuples(ch, ch), max_leaves=10)

# Evidence reports as `check-cp --json` prints them, one per line; bytes
# captured before the kernels moved onto the indexed universe.
PINNED_LINES = (Path(__file__).parent / "evidence_reports.jsonl").read_text().splitlines()
PINNED_REPORTS = {
    tuple(json.loads(line)[key] for key in ("function", "bound", "seed")): line for line in PINNED_LINES
}


class TestEvalPoly:
    def test_variable_is_identity(self):
        t = parse_tree("<a*b>")
        assert compile_poly("x")(t) == t

    def test_constant(self):
        assert compile_poly("c")(parse_tree("<a*b>")) == "c"

    def test_one_node(self):
        poly = parse_tree("<x*c>", variable=True)
        assert encode(compile_poly(poly)(parse_tree("<a*b>"))) == "<<a*b>*c>"

    @given(polys, plain_trees)
    def test_compiled_form_agrees(self, poly, t):
        # the definition: grafting the argument into every variable leaf
        assert compile_poly(poly)(t) == graft(Grafting("x", t), poly)

    @given(polys, plain_trees)
    def test_no_residual_variable(self, poly, t):
        assert "x" not in foliage(compile_poly(poly)(t))

    @pytest.mark.parametrize("depth", [199, 200, 201, 1_200])
    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_deep_polynomial(self, depth, left):
        # past the parser's 200 nested parentheses, subexpressions are named
        poly = comb(depth + 1, left, bottom="x")
        t = parse_tree("<a*<b*c>>")
        assert encode(compile_poly(poly)(t)) == encode(poly).replace("x", "<a*<b*c>>")

    @pytest.mark.parametrize("leaves", [99, 100, 101, 199, 200, 201, 1_200, 100_000])
    @pytest.mark.parametrize("shape", ["left", "right", "zigzag"])
    @pytest.mark.parametrize("x_at", ["bottom", "top"])
    def test_at_the_cut(self, leaves, shape, x_at):
        # a subexpression polynomials._NESTING levels deep is named, whatever the shape around it
        poly = spine(leaves, shape, x_at)
        t = parse_tree("<a*<b*c>>")
        assert encode(compile_poly(poly)(t)) == encode(graft(Grafting("x", t), poly))

    def test_below_the_cut_one_nested_tuple(self):
        # under polynomials._NESTING levels a polynomial compiles to one nested tuple and
        # no name, the code that the word's translation compiled to before the cut
        to_tuple = {ord("<"): "(", ord("*"): ",", ord(">"): ")", ord("x"): "t", **{ord(a): repr(a) for a in "abc"}}
        shallow = [p for p in iter_polynomials(3) if "x" in foliage(p)]
        for poly in shallow + [comb(100, left, bottom="x") for left in (True, False)]:
            code = compile_poly(poly).__code__
            before = eval("lambda t: " + encode(poly).translate(to_tuple)).__code__
            assert code.co_varnames == ("t",)
            assert (code.co_code, code.co_consts) == (before.co_code, before.co_consts)
        assert compile_poly(comb(101, bottom="x")).__code__.co_varnames == ("t", "n0")

    def test_letter_literals(self):
        # every leaf but the variable is the literal of its letter, quotes and backslashes too
        poly = parse_tree("<<'*x>*<\\*t>>", Alphabet.from_string("'\\t"), variable=True)
        assert compile_poly(poly)("t") == (("'", "t"), ("\\", "t"))

    def test_near_recursion_limit(self):
        # the compiled function builds its image in one frame, however deep the polynomial
        poly = comb(151, bottom="x")
        evaluate = compile_poly(poly)
        image = near_recursion_limit(lambda: evaluate(("a", "b")))
        assert encode(image) == encode(poly).replace("x", "<a*b>")


def spine(leaves, shape, x_at):
    """A comb of ``leaves`` leaves with the variable at its ``bottom`` or its ``top``.

    Each node above the bottom leaf hangs one letter on its right (``left``),
    on its left (``right``), or on alternate sides (``zigzag``).
    """
    t = "x" if x_at == "bottom" else "a"
    for i in range(1, leaves):
        leaf = "x" if x_at == "top" and i == leaves - 1 else "abc"[i % 3]
        t = (t, leaf) if shape == "left" or shape == "zigzag" and i % 2 else (leaf, t)
    return t


def near_recursion_limit(call, headroom=50):
    """``call()`` with only ``headroom`` frames left below the recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + headroom)
    try:
        return call()
    finally:
        sys.setrecursionlimit(limit)


class TestIterPolynomials:
    def test_counts(self):
        assert sum(1 for _ in iter_polynomials(2)) == 4 + 16
        assert sum(1 for _ in iter_polynomials(3)) == 4 + 16 + 2 * 64


class TestCheckHypotheses:
    def test_identity_table(self):
        result = check_hypotheses({"a": "a", "b": "b", "c": "c"})
        assert result.ok and result.common_skeleton == ""

    def test_skeleton_mismatch(self):
        result = check_hypotheses({"a": "a", "b": parse_tree("<b*c>"), "c": "c"})
        assert not result.ok
        assert result.failure == "skeleton-mismatch"
        assert result.pair == ("a", "b")

    def test_swap_table_fails_compatibility(self):
        result = check_hypotheses({"a": "b", "b": "a", "c": "c"})
        assert not result.ok
        assert result.failure == "grafting-compatibility"
        assert result.pair == ("a", "c")

    def test_incomplete_table(self):
        with pytest.raises(MalformedTable):
            check_hypotheses({"a": "a"})

    def test_basis_dichotomy_over_all_letter_tables(self):
        # a letter table that passes must be the identity or constant
        for values in itertools.product("abc", repeat=3):
            table = dict(zip("abc", values))
            result = check_hypotheses(table)
            if result.ok:
                assert values == ("a", "b", "c") or len(set(values)) == 1


class TestSynthesize:
    def test_identity(self):
        assert synthesize({"a": "a", "b": "b", "c": "c"}) == "x"

    def test_constant(self):
        assert synthesize({"a": "c", "b": "c", "c": "c"}) == "c"

    def test_one_node(self):
        table = {a: parse_tree(f"<{a}*c>") for a in "abc"}
        poly = synthesize(table)
        assert encode(poly) == "<x*c>"
        for a in "abc":
            assert compile_poly(poly)(a) == table[a]

    def test_rejects_bad_table(self):
        with pytest.raises(HypothesesViolated):
            synthesize({"a": "b", "b": "a", "c": "c"})

    def test_roundtrip_small(self):
        # every polynomial with at most 7 nodes is recovered exactly
        count = 0
        for poly in iter_polynomials(4):
            table = {a: compile_poly(poly)(a) for a in "abc"}
            assert synthesize(table) == poly
            count += 1
        assert count == 4 + 16 + 128 + 1280

    def test_two_letter_swap_reports_violation(self):
        ab = Alphabet.from_string("ab")
        # passes the pairwise check but breaks the basis dichotomy
        assert check_hypotheses({"a": "b", "b": "a"}, ab).ok
        with pytest.raises(HypothesesViolated):
            synthesize({"a": "b", "b": "a"}, ab)

    def test_three_letters_resolve_every_compatible_table(self):
        # every table with images in U_2 that passes the hypotheses over abc synthesizes
        u2 = Universe(2).trees
        passed = 0
        for images in itertools.product(u2, repeat=3):
            table = dict(zip("abc", images))
            if check_hypotheses(table).ok:
                passed += 1
                poly = synthesize(table)
                assert all(compile_poly(poly)(a) == table[a] for a in "abc")
        assert passed == sum(1 for _ in iter_polynomials(2))  # one table per polynomial

    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_deep_tables(self, left):
        # no step compares or rebuilds trees once per level
        poly = comb(100_000, left, bottom="x")
        table = {a: graft(Grafting("x", a), poly) for a in "abc"}
        assert encode(synthesize(table)) == encode(poly)
        constant = {a: table["c"] for a in "abc"}
        assert synthesize(constant) is table["c"]
        table["b"] = comb(100_000, left, bottom="c")
        assert check_hypotheses(table).pair == ("a", "b")


# The recursive synthesizer and closure compiler that the word-based ones
# replaced, kept as differential oracles.


def oracle_compile_poly(poly):
    if poly == VARIABLE:
        return lambda t: t
    if isinstance(poly, str) or VARIABLE not in foliage(poly):
        return lambda t: poly
    left = oracle_compile_poly(poly[0])
    right = oracle_compile_poly(poly[1])
    return lambda t: (left(t), right(t))


def oracle_check_hypotheses(table, alphabet):
    _require_cover(table, alphabet)
    for a in alphabet:
        for ch in foliage(table[a]):
            if ch not in alphabet:
                raise UnknownLetter(ch, f"image of {a!r}")
    symbols = alphabet.symbols
    first = symbols[0]
    shape = skeleton(table[first])
    for a in symbols[1:]:
        if skeleton(table[a]) != shape:
            return HypothesisCheck(False, failure="skeleton-mismatch", pair=(first, a))
    for a, b in itertools.combinations(symbols, 2):
        g = Grafting(a, b)
        if graft(g, table[a]) != graft(g, table[b]):
            return HypothesisCheck(False, failure="grafting-compatibility", pair=(a, b))
    return HypothesisCheck(True, common_skeleton=shape)


def oracle_synthesize(table, alphabet):
    check = oracle_check_hypotheses(table, alphabet)
    if not check.ok:
        raise HypothesesViolated(check)
    if check.common_skeleton == "":
        anchor = constant = None
        for a in alphabet:
            if table[a] != a:
                anchor, constant = a, table[a]
                break
        if constant is None:
            return VARIABLE
        offender = next((b for b in alphabet if table[b] != constant), None)
        if offender is not None:
            raise HypothesesViolated(
                HypothesisCheck(False, failure="basis-dichotomy", pair=(anchor, offender))
            )
        return constant
    left = oracle_synthesize({a: table[a][0] for a in alphabet}, alphabet)
    right = oracle_synthesize({a: table[a][1] for a in alphabet}, alphabet)
    return (left, right)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the class and payload of the error it raises."""
    try:
        value = fn(*args)
    except TreeAlgebraError as exc:
        return type(exc).__name__, exc.payload()
    return "value", value.as_json() if isinstance(value, HypothesisCheck) else value


def perturbed(table, alphabet, rng):
    """``table`` with one change: a leaf relabeled, an image replaced, or two images swapped."""
    table = dict(table)
    symbols = alphabet.symbols
    a = rng.choice(symbols)
    kind = rng.randrange(3)
    if kind == 0:  # relabel a leaf, now and then with a letter outside the alphabet
        leaves = list(foliage(table[a]))
        leaves[rng.randrange(len(leaves))] = rng.choice(symbols + ("d", "x") if rng.random() < 0.1 else symbols)
        table[a] = _scan(skeleton(table[a]), (), iter(leaves))
    elif kind == 1:
        table[a] = random_tree(rng, symbols, 4)
    else:
        b = rng.choice(symbols)
        table[a], table[b] = table[b], table[a]
    return table


class TestAgainstRecursiveOracle:
    """check_hypotheses, synthesize and compile_poly against the recursive versions."""

    def assert_agree(self, table, alphabet):
        assert outcome(check_hypotheses, table, alphabet) == outcome(oracle_check_hypotheses, table, alphabet)
        assert outcome(synthesize, table, alphabet) == outcome(oracle_synthesize, table, alphabet)

    def test_every_polynomial_table(self):
        abc = Alphabet.from_string("abc")
        rng = Random(0)
        samples = Universe(3).trees
        for poly in iter_polynomials(4):
            oracle = oracle_compile_poly(poly)
            evaluate = compile_poly(poly)
            assert all(evaluate(t) == oracle(t) for t in rng.sample(samples, 5))
            table = {a: oracle(a) for a in "abc"}
            self.assert_agree(table, abc)
            self.assert_agree(perturbed(table, abc, rng), abc)

    @pytest.mark.parametrize("letters", ["a", "ab", "abc", "abcd"])
    def test_random_tables(self, letters):
        alphabet = Alphabet.from_string(letters)
        symbols = alphabet.symbols
        rng = Random(len(letters))
        for _ in range(2_000):
            poly = random_tree(rng, symbols + ("x",), 5)
            table = {a: oracle_compile_poly(poly)(a) for a in symbols}
            self.assert_agree(table, alphabet)
            self.assert_agree(perturbed(table, alphabet, rng), alphabet)
            # images on one random skeleton with random foliages: compatibility and dichotomy
            shape = skeleton(random_tree(rng, symbols, 4))
            width = len(shape) // 3 + 1
            table = {a: _scan(shape, (), iter(rng.choices(symbols, k=width))) for a in symbols}
            self.assert_agree(table, alphabet)

    @pytest.mark.parametrize("table", [{"a": "a"}, {"a": "a", "b": "b", "c": "c", "d": "d"}])
    def test_tables_not_covering_the_alphabet(self, table):
        abc = Alphabet.from_string("abc")
        assert outcome(check_hypotheses, table, abc)[0] == "MalformedTable"
        self.assert_agree(table, abc)


# The evidence checks as ordered Python loops, one tree at a time, before
# they became passes of map: a differential oracle for whole reports.


def oracle_kernel_test(moved, view, words):
    checked = 0
    first, ref = -1, None
    for rep, i in sorted(zip(moved.values(), moved)):
        if rep != first:
            first, ref = rep, view(rep)
        checked += 1
        if view(i) != ref:
            return False, checked, {"pair": [words[rep], words[i]]}
    return True, checked, None


def oracle_cp_evidence(func, bound, alphabet, seed):
    """The report's JSON, the moved trees and the sampled graftings, as cp_evidence counts them."""
    universe = Universe(bound, alphabet)
    words = universe.words()
    foliages = [erase_shapes(word) for word in words]
    images = [encode(func(t)) for t in universe.trees]
    tests = []
    for name, moved, view in (
        ("skeleton-kernel", oracle_kernel(bound, alphabet, (alphabet.symbols[0],) * len(alphabet)),
         partial(re.sub, r"[^<*>]+", "")),
        ("foliage-kernel", sparse_of(foliages), erase_shapes),
    ):
        tests.append(EvidenceTest(name, *oracle_kernel_test(moved, lambda i: view(images[i]), words)))
    rng = Random(seed)
    small = Universe(2, alphabet, cap=None).trees
    larger = Universe(4, alphabet, cap=None).trees
    sample = [(a, t) for a in alphabet for t in small]
    sample += [(rng.choice(alphabet.symbols), rng.choice(larger)) for _ in range(100)]
    ok_all, checked_all, witness_all, moved_all = True, 0, None, 0
    for a, replacement in sample:
        word = encode(replacement)
        moved = oracle_grafting(bound, alphabet, a, replacement)
        moved_all += len(moved)
        ok, checked, witness = oracle_kernel_test(moved, lambda i: images[i].replace(a, word), words)
        checked_all += checked
        if not ok and ok_all:
            ok_all, witness_all = False, dict(witness, grafting=f"{a}->{word}")
    tests.append(EvidenceTest("grafting-kernels", ok_all, checked_all, witness_all))
    ok_d, checked_d, witness_d = True, 0, None
    for i, a in enumerate(alphabet):
        for word, leaves, image in zip(words, foliages, images):
            if a in leaves:
                continue
            checked_d += 1
            if images[i].replace(a, word) != image.replace(a, word):
                ok_d, witness_d = False, {"pair": [a, word], "grafting": f"{a}->{word}"}
                break
        if not ok_d:
            break
    tests.append(EvidenceTest("idempotent-grafting", ok_d, checked_d, witness_d))
    verdict = "evidence-of-cp" if all(t.passed for t in tests) else "not-cp"
    return EvidenceReport(func.name, bound, seed, verdict, tuple(tests)).as_json(), moved_all, len(sample)


class TestDenseKernels:
    """The dense pass against the dense oracle's sparse kernel, on tables over U_3."""

    @settings(max_examples=200, deadline=None)
    @given(small_polys, st.lists(st.tuples(st.integers(0, 65), plain_trees), max_size=3))
    def test_none_exactly_when_the_sparse_test_fails(self, poly, changes):
        # a polynomial passes every kernel; a few trees sent elsewhere may break some
        universe = Universe(3)
        trees, words = universe.trees, universe.words()
        kernels = [
            (partial(map, erase_letters), oracle_kernel(3, universe.alphabet, ("a", "a", "a"))),
            (partial(map, erase_shapes), sparse_of(map(erase_shapes, words))),
        ]
        kernels += [(lambda strings, a=a, b=b: map(str.replace, strings, itertools.repeat(a), itertools.repeat(b)),
                     oracle_grafting(3, universe.alphabet, a, b)) for a, b in itertools.permutations("abc", 2)]
        evaluate = compile_poly(poly)
        table = {t: evaluate(t) for t in trees}
        table.update((trees[i], image) for i, image in changes)
        images = [encode(image) for image in map(table_function(table), trees)]
        for view, moved in kernels:
            passed = polynomials._kernel_test(moved, lambda ps: view(map(images.__getitem__, ps)), words)[0]
            assert polynomials._factors(view(words), view(images), len(trees)) == (len(moved) if passed else None)

    @pytest.mark.parametrize(
        "letters, bound",
        [(letters, bound) for letters in ("ab", "abc", "abcd") for bound in range(1, 5 if letters == "abcd" else 6)],
    )
    def test_sparse_kernel_of_the_keys_is_that_of_the_leaf_map(self, letters, bound):
        # a dense pass that mismatches reads the sparse kernel of its own tree keys; for the
        # skeleton (every letter to one) and each grafting a -> b it is the dense oracle's
        alphabet = Alphabet.from_string(letters)
        symbols, universe = alphabet.symbols, Universe(bound, alphabet)
        words = universe.words()
        views = [(partial(map, erase_letters), (symbols[0],) * len(symbols))]
        views += [(lambda strings, a=a, b=b: map(str.replace, strings, itertools.repeat(a), itertools.repeat(b)),
                   tuple(b if c == a else c for c in symbols)) for a, b in itertools.permutations(symbols, 2)]
        for view, images in views:
            assert polynomials._first_with_key(view(words)) == oracle_kernel(bound, alphabet, images), images


class TestEvidenceAgainstOrderedLoops:
    """cp_evidence's passes of map against the loops that checked one tree at a time."""

    # every seed but on the largest universe, 15,760 trees, which one seed covers in 4 s
    @pytest.mark.parametrize(
        "letters, bound, seeds",
        [pytest.param(letters, bound, (1,) if (letters, bound) == ("abcd", 5) else range(4), id=f"{letters}-{bound}")
         for letters in ("abc", "abcd") for bound in (2, 3, 4, 5)],
    )
    def test_reports_agree(self, letters, bound, seeds):
        alphabet = Alphabet.from_string(letters)
        symbols = alphabet.symbols
        crossings = letter_crossings = 0
        for seed in seeds:
            rng = Random(seed)
            tables = crossing_tables(bound, alphabet, seed)
            crossings += len(tables)
            funcs = [
                identity_function(),
                mirror_function(),
                recolor_function(symbols[seed % len(symbols)], alphabet),
                constant_function(random_tree(rng, symbols, 3)),
                poly_function(parse_tree("<x*<a*x>>", alphabet, variable=True)),
                poly_function(random_tree(rng, symbols + (VARIABLE,), 4)),
                CandidateFunction("swap:ab", swap_ab),
                *tables,
            ]
            for func in funcs:
                report = cp_evidence(func, bound, alphabet, seed)
                expected = oracle_cp_evidence(func, bound, alphabet, seed)
                assert (report.as_json(), report.stats["moved"], report.stats["graftings"]) == expected
                if func.name == "table:letter-grafting":  # its dense pass mismatched
                    letter_crossings += 1
                    assert report.stats["fallbacks"] > 0
        assert crossings >= len(seeds) and letter_crossings > 0


def word_keyed_cp_evidence(func, bound, alphabet, seed):
    """The report's JSON and the moved trees of cp_evidence as it keyed the trees by their
    words, through the view of the images, and decided every sampled grafting on its own."""
    universe = Universe(bound, alphabet)
    words = universe.words()
    images = list(map(encode, map(func.fn, universe.trees)))
    image_at = images.__getitem__

    def decide(view, grafting=None):
        if grafting is None:
            checked = polynomials._factors(view(words), view(images), len(words))
            if checked is not None:
                return True, checked, None, checked
        moved = polynomials._first_with_key(view(words)) if grafting is None else universe.kernel(*grafting)
        return (*polynomials._kernel_test(moved, lambda ps: view(map(image_at, ps)), words), len(moved))

    tests = [EvidenceTest(name, *decide(view)[:3]) for name, view in (
        ("skeleton-kernel", partial(map, erase_letters)), ("foliage-kernel", partial(map, erase_shapes)))]
    rng = Random(seed)
    small = Universe(2, alphabet, cap=None).trees
    larger = Universe(4, alphabet, cap=None).trees
    sample = [(a, t) for a in alphabet for t in small]
    sample += [(rng.choice(alphabet.symbols), rng.choice(larger)) for _ in range(100)]
    ok_all, checked_all, witness_all, moved_all = True, 0, None, 0
    for a, replacement in sample:
        word = encode(replacement)
        view = lambda strings, a=a, word=word: map(str.replace, strings, itertools.repeat(a), itertools.repeat(word))
        dense = isinstance(replacement, str) and replacement != a
        ok, checked, witness, moved = decide(view, None if dense else (a, replacement))
        moved_all += moved
        checked_all += checked
        if not ok and ok_all:
            ok_all, witness_all = False, dict(witness, grafting=f"{a}->{word}")
    tests.append(EvidenceTest("grafting-kernels", ok_all, checked_all, witness_all))
    ok_d, checked_d, witness_d = True, 0, None
    for leaf_image, a in zip(images, alphabet):
        grafted = [word for word in words if a not in word]
        actual = [image for word, image in zip(words, images) if a not in word]
        at = next((i for i, (w, image) in enumerate(zip(grafted, actual))
                   if leaf_image.replace(a, w) != image.replace(a, w)), None)
        if at is not None:
            ok_d, checked_d = False, checked_d + at + 1
            witness_d = {"pair": [a, grafted[at]], "grafting": f"{a}->{grafted[at]}"}
            break
        checked_d += len(grafted)
    tests.append(EvidenceTest("idempotent-grafting", ok_d, checked_d, witness_d))
    verdict = "evidence-of-cp" if all(t.passed for t in tests) else "not-cp"
    return EvidenceReport(func.name, bound, seed, verdict, tuple(tests)).as_json(), moved_all


def changed_at(func, tree, image):
    """``func`` with its value on the one tree ``tree`` replaced by ``image``."""
    return CandidateFunction(f"{func.name}@{encode(tree)}", lambda t: image if t == tree else func(t))


class TestEvidenceAgainstWordKeys:
    """cp_evidence, keying the trees by the block table and deciding each letter pair once,
    against its word-keyed form that decided every grafting on its own."""

    @pytest.mark.parametrize("bound", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reports_and_moved_trees_agree(self, bound, seed):
        rng = Random(seed)
        universe = Universe(bound)
        trees = universe.trees
        polys = [poly_function(random_tree(rng, ("a", "b", "c", VARIABLE), 4)) for _ in range(2)]
        funcs = [
            identity_function(),
            mirror_function(),
            recolor_function("b"),
            CandidateFunction("swap:ab", swap_ab),
            constant_function(random_tree(rng, ("a", "b", "c"), 3)),
            *polys,
        ]
        # one tree sent elsewhere: its letters swapped, its image mirrored, or a leaf added
        for func, change in ((identity_function(), swap_ab), (polys[0], mirror), (polys[1], lambda t: (t, "c"))):
            tree = rng.choice(trees)
            funcs.append(changed_at(func, tree, change(func(tree))))
        for func in funcs:
            report = cp_evidence(func, bound, seed=seed)
            expected = word_keyed_cp_evidence(func, bound, universe.alphabet, seed)
            assert (report.as_json(), report.stats["moved"]) == expected, func.name


def builtin_candidates(alphabet, trees):
    """One candidate of each built-in kind over ``alphabet``; the table's keys are ``trees``."""
    s = alphabet.symbols
    return [
        identity_function(),
        mirror_function(),
        recolor_function(s[1], alphabet),
        constant_function(parse_tree(f"<{s[0]}*<{s[2]}*{s[0]}>>", alphabet)),
        poly_function(parse_tree(f"<<x*{s[0]}>*<{s[2]}*x>>", alphabet, variable=True)),
        table_function({t: mirror(t) for t in trees}, "table:mirror"),
    ]


class TestWordMaps:
    """Each built-in candidate's map of words against the encodings of its map of trees,
    and cp_evidence through it against cp_evidence through the trees."""

    @pytest.mark.parametrize("letters", ["abc", "abcd", "éab"])
    def test_word_fn_encodes_fn(self, letters):
        alphabet = Alphabet.from_string(letters)
        universe = Universe(5, alphabet, cap=None)
        for func in builtin_candidates(alphabet, universe.trees):
            assert list(map(func.word_fn, universe.words())) == [encode(func.fn(t)) for t in universe.trees], func.name

    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_word_fn_of_a_comb(self, left):
        t = comb(3_000, left)
        for func in builtin_candidates(DEFAULT_ALPHABET, [t]):
            assert func.word_fn(encode(t)) == encode(func.fn(t)), func.name

    @pytest.mark.parametrize("bound", [2, 3, 4, 5])
    def test_reports_agree_with_the_tree_path(self, bound):
        for seed in range(4):
            for func in builtin_candidates(DEFAULT_ALPHABET, Universe(bound).trees):
                by_words = cp_evidence(func, bound, seed=seed)
                by_trees = cp_evidence(replace(func, word_fn=None), bound, seed=seed)
                assert by_words.as_json() == by_trees.as_json(), (func.name, seed)
                assert [by_words.stats[k] for k in ("moved", "dense", "fallbacks")] == [
                    by_trees.stats[k] for k in ("moved", "dense", "fallbacks")], (func.name, seed)

    def test_no_tree_of_the_universe_is_built(self, monkeypatch):
        made = []

        class Recorded(Universe):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(polynomials, "Universe", Recorded)
        # a candidate built by hand reads each word's tree through its derived word map
        for func in [*builtin_candidates(DEFAULT_ALPHABET, Universe(5).trees), CandidateFunction("swap:ab", swap_ab)]:
            made.clear()
            cp_evidence(func, 5)
            # the universe, then the grafting sample's U_4 and U_2, whose trees are the replacements
            assert [u.max_leaves for u in made] == [5, 4, 2]
            assert "trees" not in vars(made[0]), func.name


class TestCpEvidence:
    def test_identity_passes(self):
        report = cp_evidence(identity_function(), 4)
        assert report.passed
        assert [t.name for t in report.tests] == [
            "skeleton-kernel",
            "foliage-kernel",
            "grafting-kernels",
            "idempotent-grafting",
        ]

    def test_polynomial_passes(self):
        func = poly_function(parse_tree("<x*c>", variable=True))
        assert cp_evidence(func, 4).passed

    def test_mirror_fails_idempotent_grafting(self):
        report = cp_evidence(mirror_function(), 4)
        assert not report.passed
        by_name = {t.name: t for t in report.tests}
        assert not by_name["idempotent-grafting"].passed
        assert by_name["idempotent-grafting"].witness is not None

    def test_mirror_witness_family_member(self):
        # documented instance: asymmetric replacement without the letter
        replacement = parse_tree("<b*<b*c>>")
        g = Grafting("a", replacement)
        assert is_idempotent(g)
        assert graft(g, mirror("a")) == replacement
        assert encode(graft(g, mirror(replacement))) == "<<c*b>*b>"
        assert graft(g, mirror(replacement)) != replacement

    def test_grafting_sample_counts_against_the_cap(self):
        # the sample draws replacements from U_4, so a bound below 4 over many letters still needs U_4 under cap
        with pytest.raises(UniverseTooLarge) as raised:
            cp_evidence(identity_function(), 1, Alphabet.from_string("abcdefghijklmnop"), cap=20)
        assert raised.value.witness == {"required": 336_144, "cap": 20}
        with pytest.raises(UniverseTooLarge):
            cp_evidence(identity_function(), 1, cap=470)
        assert cp_evidence(identity_function(), 1, cap=471).passed  # |U_4| over abc

    def test_seed_recorded(self):
        report = cp_evidence(identity_function(), 3, seed=42)
        assert report.seed == 42
        assert report.as_json()["seed"] == 42

    def test_random_polynomials_pass(self):
        rng = Random(1)
        for _ in range(10):
            func = poly_function(random_tree(rng, ("a", "b", "c", "x"), 4))
            assert cp_evidence(func, 3).passed

    def test_partial_table_function_raises(self):
        func = table_function({t: t for t in Universe(1).trees})
        with pytest.raises(EvaluationFailure):
            cp_evidence(func, 2)

    @pytest.mark.parametrize("spec", ["identity", "poly:<x*<a*x>>", "const:<a*b>"])
    def test_stats_count_the_moved_trees(self, spec):
        # on a passing candidate every moved tree is checked once
        report = cp_evidence(function_from_spec(spec), 4)
        assert report.passed
        by_name = {t.name: t for t in report.tests}
        assert report.stats["moved"] == by_name["grafting-kernels"].checked > 0
        assert report.stats["universe_size"] == 471 and report.stats["graftings"] == 3 * 12 + 100
        # both projections and the 3 letter pairs, one dense pass each for a -> b and b -> a
        assert (report.stats["dense"], report.stats["fallbacks"]) == (2 + 3, 0)
        assert all(report.stats[key] >= 0 for key in ("images_s", "kernels_s", "checks_s"))
        assert "stats" not in report.as_json()

    def test_failing_candidate_checks_fewer_than_it_moves(self):
        report = cp_evidence(mirror_function(), 4)
        by_name = {t.name: t for t in report.tests}
        assert not by_name["grafting-kernels"].passed
        assert by_name["grafting-kernels"].checked < report.stats["moved"]

    def test_a_mismatched_dense_pass_falls_back(self):
        # swapping a and b keeps the projections' kernels and those of a -> b and b -> a,
        # and breaks those of a -> c, b -> c, c -> a and c -> b
        report = cp_evidence(CandidateFunction("swap:ab", swap_ab), 4)
        assert (report.stats["dense"], report.stats["fallbacks"]) == (2 + 1, 2)
        assert report.tests[2].witness == {"pair": ["a", "c"], "grafting": "a->c"}

    def test_no_grafting_of_trees(self, monkeypatch):
        # the checks run on encodings; graft itself is never called
        def refuse(*args):
            raise AssertionError("graft called")

        monkeypatch.setattr(morphisms, "graft", refuse)
        for spec in ("identity", "mirror"):
            line = json.dumps(cp_evidence(function_from_spec(spec), 3).as_json(), separators=(",", ":"))
            assert line == PINNED_REPORTS[spec, 3, 0]

    @pytest.mark.parametrize(
        "spec", ["identity", "mirror", "recolor:b", "const:<a*b>", "poly:<x*<a*x>>", "poly:<x*x>"]
    )
    @pytest.mark.parametrize("bound", [3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_report_bytes_are_pinned(self, spec, bound, seed):
        # witnesses, checked counts and family order, byte for byte
        report = cp_evidence(function_from_spec(spec), bound, seed=seed)
        line = json.dumps(report.as_json(), separators=(",", ":"))
        assert line == PINNED_REPORTS[spec, bound, seed]


class TestWitnessesAreCertificates:
    def test_every_failing_witness_is_a_certificate(self):
        # each family is the kernel of a map, a congruence holding the pair of its witness,
        # so that congruence holds the principal congruence of the pair, which f then breaks
        certificates = 0
        for line in PINNED_LINES:
            report = json.loads(line)
            func = function_from_spec(report["function"])
            for test in report["tests"]:
                if not test["passed"]:
                    u, v = map(parse_tree, test["witness"]["pair"])
                    assert not congruent([(u, v)], func(u), func(v)), (report["function"], test)
                    certificates += 1
        assert certificates == 16


def swap_ab(t):
    """The automorphism exchanging the letters a and b."""
    if isinstance(t, str):
        return {"a": "b", "b": "a"}.get(t, t)
    return (swap_ab(t[0]), swap_ab(t[1]))


class TestEvidenceAgreesWithSynthesis:
    # cp_evidence at bound 3 against cp_to_polynomial verifying at bound 3
    @settings(max_examples=100, deadline=None)
    @given(small_polys)
    def test_polynomials_pass_both(self, poly):
        func = poly_function(poly)
        assert cp_evidence(func, 3).verdict == "evidence-of-cp"
        assert cp_to_polynomial(func, 3) == poly

    @pytest.mark.parametrize(
        "func",
        [mirror_function(), recolor_function("b"), CandidateFunction("swap:ab", swap_ab)],
        ids=["mirror", "recolor:b", "swap:ab"],
    )
    def test_non_polynomials_fail_both(self, func):
        assert cp_evidence(func, 3).verdict == "not-cp"
        with pytest.raises(NotCP):
            cp_to_polynomial(func, 3)


class TestIdempotentGraftingIdentity:
    def test_holds_for_polynomial_functions(self):
        rng = Random(2)
        u4 = Universe(4).trees
        functions = [identity_function(), constant_function(parse_tree("<a*b>"))]
        functions += [
            poly_function(random_tree(rng, ("a", "b", "c", "x"), 4)) for _ in range(8)
        ]
        for func in functions:
            for a in "abc":
                for t in u4:
                    g = Grafting(a, t)
                    if is_idempotent(g):
                        assert graft(g, func(a)) == graft(g, func(t))


class TestCpToPolynomial:
    def test_identity(self):
        assert cp_to_polynomial(identity_function()) == "x"

    def test_constant(self):
        value = parse_tree("<a*b>")
        assert cp_to_polynomial(constant_function(value)) == value

    def test_polynomial_recovers_itself(self):
        poly = parse_tree("<<x*a>*x>", variable=True)
        assert cp_to_polynomial(poly_function(poly), 5) == poly

    def test_mirror_rejected_with_witness(self):
        with pytest.raises(NotCP) as info:
            cp_to_polynomial(mirror_function())
        assert info.value.stage == "verification"
        assert info.value.at_input is not None

    def test_recolor_rejected(self):
        with pytest.raises(NotCP):
            cp_to_polynomial(recolor_function("c"))

    def test_verification_reports_the_first_failing_tree(self):
        # the identity but at two trees, the later one entered first
        trees = Universe(4).trees
        early, late = trees[20], trees[300]  # <<a*c>*c> and <<c*c>*<a*a>>
        table = {late: mirror(late), early: mirror(early)}
        table.update((t, t) for t in trees if t not in table)
        with pytest.raises(NotCP) as info:
            cp_to_polynomial(table_function(table), 4)
        assert info.value.stage == "verification" and info.value.at_input == early
        table[early] = early
        with pytest.raises(NotCP) as info:
            cp_to_polynomial(table_function(table), 4)
        assert info.value.at_input == late

    @pytest.mark.parametrize("by_word", [False, True], ids=["by-tree", "by-word"])
    def test_refusal_holds_no_stream(self, by_word):
        # a caller that keeps the NotCP keeps its traceback's frames; none of them may
        # hold the verification stream, which holds the smaller universe's trees.  Past
        # 200 leaves the images are compared by their words, in the same one pass
        func, bound = mirror_function(), 5
        if by_word:
            evaluate = compile_poly(comb(1_200, bottom="x"))
            func, bound = CandidateFunction("mirrored", lambda t: evaluate(mirror(t))), 2
        with pytest.raises(NotCP) as info:
            cp_to_polynomial(func, bound)
        tb = info.value.__traceback__
        while tb is not None:
            assert not any(isinstance(v, Iterator) for v in tb.tb_frame.f_locals.values()), tb.tb_frame.f_code.co_name
            tb = tb.tb_next

    def test_needs_three_letters(self):
        with pytest.raises(AlphabetTooSmall):
            cp_to_polynomial(identity_function(), 3, Alphabet.from_string("ab"))

    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_deep_polynomial_verifies(self, left):
        # the images are too deep to compare as tuples, so their encodings are compared
        poly = comb(1_200, left, bottom="x")
        assert encode(cp_to_polynomial(poly_function(poly), 2)) == encode(poly)
        # agrees with the polynomial on the letters, but not on <a*b>, deep down in the image
        evaluate = compile_poly(poly)
        with pytest.raises(NotCP) as info:
            cp_to_polynomial(CandidateFunction("mirrored", lambda t: evaluate(mirror(t))), 2)
        assert info.value.stage == "verification" and encode(info.value.at_input) == "<a*b>"

    def test_deep_polynomial_recursion_does_not_grow_with_the_trees(self):
        # past the parser's nesting limit the polynomial is folded iteratively and its
        # images are compared by their words, so no step of the verification recurses
        # once per level, which past the recursion limit fails and starts over; only
        # synthesis encodes the letters' images, once.  The limit is raised so that
        # nothing fails and the trace counts every treealg call more than 200 frames
        # deep (not a gc callback that another library hooked in, which a collection
        # during a deep encode would run).
        poly = comb(1_200, bottom="x")
        func = poly_function(poly)

        def deep_calls(bound):
            depth, deep = [0], [0]

            def trace(frame, event, arg):
                if event == "call":
                    frame.f_trace_lines = False
                    depth[0] += 1
                    deep[0] += depth[0] > 200 and frame.f_globals["__name__"].startswith("treealg")
                elif event == "return":
                    depth[0] -= 1
                return trace

            before, limit = sys.gettrace(), sys.getrecursionlimit()
            sys.setrecursionlimit(10_000)
            sys.settrace(trace)
            try:
                assert encode(cp_to_polynomial(func, bound)) == encode(poly)
            finally:
                sys.settrace(before)
                sys.setrecursionlimit(limit)
            return deep[0]

        assert deep_calls(1) == deep_calls(3)  # 3 trees and 66 trees

    def test_deep_polynomial_verifies_without_evaluating_it(self, monkeypatch):
        # each image is checked by its word against the polynomial's word with the
        # tree's word for x, so the synthesized polynomial is never compiled and only
        # the candidate is evaluated: on the 3 letters, then on the 66 trees
        poly = comb(1_200, bottom="x")
        evaluate, compiled, calls = compile_poly(poly), [], []
        monkeypatch.setattr(polynomials, "compile_poly", lambda p: compiled.append(p) or compile_poly(p))

        def candidate(t):
            calls.append(t)
            return evaluate(t)

        assert encode(cp_to_polynomial(CandidateFunction("spy", candidate), 3)) == encode(poly)
        assert compiled == [] and calls == list("abc") + list(iter_universe(3))

    @pytest.mark.parametrize("bound", [1, 3])
    def test_deep_polynomial_evaluates_fn_on_the_letters_alone(self, bound):
        # past 200 leaves the universe's words go through word_fn, so fn is called on
        # the 3 letters of synthesis alone, not on the 3 or 66 trees verified
        poly = comb(1_200, bottom="x")
        func, calls = poly_function(poly), []

        def spy(t):
            calls.append(t)
            return func.fn(t)

        assert encode(cp_to_polynomial(replace(func, fn=spy), bound)) == encode(poly)
        assert calls == list("abc")

    def test_deep_refusal_reads_back_the_failing_tree(self):
        # a candidate wrong at one tree of U_3 fails at that tree's word, which is parsed back
        # as the input; the witness pairs the polynomial's image of it with the candidate's
        evaluate, wrong = compile_poly(comb(1_200, bottom="x")), parse_tree("<<a*b>*c>")
        func = CandidateFunction("wrong-once", lambda t: evaluate("a") if t == wrong else evaluate(t))
        with pytest.raises(NotCP) as info:
            cp_to_polynomial(func, 3)
        assert info.value.stage == "verification" and info.value.at_input == wrong
        assert list(map(encode, info.value.witness)) == [encode(evaluate(wrong)), encode(evaluate("a"))]

    def test_deep_constant_encodes_only_the_letters_images(self, monkeypatch):
        # a constant's word map returns its word, so the deep encodings are those of
        # synthesis and of the polynomial, whatever the bound
        calls = []
        encode_deep = trees._encode_deep

        def spy(t):
            calls.append(t)
            return encode_deep(t)

        monkeypatch.setattr(trees, "_encode_deep", spy)
        func = constant_function(comb(1_200))

        def deep_encodings(bound):
            calls.clear()
            assert cp_to_polynomial(func, bound) is func("a")
            return len(calls)

        assert deep_encodings(1) == deep_encodings(3)  # 3 trees and 66 trees

    def test_deep_constant_copies_verify(self):
        # equal deep images that are distinct objects are compared as words
        copies = {a: comb(1_200) for a in "abc"}
        func = table_function({a: copies[a] for a in "abc"})
        assert encode(cp_to_polynomial(func, 1)) == encode(comb(1_200))

    @pytest.mark.parametrize("bound, cap", [(16, 200_000), (4100, 200_000), (3, 10)])
    def test_verify_bound_is_capped(self, bound, cap):
        # the count is checked before the first tree, so no bound is slow
        with pytest.raises(UniverseTooLarge):
            cp_to_polynomial(identity_function(), bound, cap=cap)
        assert cp_to_polynomial(identity_function(), 3, cap=66) == "x"

    def test_agreement_on_letters_forces_agreement_everywhere(self):
        rng = Random(3)
        u4 = Universe(4).trees
        for _ in range(20):
            first = random_tree(rng, ("a", "b", "c", "x"), 5)
            table = {a: compile_poly(first)(a) for a in "abc"}
            second = synthesize(table)
            f1, f2 = compile_poly(first), compile_poly(second)
            assert all(f1(t) == f2(t) for t in u4)


class TestFunctionFromSpec:
    def test_builtins(self):
        assert function_from_spec("identity")("a") == "a"
        assert function_from_spec("mirror")(parse_tree("<a*b>")) == parse_tree("<b*a>")
        assert function_from_spec("recolor:c")(parse_tree("<a*b>")) == parse_tree("<c*c>")
        assert function_from_spec("const:<a*b>")("c") == parse_tree("<a*b>")
        assert function_from_spec("poly:<x*c>")("a") == parse_tree("<a*c>")

    def test_table_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("a b\nb c\nc a\n")
        func = function_from_spec(f"table:{path}")
        assert func("a") == "b"
        with pytest.raises(EvaluationFailure):
            func(parse_tree("<a*b>"))

    def test_table_file_words(self, tmp_path):
        # keyed by the words, so both maps raise on the same word
        path = tmp_path / "table.txt"
        path.write_text("a <b*c>\n<a*b> c\n")
        func = function_from_spec(f"table:{path}")
        assert (func.word_fn("a"), func.word_fn("<a*b>")) == ("<b*c>", "c")
        assert func(parse_tree("<a*b>")) == "c"
        for call, arg in ((func.word_fn, "<b*a>"), (func, parse_tree("<b*a>"))):
            with pytest.raises(EvaluationFailure) as raised:
                call(arg)
            assert raised.value.witness == {"tree": "<b*a>"}

    def test_table_file_bad_line(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("a b c\n")
        with pytest.raises(MalformedTable, match="table.txt:1: expected 'TREE TREE'"):
            function_from_spec(f"table:{path}")

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            function_from_spec("nonsense")
