"""Polynomial evaluation, synthesis, and congruence-preservation checks."""

import inspect
import itertools
import json
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from treealg import (
    Alphabet,
    AlphabetTooSmall,
    CandidateFunction,
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
    constant_function,
    cp_evidence,
    cp_to_polynomial,
    encode,
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
from treealg import morphisms, polynomials
from treealg.errors import UnknownLetter
from treealg.trees import VARIABLE, _require_cover, _scan

from helpers import comb

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
        # past the parser's 200 nested parentheses the function grafts instead
        poly = comb(depth + 1, left, bottom="x")
        t = parse_tree("<a*<b*c>>")
        assert encode(compile_poly(poly)(t)) == encode(poly).replace("x", "<a*<b*c>>")

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
        assert all(report.stats[key] >= 0 for key in ("images_s", "kernels_s", "checks_s"))
        assert "stats" not in report.as_json()

    def test_failing_candidate_checks_fewer_than_it_moves(self):
        report = cp_evidence(mirror_function(), 4)
        by_name = {t.name: t for t in report.tests}
        assert not by_name["grafting-kernels"].passed
        assert by_name["grafting-kernels"].checked < report.stats["moved"]

    def test_no_grafting_of_trees(self, monkeypatch):
        # the checks run on encodings; graft itself is never called
        def refuse(*args):
            raise AssertionError("graft called")

        monkeypatch.setattr(morphisms, "graft", refuse)
        monkeypatch.setattr(polynomials, "_graft_deep", refuse)
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
        # tree's word for x, so only the candidate grafts: 3 letters, then 66 trees
        poly = comb(1_200, bottom="x")
        calls = []
        graft_deep = polynomials._graft_deep

        def spy(*args):
            calls.append(args[1])
            return graft_deep(*args)

        monkeypatch.setattr(polynomials, "_graft_deep", spy)
        assert encode(cp_to_polynomial(poly_function(poly), 3)) == encode(poly)
        assert calls == list("abc") + list(iter_universe(3))

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

    def test_table_file_bad_line(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("a b c\n")
        with pytest.raises(MalformedTable, match="table.txt:1: expected 'TREE TREE'"):
            function_from_spec(f"table:{path}")

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            function_from_spec("nonsense")
