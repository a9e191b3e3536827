"""Polynomial evaluation, synthesis, and congruence-preservation checks."""

import itertools
import json
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
    MalformedTable,
    NotCP,
    Universe,
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
    leaf_count,
    mirror,
    mirror_function,
    parse_tree,
    poly_function,
    random_tree,
    recolor_function,
    synthesize,
    table_function,
)
from treealg import morphisms, polynomials

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
        monkeypatch.setattr(polynomials, "graft", refuse)
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
