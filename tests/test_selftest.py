"""Every FAIL branch of the ``selftest`` criteria, reached by a planted fault.

Each test replaces one name that a criterion calls in ``treealg.selftest``
by a copy that is wrong on chosen inputs, runs that one criterion, and
checks that it fails with the exact detail, naming the first counterexample
in the criterion's own order.  Where two faults are planted, the detail
names the one that order reaches first.  Criteria 2 and 3 read the shared
universe sweep, which runs here over ``U_3`` instead of ``U_8``.
"""

from types import SimpleNamespace

import pytest

from treealg import selftest
from treealg.errors import HypothesesViolated, LengthMismatch
from treealg.trees import encode, iter_universe, parse_tree
from treealg.words import WordHypothesisCheck


def run(number):
    result = selftest.CRITERIA[number - 1](selftest._Context(0))
    assert result.number == number
    return result


def plant(monkeypatch, name, wrong_on, value):
    """Make ``selftest.<name>`` return ``value`` on the arguments ``wrong_on`` accepts."""
    real = getattr(selftest, name)
    monkeypatch.setattr(selftest, name, lambda *args: value if wrong_on(*args) else real(*args))


@pytest.fixture
def small_sweep(monkeypatch):
    monkeypatch.setattr(selftest, "iter_universe", lambda max_leaves, alphabet, cap: iter_universe(3, alphabet))


def polynomials(*texts):
    return {parse_tree(text, variable=True) for text in texts}


def test_figure_fixture(monkeypatch):
    plant(monkeypatch, "foliage", lambda t: True, "bca")
    result = run(1)
    assert result.passed is False
    assert result.detail == "reference trees: shared leaf word, distinct shapes, exact round-trips"


# The pairs' trees have four leaves or more, so the faults miss the sweep.
@pytest.mark.parametrize("faults, detail", [
    ({"erase_letters": {"<<a*b>*<c*a>>"}}, "shape law broke at (<a*b>, <c*a>)"),
    ({"erase_shapes": {"<<a*b>*<c*a>>"}}, "leaf-word law broke at (<a*b>, <c*a>)"),
    # the first broken pair wins; on one pair, the shape law is checked first
    ({"erase_letters": {"<<a*b>*<c*c>>"}, "erase_shapes": {"<b*<a*<b*c>>>"}},
     "leaf-word law broke at (b, <a*<b*c>>)"),
    ({"erase_letters": {"<b*<a*<b*c>>>"}, "erase_shapes": {"<b*<a*<b*c>>>"}}, "shape law broke at (b, <a*<b*c>>)"),
])
def test_product_laws_pairing(monkeypatch, small_sweep, faults, detail):
    for name, words in faults.items():
        plant(monkeypatch, name, lambda word, words=words: word in words, "*")
    result = run(2)
    assert result.passed is False
    assert result.detail == detail


def test_product_laws_length(monkeypatch, small_sweep):
    # the sweep rebuilds each tree from its erasures, so rebuild must accept the planted shape
    plant(monkeypatch, "erase_letters", lambda word: word == "b", "*")
    plant(monkeypatch, "rebuild", lambda leaves, shape, alphabet: shape == "*", "b")
    result = run(2)
    assert result.passed is False
    assert result.detail == "length law broke at b"


@pytest.mark.parametrize("name, detail", [
    ("rebuild", "rebuild round-trip broke at <a*b>"),
    ("parse_tree", "parse round-trip broke at <a*b>"),
])
def test_rebuild_roundtrip_witness(monkeypatch, small_sweep, name, detail):
    if name == "rebuild":
        plant(monkeypatch, name, lambda leaves, shape, alphabet: (leaves, shape) == ("ab", "<*>"), "c")
    else:
        plant(monkeypatch, name, lambda word, alphabet: word == "<a*b>", "c")
    result = run(3)
    assert result.passed is False
    assert result.detail == detail


def test_rebuild_roundtrip_rejections(monkeypatch, small_sweep):
    real = selftest.rebuild

    def lenient(leaves, shape, alphabet):
        try:
            return real(leaves, shape, alphabet)
        except LengthMismatch:
            return None

    monkeypatch.setattr(selftest, "rebuild", lenient)
    result = run(3)
    assert result.passed is False
    assert result.detail == "only 0/100 pairs rejected"


def test_graft_foliage_diagram(monkeypatch):
    broken = {("b", "<a*c>", "<c*b>"), ("b", "<a*c>", "<<a*b>*c>"), ("c", "a", "a")}
    plant(monkeypatch, "commute_check",
          lambda g, t: (g.source, encode(g.replacement), encode(t)) in broken, False)
    result = run(4)
    assert result.passed is False
    assert result.detail == "diagram broke at b-><a*c> on <c*b>"


def test_idempotence(monkeypatch):
    real = selftest.is_idempotent
    broken = {("b", "<a*<b*c>>"), ("c", "<a*b>")}
    monkeypatch.setattr(selftest, "is_idempotent",
                        lambda g: real(g) != ((g.source, encode(g.replacement)) in broken))
    result = run(5)
    assert result.passed is False
    assert result.detail == "criterion disagrees at b-><a*<b*c>>"


def test_two_grafting_injectivity(monkeypatch):
    # Under a->a, <c*c> joins the class of a and <a*a> the class of b; b->a
    # then merges both pairs.  <a*a> comes first in U_4, but the class of a
    # comes first, and the criterion searches class by class.
    real = selftest.graft
    moved = {parse_tree("<c*c>"): "a", parse_tree("<a*a>"): "b"}
    monkeypatch.setattr(selftest, "graft",
                        lambda g, t: real(g, moved.get(t, t) if g.replacement == "a" else t))
    result = run(6)
    assert result.passed is False
    assert result.detail == "(a, <c*c>) collapses under both a->a and b->..."


def test_closure_partition_fixture(monkeypatch):
    real = selftest.bounded_closure
    monkeypatch.setattr(selftest, "bounded_closure",
                        lambda pairs, bound, alphabet: real([("a", "c")] if bound == 2 else pairs, bound, alphabet))
    result = run(7)
    assert result.passed is False
    assert result.detail == (
        'partition fixture mismatch: {"universe_size":12,"classes":[["a","c"],["b"],'
        '["<a*a>","<a*c>","<c*a>","<c*c>"],["<a*b>","<c*b>"],["<b*a>","<b*c>"],["<b*b>"]]}'
    )


@pytest.mark.parametrize("name, detail", [
    ("skeleton", "kernel skeleton splits class of <a*a>"),
    ("graft", "kernel a->b splits class of <a*a>"),
])
def test_closure_partition_kernel(monkeypatch, name, detail):
    if name == "skeleton":
        plant(monkeypatch, name, lambda t: t == ("b", "b"), "!")
    else:
        plant(monkeypatch, name, lambda g, t: (g.source, g.replacement, t) == ("a", "b", ("b", "b")), "!")
    result = run(7)
    assert result.passed is False
    assert result.detail == detail


def test_closure_partition_monotone(monkeypatch):
    real = selftest.bounded_closure
    monkeypatch.setattr(selftest, "bounded_closure",
                        lambda pairs, bound, alphabet: real([("a", "c")] if bound == 4 else pairs, bound, alphabet))
    result = run(7)
    assert result.passed is False
    assert result.detail == "monotonicity broke: a ~ b lost at bound 4"


def test_synthesis_roundtrip(monkeypatch):
    real = selftest.synthesize
    broken = polynomials("<x*<a*x>>", "<b*x>")
    monkeypatch.setattr(selftest, "synthesize",
                        lambda table, alphabet: "a" if real(table, alphabet) in broken else real(table, alphabet))
    result = run(8)
    assert result.passed is False
    assert result.detail == "recovery failed for <b*x>"


def raise_word_witness(table, alphabet):
    raise HypothesesViolated(WordHypothesisCheck(False, failure="substitution-compatibility", pair=("a", "b"),
                                                 position=0))


@pytest.mark.parametrize("patches, detail", [
    ({"check_hypotheses": lambda table, alphabet: SimpleNamespace(ok=True, failure=None, pair=None)},
     "skeleton-mismatch case; compatibility case"),
    ({"synthesize": lambda table, alphabet: "a", "synthesize_word": lambda table, alphabet: "a"},
     "skeleton-mismatch not raised; word case not raised"),
    ({"synthesize_word": raise_word_witness}, "word witness was ('a', 'b')@0"),
])
def test_synthesis_negatives(monkeypatch, patches, detail):
    for name, value in patches.items():
        monkeypatch.setattr(selftest, name, value)
    result = run(9)
    assert result.passed is False
    assert result.detail == detail


def test_cp_evidence(monkeypatch):
    report = SimpleNamespace(passed=False, tests=[SimpleNamespace(name="idempotent-grafting", passed=True)],
                             witness_pair=lambda: ["a", "b"])
    monkeypatch.setattr(selftest, "cp_evidence", lambda func, bound, alphabet, seed: report)
    monkeypatch.setattr(selftest, "is_idempotent", lambda g: False)
    monkeypatch.setattr(selftest, "cp_to_polynomial", lambda func, bound, alphabet: "a")
    result = run(10)
    assert result.passed is False
    assert result.detail == (
        "mirror not caught by the idempotent-grafting identity; documented mirror witness did not check out; "
        "mirror produced a polynomial; identity failed ['a', 'b']"
    )


def test_generator_agreement(monkeypatch):
    real = selftest.synthesize
    monkeypatch.setattr(selftest, "synthesize", lambda table, alphabet: (real(table, alphabet), "a"))
    result = run(11)
    assert result.passed is False
    assert result.detail == "<x*<<<a*<c*x>>*x>*<c*x>>> vs <<x*<<<a*<c*x>>*x>*<c*x>>>*a> at a"


def test_word_variant_loop(monkeypatch):
    real = selftest.synthesize_word
    monkeypatch.setattr(selftest, "synthesize_word",
                        lambda table, alphabet: "c" if real(table, alphabet) in ("xab", "cx") else real(table, alphabet))
    result = run(12)
    assert result.passed is False
    assert result.detail == "recovery failed for cx"


def test_word_variant_xc_example(monkeypatch):
    # The loop meets the example's table once, as the images of xc; the second time is the example
    real, seen = selftest.synthesize_word, []

    def second_time_wrong(table, alphabet):
        if table == {"a": "ac", "b": "bc", "c": "cc"}:
            seen.append(table)
            if len(seen) == 2:
                return "xa"
        return real(table, alphabet)

    monkeypatch.setattr(selftest, "synthesize_word", second_time_wrong)
    result = run(12)
    assert result.passed is False
    assert result.detail == "recovery failed for xc example"
