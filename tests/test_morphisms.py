"""Graftings, substitutions, text projections, and their kernel congruences."""

import itertools
from functools import partial
from random import Random

import pytest
from hypothesis import given, strategies as st

from treealg import (
    Grafting,
    Universe,
    WordSubstitution,
    commute_check,
    encode,
    erase_letters,
    erase_shapes,
    foliage,
    graft,
    is_idempotent,
    iter_universe,
    parse_tree,
    recolor,
    skeleton,
    substitute,
)
from treealg.morphisms import _graft
from treealg.trees import _fold_deep

from helpers import comb, positions

letters = st.sampled_from("abc")
trees = st.recursive(letters, lambda ch: st.tuples(ch, ch), max_leaves=15)
words = st.text(alphabet="abc", max_size=12)
texts = st.text(alphabet="abc<*>", max_size=12)
graftings = st.builds(Grafting, letters, trees)


class TestGraft:
    def test_matching_leaf(self):
        g = Grafting("a", parse_tree("<b*c>"))
        assert graft(g, "a") == parse_tree("<b*c>")

    def test_other_leaf(self):
        g = Grafting("a", parse_tree("<b*c>"))
        assert graft(g, "b") == "b"

    def test_inside_tree(self):
        g = Grafting("a", parse_tree("<b*c>"))
        assert encode(graft(g, parse_tree("<a*b>"))) == "<<b*c>*b>"

    @given(graftings, trees, trees)
    def test_commutes_with_pairing(self, g, t, t2):
        assert graft(g, (t, t2)) == (graft(g, t), graft(g, t2))

    @given(graftings, trees)
    def test_word_level_rewrite_oracle(self, g, t):
        # grafting acts on encodings as plain text replacement of the letter
        assert encode(graft(g, t)) == encode(t).replace(g.source, encode(g.replacement))

    def test_source_must_be_letter(self):
        with pytest.raises(ValueError):
            Grafting("<", "a")
        with pytest.raises(ValueError):
            Grafting("ab", "a")


def graft_reference(g, t):
    """The plain recursive graft, an oracle for the fast path and its fallback."""
    if isinstance(t, str):
        return g.replacement if t == g.source else t
    left, right = t
    new_left = graft_reference(g, left)
    new_right = graft_reference(g, right)
    if new_left is left and new_right is right:
        return t
    return (new_left, new_right)


def graft_deep(g, t):
    """:func:`graft` through the iterative fold it falls back to on deep trees."""
    return _fold_deep(
        t,
        partial(_graft, g.source, g.replacement),
        lambda node, left, right: node if left is node[0] and right is node[1] else (left, right),
    )


class TestGraftWalkers:
    @pytest.mark.parametrize("replacement", ["b", "<b*c>", "<a*<a*b>>"])
    def test_both_walkers_match_the_recursive_reference(self, replacement):
        trees_6 = Universe(6).trees
        for source in "abc":
            g = Grafting(source, parse_tree(replacement))
            for t in trees_6:
                expected = graft_reference(g, t)
                for image in (graft(g, t), _graft(source, g.replacement, t), graft_deep(g, t)):
                    assert image == expected and (image is t) == (expected is t)

    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_combs_past_the_recursion_limit(self, left):
        t = comb(100_000, left)
        word = encode(t)
        for walk in (graft, graft_deep):
            assert encode(walk(Grafting("a", ("b", "c")), t)) == word.replace("a", "<b*c>")
            # no leaf carries d, so the comb itself comes back
            assert walk(Grafting("d", "a"), t) is t


class TestCommutingLaw:
    # grafting a -> r acts on encodings as replacing the letter a by the encoding of r
    def test_every_small_tree_and_replacement(self):
        u4 = Universe(4).trees
        for r in iter_universe(3):
            word = encode(r)
            for t in u4:
                for a in "abc":
                    assert encode(graft(Grafting(a, r), t)) == encode(t).replace(a, word)

    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    @pytest.mark.parametrize("replacement", ["c", "<b*c>", "<a*<a*b>>"])
    def test_combs_past_the_recursion_limit(self, left, replacement):
        t = comb(100_000, left)
        g = Grafting("a", parse_tree(replacement))
        assert encode(graft(g, t)) == encode(t).replace("a", replacement)


class TestSubstitute:
    def test_expansion(self):
        assert substitute(WordSubstitution("a", "bc"), "aba") == "bcbbc"

    def test_no_occurrence(self):
        assert substitute(WordSubstitution("a", "bc"), "bbb") == "bbb"

    def test_single_letter(self):
        assert substitute(WordSubstitution("a", "c"), "ab") == "cb"

    def test_empty_replacement(self):
        assert substitute(WordSubstitution("a", ""), "aba") == "b"

    @given(words, st.text(alphabet="bc", max_size=5))
    def test_length_law(self, w, u):
        result = substitute(WordSubstitution("a", u), w)
        assert len(result) == len(w) + w.count("a") * (len(u) - 1)


class TestProject:
    def test_letter_projection(self):
        assert erase_shapes("<<a*c>*b>") == "acb"

    def test_shape_projection(self):
        assert erase_letters("<<a*c>*b>") == "<<*>*>"

    @given(texts)
    def test_idempotent(self, w):
        assert erase_letters(erase_letters(w)) == erase_letters(w)
        assert erase_shapes(erase_shapes(w)) == erase_shapes(w)

    @given(trees)
    def test_matches_skeleton_and_foliage(self, t):
        assert erase_shapes(encode(t)) == foliage(t)
        assert erase_letters(encode(t)) == skeleton(t)


class TestKernels:
    def test_figure_pair(self):
        t, t2 = parse_tree("<<a*c>*b>"), parse_tree("<a*<c*b>>")
        assert skeleton(t) != skeleton(t2)
        assert foliage(t) == foliage(t2)

    def test_collapsing_grafting(self):
        g = Grafting("a", "b")
        assert graft(g, "a") == graft(g, "b")

    def test_kernels_are_compatible_on_u3(self):
        # image of a pairing depends only on the images of the parts
        u3 = Universe(3).trees
        g = Grafting("a", parse_tree("<b*c>"))
        kernels = [skeleton, foliage, lambda t: graft(g, t)]
        for h in kernels:
            image_class = {}
            for t in u3:
                image_class.setdefault(h(t), len(image_class))
            seen = {}
            for t in u3:
                for t2 in u3:
                    key = (image_class[h(t)], image_class[h(t2)])
                    value = h((t, t2))
                    if key in seen:
                        assert seen[key] == value
                    else:
                        seen[key] = value
        # the same law for class numbers read off the universe, on pairings inside it
        universe = Universe(3)
        moved = universe.kernel({"a": g.replacement, "b": "b", "c": "c"})
        first = [moved.get(i, i) for i in range(len(universe.trees))]
        position = positions(universe)
        seen = {}
        for t, t2 in itertools.product(u3, repeat=2):
            pair = position.get((t, t2))
            if pair is not None:
                key = (first[position[t]], first[position[t2]])
                assert seen.setdefault(key, first[pair]) == first[pair]

    def test_kernels_are_equivalences(self):
        u5 = Universe(5, cap=None).trees
        for t in u5:
            assert skeleton(t) == skeleton(t)
        rng = Random(0)
        for _ in range(1000):
            t, t2, t3 = (rng.choice(u5) for _ in range(3))
            assert (foliage(t) == foliage(t2)) == (foliage(t2) == foliage(t))
            if skeleton(t) == skeleton(t2) and skeleton(t2) == skeleton(t3):
                assert skeleton(t) == skeleton(t3)


class TestIdempotence:
    def test_fresh_replacement(self):
        assert is_idempotent(Grafting("a", parse_tree("<b*c>")))

    def test_source_occurs(self):
        assert not is_idempotent(Grafting("a", parse_tree("<a*b>")))

    def test_identity_grafting_rejected_by_letter_test(self):
        # the map is the identity, but the letter criterion still says no
        assert not is_idempotent(Grafting("a", "a"))

    def test_criterion_matches_behaviour_on_u3(self):
        u3 = Universe(3).trees
        for a in "abc":
            for replacement in u3:
                if replacement == a:
                    continue
                g = Grafting(a, replacement)
                functional = all(graft(g, graft(g, t)) == graft(g, t) for t in u3)
                assert is_idempotent(g) == functional


class TestCommuteCheck:
    def test_worked_example(self):
        g = Grafting("a", parse_tree("<b*c>"))
        t = parse_tree("<a*b>")
        assert foliage(graft(g, t)) == "bcb"
        assert substitute(WordSubstitution("a", "bc"), foliage(t)) == "bcb"
        assert commute_check(g, t)

    def test_unrelated_leaf(self):
        assert commute_check(Grafting("a", parse_tree("<b*c>")), "c")

    def test_source_leaf(self):
        assert commute_check(Grafting("a", parse_tree("<b*c>")), "a")

    def test_exhaustive_small(self):
        u2 = Universe(2).trees
        for a in "abc":
            for replacement in u2:
                g = Grafting(a, replacement)
                assert all(commute_check(g, t) for t in u2)

    def test_thousand_random_samples(self):
        from treealg import random_tree

        rng = Random(0)
        for _ in range(1000):
            g = Grafting(rng.choice("abc"), random_tree(rng, ("a", "b", "c"), 5))
            assert commute_check(g, random_tree(rng, ("a", "b", "c"), 6))


class TestTwoGraftingInjectivity:
    def test_small_exhaustive(self):
        u3 = Universe(3).trees
        u2 = Universe(2).trees
        for a, b in itertools.combinations("abc", 2):
            for replacement in u2:
                ga, gb = Grafting(a, replacement), Grafting(b, replacement)
                groups = {}
                for t in u3:
                    groups.setdefault(graft(ga, t), []).append(t)
                for members in groups.values():
                    images = [graft(gb, t) for t in members]
                    assert len(set(images)) == len(images)


class TestRecolor:
    def test_example(self):
        assert encode(recolor(parse_tree("<a*b>"), "c")) == "<c*c>"

    @given(trees)
    def test_only_target_letter_remains(self, t):
        assert set(foliage(recolor(t, "b"))) == {"b"}

    @given(trees)
    def test_preserves_shape(self, t):
        assert skeleton(recolor(t, "a")) == skeleton(t)

    def test_target_must_be_in_alphabet(self):
        with pytest.raises(ValueError):
            recolor("a", "z")
