"""Trees: parsing, encoding, projections, rebuild, enumeration."""

import dataclasses
import itertools
import sys
import tracemalloc
from random import Random

import pytest
from hypothesis import given, strategies as st

from treealg import (
    Alphabet,
    Grafting,
    LengthMismatch,
    MalformedSkeleton,
    MalformedTree,
    TreeAlgebraError,
    Universe,
    UniverseTooLarge,
    UnknownLetter,
    cp_evidence,
    encode,
    erase_letters,
    erase_shapes,
    foliage,
    function_from_spec,
    graft,
    iter_polynomials,
    iter_universe,
    leaf_count,
    mirror,
    parse_tree,
    random_tree,
    rebuild,
    skeleton,
    universe_size,
)
from treealg import morphisms, polynomials, trees as trees_module
from treealg.trees import UNICODE_SHAPES, VARIABLE, _encode_deep, _fold_deep, _mirror, _shapes

from helpers import (
    child_positions,
    comb,
    crossing_tables,
    dense_kernel,
    graft_deep,
    oracle_grafting,
    positions,
    recursive_universe,
    sparse_of,
)

ABC = Alphabet.from_string("abc")
ODD = Alphabet(("'", "(", ",", " "))

letters = st.sampled_from("abc")
trees = st.recursive(letters, lambda ch: st.tuples(ch, ch), max_leaves=25)


def skeleton_oracle(t):
    # independent recursive definition, against the projection-based path
    if isinstance(t, str):
        return ""
    return "<" + skeleton_oracle(t[0]) + "*" + skeleton_oracle(t[1]) + ">"


def foliage_oracle(t):
    if isinstance(t, str):
        return t
    return foliage_oracle(t[0]) + foliage_oracle(t[1])


def rebuild_oracle(u, s):
    """Split-based reconstruction: find the top-level separator by bracket
    balance, divide the leaf word by the sub-skeleton length, recurse."""
    if s == "":
        assert len(u) == 1
        return u
    assert s[0] == "<" and s[-1] == ">"
    depth = 0
    for i in range(1, len(s) - 1):
        if s[i] == "<":
            depth += 1
        elif s[i] == ">":
            depth -= 1
        elif s[i] == "*" and depth == 0:
            s1, s2 = s[1:i], s[i + 1 : -1]
            k = len(s1) // 3 + 1
            return (rebuild_oracle(u[:k], s1), rebuild_oracle(u[k:], s2))
    raise AssertionError("no top-level separator")


def parse_oracle(text, alphabet=ABC, variable=False):
    """The recursive-descent parser that preceded the pushdown scanner."""
    allowed = set(alphabet.symbols)
    if variable:
        allowed.add("x")
    pos = 0

    def node():
        nonlocal pos
        if pos >= len(text):
            raise MalformedTree(text, pos, "unexpected end of input")
        ch = text[pos]
        if ch == "<":
            pos += 1
            left = node()
            if pos >= len(text) or text[pos] != "*":
                raise MalformedTree(text, pos, "expected '*'")
            pos += 1
            right = node()
            if pos >= len(text) or text[pos] != ">":
                raise MalformedTree(text, pos, "expected '>'")
            pos += 1
            return (left, right)
        if ch in allowed:
            pos += 1
            return ch
        raise MalformedTree(text, pos, f"unexpected {ch!r}")

    tree = node()
    if pos != len(text):
        raise MalformedTree(text, pos, "trailing input")
    return tree


def parse_outcome(parse, text, **kwargs):
    try:
        return parse(text, **kwargs)
    except MalformedTree as exc:
        return str(exc), exc.payload()


def comb_word(leaves, left):
    """Encoding of ``comb(leaves, left)``, written out directly."""
    labels = ["abc"[i % 3] for i in range(leaves - 1)]
    if left:
        return "<" * (leaves - 1) + "a" + "".join(f"*{c}>" for c in labels)
    return "".join(f"<{c}*" for c in reversed(labels)) + "a" + ">" * (leaves - 1)


def iterative_views(t):
    """Encoding, skeleton and foliage through the kept iterative walker."""
    word = _encode_deep(t)
    return word, erase_letters(word), erase_shapes(word)


def mirror_deep(t):
    """:func:`mirror` through the iterative fold it falls back to on deep trees."""
    return _fold_deep(t, lambda a: a, lambda node, left, right: (right, left))


class Letter(str):
    """A str subclass: the folds test a leaf by isinstance, and `type(t) is str` would unpack it as a pair."""


def lettered_at(t, k):
    """``t`` with its ``k``-th leaf, left to right, a :class:`Letter`."""
    leaves = iter([Letter(a) if i == k else a for i, a in enumerate(foliage(t))])
    return _fold_deep(t, lambda a: next(leaves), lambda node, left, right: (left, right))


@pytest.fixture
def fallbacks(monkeypatch):
    """The fallback walkers' calls, as ``(walker, tree)``, with every walker still doing its work."""
    calls = []

    def spy(module, name):
        walker = getattr(module, name)

        def wrapped(t, *args):
            calls.append((f"{module.__name__}.{name}", t))
            return walker(t, *args)

        monkeypatch.setattr(module, name, wrapped)

    spy(trees_module, "_encode_deep")
    spy(trees_module, "_fold_deep")  # mirror's
    spy(morphisms, "_fold_deep")  # graft's
    return calls


def near_recursion_limit(fn, spare=20):
    """Call ``fn()`` from a stack about ``spare`` frames short of the recursion limit."""

    def headroom(n):
        try:
            return headroom(n + 1)
        except RecursionError:
            return n

    def descend(n):
        return fn() if n == 0 else descend(n - 1)

    return descend(headroom(0) - spare)


def random_tree_reference(rng, letters, max_leaves):
    """Random tree drawn like :func:`random_tree`, its shape labeled by a recursive fill."""
    n = rng.randint(1, max_leaves)
    shape = rng.choice(_shapes(n))
    labels = iter([rng.choice(letters) for _ in range(n)])

    def fill(sh):
        return next(labels) if sh == "" else (fill(sh[0]), fill(sh[1]))

    return fill(shape)


def count_oracle(n, k, _memo={}):
    if (n, k) in _memo:
        return _memo[n, k]
    if n == 1:
        return k
    total = sum(count_oracle(i, k) * count_oracle(n - i, k) for i in range(1, n))
    _memo[n, k] = total
    return total


class TestFigureTrees:
    def test_left_tree(self):
        t = parse_tree("<<a*c>*b>")
        assert encode(t) == "<<a*c>*b>"
        assert skeleton(t) == "<<*>*>"
        assert foliage(t) == "acb"

    def test_right_tree(self):
        t = parse_tree("<a*<c*b>>")
        assert encode(t) == "<a*<c*b>>"
        assert skeleton(t) == "<*<*>>"
        assert foliage(t) == "acb"

    def test_same_leaf_word_distinct_shapes(self):
        t, t2 = parse_tree("<<a*c>*b>"), parse_tree("<a*<c*b>>")
        assert foliage(t) == foliage(t2)
        assert skeleton(t) != skeleton(t2)


class TestStar:
    # the pairing operation is the tuple (t, t2)
    def test_pair_of_leaves(self):
        assert encode(("a", "b")) == "<a*b>"

    def test_left_nested(self):
        assert encode((("a", "c"), "b")) == "<<a*c>*b>"

    def test_right_nested(self):
        assert encode(("a", ("c", "b"))) == "<a*<c*b>>"


class TestParse:
    def test_single_letter(self):
        assert parse_tree("a") == "a"

    @pytest.mark.parametrize("bad", ["<a*b", "", "ab", "<a*b>>", "<a+b>", "d", "<a*>"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedTree):
            parse_tree(bad)

    def test_variable_rejected_in_plain_context(self):
        with pytest.raises(MalformedTree):
            parse_tree("<a*x>")

    def test_variable_accepted_when_asked(self):
        assert parse_tree("<a*x>", variable=True) == ("a", "x")

    @given(trees)
    def test_roundtrip(self, t):
        assert parse_tree(encode(t)) == t

    @pytest.mark.parametrize("chars, variable", [("a<*>d", False), ("a<*>x", True)])
    def test_matches_recursive_descent_oracle(self, chars, variable):
        # every word of up to 7 characters: same tree, or same message and payload
        for length in range(8):
            for word in map("".join, itertools.product(chars, repeat=length)):
                expected = parse_outcome(parse_oracle, word, variable=variable)
                assert parse_outcome(parse_tree, word, variable=variable) == expected, word


class TestDeepTrees:
    # Tuple == recurses, so deep trees are compared through encode.
    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_views_accept_any_depth(self, left):
        t = comb(100_000, left)
        word = comb_word(100_000, left)
        expected = (word, erase_letters(word), erase_shapes(word))
        assert (encode(t), skeleton(t), foliage(t)) == iterative_views(t) == expected
        assert encode(parse_tree(word)) == word
        assert encode(rebuild(foliage(t), skeleton(t))) == word

    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_mirror_accepts_any_depth(self, left):
        # oracle without recursion: mirroring reverses the word and swaps the brackets
        t = comb(100_000, left)
        word = comb_word(100_000, left)
        mirrored = word[::-1].translate(str.maketrans("<>", "><"))
        assert encode(mirror(t)) == encode(mirror_deep(t)) == mirrored
        assert encode(mirror(mirror(t))) == word

    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    @pytest.mark.parametrize("bad", [7, ["a", "b"], ("a", "b", "c")], ids=["int", "list", "triple"])
    def test_non_tree_deep_down(self, left, bad):
        # the fold gives None; mirror and graft, past their recursion, raise TypeError
        t = bad
        for i in range(100_000):
            t = (t, "abc"[i % 3]) if left else ("abc"[i % 3], t)
        assert _fold_deep(t, lambda a: 1, lambda node, l, r: l + r) is None
        with pytest.raises(TypeError):
            mirror(t)
        with pytest.raises(TypeError):
            graft(Grafting("a", ("b", "c")), t)

    def test_fold_stops_at_the_first_none(self):
        t = ((("a", "b"), "c"), ("c", ("a", "a")))
        pairs, leaves = [], []

        def pair(node, left, right):
            pairs.append(node)
            return None if node == ("a", "b") else (left, right)

        def leaf(a):
            leaves.append(a)
            return None if a == "c" else a

        assert _fold_deep(t, lambda a: a, pair) is None and pairs == [("a", "b")]
        assert _fold_deep(t, leaf, lambda node, l, r: node) is None and leaves == ["a", "b", "c"]
        assert _fold_deep(t, lambda a: 0, lambda node, l, r: 0) == 0  # a fold of 0 is no stop


class TestFastPath:
    # the recursive folds against the iterative walker they fall back to
    @pytest.mark.parametrize("bound, alphabet", [(6, ABC), (4, ODD)], ids=["abc", "odd-letters"])
    def test_views_match_iterative_walker(self, bound, alphabet):
        for t in iter_universe(bound, alphabet):
            assert (encode(t), skeleton(t), foliage(t)) == iterative_views(t)

    def test_fold_matches_recursive_mirror(self):
        for t in iter_universe(6, ABC):
            assert mirror_deep(t) == _mirror(t)

    @pytest.mark.parametrize("sample", ["small", "left-comb", "right-comb"])
    def test_str_subclass_letter_is_a_letter(self, sample):
        samples = list(iter_universe(4)) if sample == "small" else [comb(100_000, sample == "left-comb")]
        g = Grafting("a", ("b", "c"))
        for t in samples:
            lettered = _fold_deep(t, Letter, lambda node, l, r: (l, r))
            assert (encode(lettered), skeleton(lettered), foliage(lettered)) == (encode(t), skeleton(t), foliage(t))
            assert encode(mirror(lettered)) == encode(mirror(t))
            assert encode(graft(g, lettered)) == encode(graft(g, t))

    def test_str_subclass_letter_at_every_position(self):
        # one Letter at each leaf of every pair of U_5: a frame reads its children and
        # grandchildren in place, and a pair two levels down in a call of its own
        g, keep = Grafting("a", ("b", "c")), Grafting("d", "a")
        for t in Universe(5).trees[3:]:
            for k in range(leaf_count(t)):
                lettered = lettered_at(t, k)
                assert (encode(lettered), skeleton(lettered), foliage(lettered)) == iterative_views(t)
                assert mirror(lettered) == mirror_deep(t)
                assert graft(g, lettered) == graft_deep(g, t)
                assert graft(keep, lettered) is lettered

    def test_fallback_near_the_recursion_limit(self, fallbacks):
        # with 20 frames to spare the folds overflow on 60-leaf combs and fall back
        samples = [comb(60, True), comb(60, False), *iter_universe(2)]
        g = Grafting("a", ("b", "c"))

        def views():
            return [(encode(t), skeleton(t), foliage(t), graft(g, t), mirror(t)) for t in samples]

        limit = sys.getrecursionlimit()
        near_limit = near_recursion_limit(views)
        assert sys.getrecursionlimit() == limit
        assert sorted(name for name, _ in fallbacks) == (
            ["treealg.morphisms._fold_deep"] * 2 + ["treealg.trees._encode_deep"] * 6 + ["treealg.trees._fold_deep"] * 2
        )
        fallbacks.clear()
        assert near_limit == views() and not fallbacks

    def test_combs_straddling_the_fallback_depth(self, fallbacks):
        # a frame folds two pair levels, so with 20 frames to spare the combs of a few
        # dozen pairs fold recursively and the deeper ones fall back; both agree
        samples = [comb(leaves, left) for leaves in range(2, 81) for left in (True, False)]
        g = Grafting("a", ("b", "c"))

        def folds():
            return [(encode(t), skeleton(t), foliage(t), mirror(t), graft(g, t)) for t in samples]

        near_limit = near_recursion_limit(folds)
        # encode, skeleton and foliage each fall back to the encoder; a size is a left and a right comb
        for walker, calls in ("trees._encode_deep", 6), ("trees._fold_deep", 2), ("morphisms._fold_deep", 2):
            fell = sorted(leaf_count(t) for name, t in fallbacks if name == f"treealg.{walker}")
            assert fell, walker
            # every comb as deep as the first that fell back falls back too, and the first sits about
            # two pair levels per spare frame down (36 leaves; a frame per pair level fell back at 19)
            assert fell == [n for n in range(fell[0], 81) for _ in range(calls)] and fell[0] > 30
        assert near_limit == [(*iterative_views(t), mirror_deep(t), graft_deep(g, t)) for t in samples]


class TestProjections:
    @given(trees)
    def test_skeleton_matches_recursive_definition(self, t):
        assert skeleton(t) == skeleton_oracle(t)

    @given(trees)
    def test_foliage_matches_recursive_definition(self, t):
        assert foliage(t) == foliage_oracle(t)

    @given(trees, trees)
    def test_pairing_laws(self, t, t2):
        assert skeleton((t, t2)) == "<" + skeleton(t) + "*" + skeleton(t2) + ">"
        assert foliage((t, t2)) == foliage(t) + foliage(t2)

    @given(trees)
    def test_length_law(self, t):
        assert len(skeleton(t)) == 3 * len(foliage(t)) - 3

    def test_leaf(self):
        assert skeleton("a") == ""
        assert foliage("b") == "b"

    @given(trees)
    def test_skeleton_is_well_formed(self, t):
        # rebuild scans its skeleton, so it accepts exactly the well-formed ones
        assert skeleton(rebuild("a" * leaf_count(t), skeleton(t))) == skeleton(t)


class TestRebuild:
    def test_figure_values(self):
        assert encode(rebuild("acb", "<<*>*>")) == "<<a*c>*b>"
        assert encode(rebuild("acb", "<*<*>>")) == "<a*<c*b>>"

    def test_single_leaf(self):
        assert rebuild("a", "") == "a"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rebuild("ab", "")
        with pytest.raises(LengthMismatch):
            rebuild("a", "<*>")

    def test_unknown_letter(self):
        with pytest.raises(UnknownLetter):
            rebuild("q", "")

    @pytest.mark.parametrize("bad", ["*<>", "><<", "<<**>>", "***"])
    def test_malformed_skeleton(self, bad):
        with pytest.raises(MalformedSkeleton):
            rebuild("a" * (len(bad) // 3 + 1), bad)

    @given(trees)
    def test_roundtrip(self, t):
        assert rebuild(foliage(t), skeleton(t)) == t

    def test_matches_split_oracle_on_u5(self):
        for t in iter_universe(5):
            u, s = foliage(t), skeleton(t)
            assert rebuild(u, s) == rebuild_oracle(u, s) == t

    def test_acceptance_matches_skeleton_set(self):
        # exhaustive over all shape-character words of a skeleton's length up
        # to 12, against the skeletons of every tree with at most 5 leaves
        shapes = {skeleton(t) for t in iter_universe(5, Alphabet.from_string("a"))}
        for length in range(0, 13, 3):
            for s in map("".join, itertools.product("<*>", repeat=length)):
                try:
                    rebuild("a" * (length // 3 + 1), s)
                    accepted = True
                except MalformedSkeleton:
                    accepted = False
                assert accepted == (s in shapes), s


def outcome(fn, *args, **kwargs):
    """The tree ``fn`` returns, or the class, message and payload of its error."""
    try:
        return fn(*args, **kwargs)
    except TreeAlgebraError as exc:
        return type(exc), str(exc), exc.payload()


def scan_only(fn, *args, **kwargs):
    """:func:`outcome` with the shape memos switched off: no word is small enough."""
    saved = trees_module._MEMO_TEXT, trees_module._MEMO_LEAVES
    trees_module._MEMO_TEXT = trees_module._MEMO_LEAVES = -1
    try:
        return outcome(fn, *args, **kwargs)
    finally:
        trees_module._MEMO_TEXT, trees_module._MEMO_LEAVES = saved


@pytest.fixture
def memos(monkeypatch):
    """Fresh, empty shape memos for one test: (parse memo, rebuild memo)."""
    parsed, rebuilt = {}, {}
    monkeypatch.setattr(trees_module, "_PARSED", parsed)
    monkeypatch.setattr(trees_module, "_REBUILT", rebuilt)
    return parsed, rebuilt


class TestShapeMemo:
    # parse_tree and rebuild through their memos, against the scanner alone
    def test_every_shape_up_to_eight_leaves(self, memos):
        a = Alphabet.from_string("a")
        for t in iter_universe(8, a):
            word, u, s = encode(t), foliage(t), skeleton(t)
            for _ in range(2):  # the first call fills the memo, the second reads it
                assert outcome(parse_tree, word, a) == scan_only(parse_tree, word, a) == t
                assert outcome(rebuild, u, s, a) == scan_only(rebuild, u, s, a) == t
        assert [len(memo) for memo in memos] == [626, 626]

    def test_every_bound_six_tree(self, memos):
        for t in iter_universe(6, ABC):
            word, u, s = encode(t), foliage(t), skeleton(t)
            assert outcome(parse_tree, word, ABC) == scan_only(parse_tree, word, ABC) == t
            assert outcome(rebuild, u, s, ABC) == scan_only(rebuild, u, s, ABC) == t

    @pytest.mark.parametrize("letters", ["ab", "ab."])
    @pytest.mark.parametrize("variable", [False, True])
    def test_every_short_word(self, memos, letters, variable):
        # every word of up to 6 characters: same tree, or same error.  Both
        # shapes that fit in 6 characters are in the memo from the start.
        alphabet = Alphabet.from_string(letters)
        for t in iter_universe(2, alphabet):
            parse_tree(encode(t), alphabet)
        assert sorted(memos[0]) == [b".", b"<.*.>"]
        for length in range(7):
            for word in map("".join, itertools.product("<*>ab.x", repeat=length)):
                expected = scan_only(parse_tree, word, alphabet, variable=variable)
                assert outcome(parse_tree, word, alphabet, variable=variable) == expected, word

    @pytest.mark.parametrize("letters", ["ab", "ab."])
    def test_skeleton_like_words(self, memos, letters):
        # every word of up to 6 characters over '<*>.a' as a skeleton, with
        # foliages of the right length and of the wrong one
        alphabet = Alphabet.from_string(letters)
        for t in iter_universe(3, alphabet):
            parse_tree(encode(t), alphabet)  # fill the parse memo with dotted words
        for length in range(7):
            for s in map("".join, itertools.product("<*>.a", repeat=length)):
                n = length // 3 + 1
                for u in ("a" * n, "." * n, "ab" * n):
                    expected = scan_only(rebuild, u, s, alphabet)
                    for _ in range(2):
                        assert outcome(rebuild, u, s, alphabet) == expected, (u, s)

    def test_rebuilt_skeleton_does_not_parse(self, memos):
        expected = scan_only(parse_tree, "<*>")
        assert rebuild("ab", "<*>") == ("a", "b")
        assert outcome(parse_tree, "<*>") == expected
        assert expected[0] is MalformedTree

    def test_dotted_word_is_not_a_skeleton(self, memos):
        assert parse_tree("<<a*b>*a>") == (("a", "b"), "a")
        assert b"<<.*.>*.>" in memos[0]
        with pytest.raises(MalformedSkeleton, match="unexpected '.'"):
            rebuild("abab", "<<.*.>*.>")

    def test_dot_as_letter_and_as_non_letter(self, memos):
        dotted = Alphabet.from_string("ab.")
        plain = Alphabet.from_string("ab")
        assert parse_tree("<.*a>", dotted) == (".", "a")
        assert parse_tree("<a*b>", plain) == ("a", "b")
        assert outcome(parse_tree, "<.*a>", plain) == scan_only(parse_tree, "<.*a>", plain)
        with pytest.raises(MalformedTree, match=r"index 1: unexpected '\.'"):
            parse_tree("<.*a>", plain)
        assert rebuild(".a", "<*>", dotted) == (".", "a")
        with pytest.raises(UnknownLetter):
            rebuild(".a", "<*>", plain)

    def test_variable_word_is_not_a_plain_memo_hit(self, memos):
        ab = Alphabet.from_string("ab")
        assert parse_tree("<x*a>", ab, variable=True) == ("x", "a")
        assert b"<.*.>" in memos[0]
        assert outcome(parse_tree, "<x*a>", ab) == scan_only(parse_tree, "<x*a>", ab)
        with pytest.raises(MalformedTree, match=r"index 1: unexpected 'x'"):
            parse_tree("<x*a>", ab)

    def test_non_letter_dot_and_placeholder_are_not_memo_hits(self, memos):
        ab = Alphabet.from_string("ab")
        assert parse_tree("<a*b>", ab) == ("a", "b")
        for word in ("<.*b>", f"<{trees_module._NOT_A_LEAF}*b>"):
            expected = scan_only(parse_tree, word, ab)
            assert expected[0] is MalformedTree
            for variable in (False, True):
                assert outcome(parse_tree, word, ab, variable=variable) == expected, word

    @pytest.mark.parametrize("letter", [".", trees_module._NOT_A_LEAF])
    def test_dot_and_placeholder_as_letters(self, memos, monkeypatch, letter):
        # over an alphabet holding one of the two, that one parses from the memo
        # and the other is still the scanner's error
        alphabet = Alphabet.from_string("ab" + letter)
        assert parse_tree("<a*b>", alphabet) == ("a", "b")
        with monkeypatch.context() as patch:
            patch.setattr(trees_module, "_scan", None)  # a memo miss would call it
            assert parse_tree(f"<{letter}*b>", alphabet) == (letter, "b")
        for word in ("<.*b>", f"<{trees_module._NOT_A_LEAF}*b>"):
            assert outcome(parse_tree, word, alphabet) == scan_only(parse_tree, word, alphabet), word
        assert list(memos[0]) == [b"<.*.>"]

    def test_lone_surrogate_is_the_scanners_error(self, memos):
        # a character past U+00FF has no Latin-1 byte, so the scanner reads the text
        word = "<a*\udcff>"
        expected = scan_only(parse_tree, word)
        assert expected[0] is MalformedTree
        assert outcome(parse_tree, word) == expected
        assert memos[0] == {}

    def test_latin1_letter_parses_from_the_memo(self, memos, monkeypatch):
        alphabet = Alphabet.from_string("éab")
        assert parse_tree("<a*b>", alphabet) == ("a", "b")
        with monkeypatch.context() as patch:
            patch.setattr(trees_module, "_scan", None)  # a memo miss would call it
            assert parse_tree("<é*b>", alphabet) == ("é", "b")
        assert list(memos[0]) == [b"<.*.>"]

    def test_letters_past_latin1_are_read_by_the_scanner(self, memos):
        alphabet = Alphabet.from_string("αβγ")
        for t in iter_universe(3, alphabet):
            word = encode(t)
            assert outcome(parse_tree, word, alphabet) == scan_only(parse_tree, word, alphabet) == t
        assert memos[0] == {}

    def test_memo_hit_over_one_alphabet_is_no_hit_over_another(self, memos):
        assert parse_tree("<é*a>", Alphabet.from_string("éab")) == ("é", "a")
        expected = scan_only(parse_tree, "<é*a>", ABC)
        assert expected[0] is MalformedTree
        assert outcome(parse_tree, "<é*a>", ABC) == expected

    def test_bytes_text_is_a_type_error(self, memos):
        with pytest.raises(TypeError):
            parse_tree(b"<a*b>")
        assert memos[0] == {}

    @pytest.mark.parametrize("leaves", [9, 256])
    def test_large_trees_skip_the_memo(self, memos, leaves):
        t = comb(leaves, True)
        assert parse_tree(encode(t)) == rebuild(foliage(t), skeleton(t)) == t
        assert memos == ({}, {})

    def test_polynomials_up_to_five_leaves_match_the_scanner(self, memos):
        ab = Alphabet.from_string("ab")
        for t in iter_polynomials(5, ab):
            word, u, s = encode(t), foliage(t), skeleton(t)
            for _ in range(2):  # the first call fills the memos, the second reads them
                assert outcome(parse_tree, word, ab, variable=True) == scan_only(parse_tree, word, ab, variable=True) == t
                if VARIABLE not in u:
                    assert outcome(rebuild, u, s, ab) == scan_only(rebuild, u, s, ab) == t


class TestEnumeration:
    def test_one_leaf(self):
        assert Universe(1).trees == ["a", "b", "c"]

    def test_two_leaves_exact_order(self):
        expected = [
            "a", "b", "c",
            "<a*a>", "<a*b>", "<a*c>", "<b*a>", "<b*b>", "<b*c>",
            "<c*a>", "<c*b>", "<c*c>",
        ]
        assert [encode(t) for t in Universe(2).trees] == expected

    def test_three_leaf_count(self):
        exactly_three = [t for t in iter_universe(3) if leaf_count(t) == 3]
        assert len(exactly_three) == 54

    def test_three_leaf_shapes_ordered(self):
        shapes = []
        for t in iter_universe(3):
            s = skeleton(t)
            if len(s) == 6 and s not in shapes:
                shapes.append(s)
        assert shapes == ["<<*>*>", "<*<*>>"]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_against_recursive_oracle(self, k):
        alphabet = Alphabet.from_string("abc"[:k])
        for bound in range(1, 7):
            expected = sum(count_oracle(n, k) for n in range(1, bound + 1))
            assert universe_size(bound, k) == expected
            assert len(Universe(bound, alphabet, cap=None).trees) == expected
            assert sum(1 for _ in recursive_universe(bound, alphabet.symbols)) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_formula_matches_oracle_up_to_eight(self, k):
        for n in range(1, 9):
            assert universe_size(n, k) == sum(count_oracle(i, k) for i in range(1, n + 1))

    def test_cap_enforced(self):
        with pytest.raises(UniverseTooLarge):
            Universe(3, cap=10)
        with pytest.raises(UniverseTooLarge):
            Universe(8)  # default cap

    @pytest.mark.parametrize("stream", [iter_universe, iter_polynomials])
    def test_stream_cap_raises_before_allocating(self, stream):
        # at bound 9 the held list would be the 3.1M trees of U_8, 231 MB over three letters
        tracemalloc.start()
        try:
            with pytest.raises(UniverseTooLarge) as caught:
                stream(9)
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated < 64 * 1024
        symbols = 4 if stream is iter_polynomials else 3
        assert caught.value.witness == {"required": universe_size(8, symbols), "cap": 200_000}

    def test_stream_cap_bounds_the_list_it_holds(self):
        # iter_universe(N) holds U_{N-1}: U_2 is 12 trees, U_7 is past the default cap but U_6 is not
        assert len(list(iter_universe(3, cap=12))) == universe_size(3, 3)
        with pytest.raises(UniverseTooLarge):
            iter_universe(3, cap=11)
        with pytest.raises(UniverseTooLarge):
            iter_universe(8)
        assert next(iter_universe(7)) == next(iter_universe(8, cap=None)) == "a"
        assert len(list(iter_polynomials(3, cap=20))) == universe_size(3, 4)
        with pytest.raises(UniverseTooLarge):
            iter_polynomials(3, cap=19)

    @pytest.mark.parametrize("k, bound", [(1, 36), (3, 20), (3, 21), (3, 22), (3, 10_000), (1, 100_000), (4, 4100)])
    def test_too_large_count_stops_past_the_ceiling(self, k, bound):
        # the count is exact up to the leaf count where it passes 2**63 trees, else a lower bound found at once
        alphabet = Alphabet.from_string("abcd"[:k])
        with pytest.raises(UniverseTooLarge) as caught:
            Universe(bound, alphabet)
        witness = caught.value.witness
        if "exact" in witness:
            assert witness["exact"] is False and 2**63 < witness["required"] < 2**67
            assert str(caught.value).startswith("universe would hold more than")
            if bound < 100:
                assert witness["required"] < universe_size(bound, k)
        else:
            assert witness == {"required": universe_size(bound, k), "cap": 200_000}
            assert str(caught.value) == f"universe would hold {universe_size(bound, k)} trees, cap is 200000"
        assert ("exact" in witness) is (bound > {1: 37, 3: 21, 4: 18}[k])

    def test_order_is_sorted_by_documented_key(self):
        order = {"<": 0, "*": 1, ">": 2}

        def key(t):
            return (
                leaf_count(t),
                [order[c] for c in skeleton(t)],
                [ABC.index(c) for c in foliage(t)],
            )

        u3 = list(iter_universe(3))
        assert u3 == sorted(u3, key=key)
        assert len(set(u3)) == len(u3)

    def test_returns_independent_snapshot(self):
        first = Universe(2).trees
        first.append("junk")
        assert "junk" not in Universe(2).trees

    def test_iter_matches_enumerate(self):
        assert list(iter_universe(4)) == Universe(4, cap=None).trees == list(recursive_universe(4, ABC.symbols))


def partition_of(keys):
    """Class numbers renumbered by first occurrence: equal partitions give equal lists."""
    first = {}
    return [first.setdefault(key, len(first)) for key in keys]


def first_members(u, moved):
    """Position of the first member of each tree's class, from a sparse kernel."""
    return [moved.get(i, i) for i in range(len(u.trees))]


class TestUniverse:
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_index_and_children_agree_with_trees(self, bound):
        # the oracle labels shape by shape, independent of Universe's rank arithmetic
        for letters in ["a", "ab", "abc", "abcd"]:
            alphabet = Alphabet.from_string(letters)
            expected = list(recursive_universe(bound, alphabet.symbols))
            u = Universe(bound, alphabet, cap=None)
            assert u.max_leaves == bound and len(u) == len(expected)
            assert u.words() == [encode(t) for t in expected]
            assert u.trees == expected
            position = positions(u)
            for t in u.trees:
                if not isinstance(t, str):
                    # each subtree is the universe's own object, not an equal copy
                    assert t[0] is u.trees[position[t[0]]] and t[1] is u.trees[position[t[1]]]

    @pytest.mark.parametrize(
        "stream, letters, bound",
        [
            pytest.param(stream, letters, bound, id=f"{letters}-{bound}{suffix}")
            for suffix, stream in [("", iter_universe), ("-iter_polynomials", iter_polynomials)]
            for letters in ["a", "ab", "abc", "abcd"]
            for bound in [1, 2, 3, 4, 5, 6]
        ],
    )
    def test_stream_yields_the_universe(self, stream, letters, bound):
        # the trees with fewer leaves come first, and the widest trees are pairs of them
        alphabet = Alphabet.from_string(letters)
        variable = stream is iter_polynomials
        streamed = list(stream(bound, alphabet))
        assert streamed == list(recursive_universe(bound, letters + ("x" if variable else "")))
        smaller = len(Universe(bound - 1, alphabet, cap=None, variable=variable)) if bound > 1 else len(streamed)
        held = {id(t) for t in streamed[:smaller]}
        assert all(id(t[0]) in held and id(t[1]) in held for t in streamed[smaller:])

    @pytest.mark.parametrize("side", [0, 1])
    def test_position_cuts_off_deep_combs(self, side):
        # kernel looks the replacement up in the universe at most max_leaves pair levels down,
        # so a comb of 10^5 leaves is out of U_4 just as a comb of 5 leaves is, and a -> comb
        # moves nothing; a comb of 4 leaves is in U_4, and a -> comb moves it to a
        u = Universe(4)
        inside, outside, deep = (comb(leaves, side == 0, bottom="b", letters="bc") for leaves in (4, 5, 100_000))
        expected = oracle_grafting(4, u.alphabet, "a", inside)
        assert expected and u.kernel("a", inside) == expected
        assert u.kernel("a", deep) == u.kernel("a", outside) == oracle_grafting(4, u.alphabet, "a", outside) == {}

    @pytest.mark.parametrize(
        "make, bound",
        [
            pytest.param(make, bound, id=f"{bound}{suffix}")
            for suffix, make in [("", Universe), ("-iter_universe", iter_universe), ("-iter_polynomials", iter_polynomials)]
            for bound in [0, -1]
        ],
    )
    def test_non_positive_bound_rejected(self, make, bound):
        # the streams check their bound when called, not on the first next()
        with pytest.raises(ValueError, match="max_leaves must be >= 1"):
            make(bound)

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_kernel_matches_grafting(self, bound):
        # replacements with up to 3 leaves, larger than the universe at bounds 1 and 2
        u = Universe(bound)
        for a in "abc":
            for replacement in iter_universe(3):
                g = Grafting(a, replacement)
                moved = u.kernel(a, replacement)
                expected = partition_of(graft(g, t) for t in u.trees)
                assert partition_of(first_members(u, moved)) == expected, (a, encode(replacement))
                # a tree moves to the first tree with its image
                assert all(graft(g, u.trees[i]) == graft(g, u.trees[f]) and f < i for i, f in moved.items())

    def test_leaf_and_pair_with_equal_images_share_a_number(self):
        u = Universe(2)
        moved = u.kernel("a", parse_tree("<b*c>"))
        position = positions(u)
        assert moved == {position[parse_tree("<b*c>")]: position["a"]}

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_constant_leaf_map_gives_skeleton_partition(self, bound):
        # over two letters the grafting b -> a is the constant leaf map
        u = Universe(bound, Alphabet.from_string("ab"))
        moved = u.kernel("b", "a")
        assert partition_of(first_members(u, moved)) == partition_of(map(skeleton, u.trees))

    @pytest.mark.parametrize("bound", [1, 3, 5])
    def test_kernel_stores_nothing_on_the_universe(self, bound):
        u = Universe(bound)
        before = dict(vars(u))
        u.kernel("b", "a")
        u.kernel("a", parse_tree("<b*c>"))
        assert vars(u) == before

    def test_cap_enforced(self):
        with pytest.raises(UniverseTooLarge):
            Universe(3, cap=10)


class TestSparseKernel:
    # the sparse kernel against the dense hash-consing pass it replaced
    @pytest.mark.parametrize("letters", ["a", "ab", "abc", "abcd"])
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_grafting_leaf_maps_match_dense_pass(self, letters, bound):
        # every grafting of a letter by a tree of U_3; one whose tree holds the letter has the
        # empty kernel, as the next test checks on the dense pass
        alphabet = Alphabet.from_string(letters)
        u = Universe(bound, alphabet, cap=None)
        children = child_positions(u)
        for a in letters:
            for replacement in iter_universe(3, alphabet):
                leaf_image = {b: replacement if b == a else b for b in letters}
                expected = {} if a in foliage(replacement) else sparse_of(dense_kernel(u, leaf_image, children))
                assert u.kernel(a, replacement) == expected, (a, encode(replacement))

    @pytest.mark.parametrize("letters", ["a", "ab", "abc", "abcd"])
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_letter_inside_the_replacement_gives_the_empty_kernel(self, letters, bound):
        # the fact kernel rests on: a grafting a -> r with a in r is injective
        alphabet = Alphabet.from_string(letters)
        u = Universe(bound, alphabet, cap=None)
        children = child_positions(u)
        for a in letters:
            for replacement in iter_universe(3, alphabet):
                if a in foliage(replacement):
                    leaf_image = {b: replacement if b == a else b for b in letters}
                    assert sparse_of(dense_kernel(u, leaf_image, children)) == {}, (a, encode(replacement))

    @pytest.mark.parametrize("letters", ["a", "ab", "abc", "abcd"])
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_random_leaf_maps_match_dense_pass(self, letters, bound):
        # a random letter to a random tree of up to bound + 1 leaves, inside the universe or not
        rng = Random(bound * 10 + len(letters))
        alphabet = Alphabet.from_string(letters)
        u = Universe(bound, alphabet, cap=None)
        children = child_positions(u)
        for _ in range(30):
            a, replacement = rng.choice(letters), random_tree(rng, alphabet.symbols, bound + 1)
            leaf_image = {b: replacement if b == a else b for b in letters}
            assert u.kernel(a, replacement) == sparse_of(dense_kernel(u, leaf_image, children)), (a, replacement)

    @pytest.mark.parametrize("bound", [5, 6])
    def test_cp_evidence_leaf_maps_match_dense_pass(self, bound, monkeypatch):
        # with every dense pass failing, the skeleton, foliage and letter-by-letter kernels are
        # read off their own keys, and the graftings by a pair or by a -> a, as cp_evidence
        # samples them for seed 0, are sparse kernels of graftings; the reports stay the same
        funcs = [function_from_spec(spec) for spec in ("identity", "mirror", "recolor:b")]
        funcs += [t for t in crossing_tables(bound, ABC, 0) if t.name == "table:letter-grafting"]
        unforced = [cp_evidence(func, bound, seed=0).as_json() for func in funcs]
        graftings = []
        kernel = Universe.kernel
        monkeypatch.setattr(Universe, "kernel", lambda u, *grafting: graftings.append(grafting) or kernel(u, *grafting))
        monkeypatch.setattr(polynomials, "_factors", lambda *args: None)
        assert len(funcs) == 4 and [cp_evidence(func, bound, seed=0).as_json() for func in funcs] == unforced
        # per run, each letter by itself and by the 9 pairs of U_2, and the 100 seeded graftings,
        # none of which sends a letter to another
        per_run = 3 * (1 + 9) + 100
        assert len(graftings) == len(funcs) * per_run
        assert all(r == a or not isinstance(r, str) for a, r in graftings)
        u = Universe(bound)
        for a, replacement in graftings[:per_run]:
            assert kernel(u, a, replacement) == oracle_grafting(bound, u.alphabet, a, replacement), (a, replacement)

    def test_images_outside_the_alphabet_and_larger_than_the_universe(self):
        # a foreign letter, as the replacement or in it or as the grafted letter, and
        # replacements with more leaves than U_3 holds, deep or not: nothing moves
        u = Universe(3)
        wide = parse_tree("<<b*b>*<c*b>>")
        for a, replacement in (
            ("a", "d"),
            ("a", ("d", "b")),
            ("d", parse_tree("<b*c>")),
            ("d", "b"),
            ("a", wide),
            ("a", (wide, wide)),
            ("a", comb(100_000, bottom="b", letters="bc")),
        ):
            assert u.kernel(a, replacement) == {}, (a, replacement)
            if a in u.alphabet and len(encode(replacement)) < 100:
                leaf_image = {b: replacement if b == a else b for b in u.alphabet}
                assert sparse_of(dense_kernel(u, leaf_image)) == {}, (a, replacement)

    def test_fresh_replacement_moves_only_the_trees_that_contain_its_copy(self):
        # a -> <b*c>: a tree moves iff <b*c> occurs in it, the copy becoming an a
        u = Universe(4)
        moved = u.kernel("a", parse_tree("<b*c>"))
        assert sorted(moved) == [i for i, t in enumerate(u.trees) if "<b*c>" in encode(t)]


def first_positions(keys):
    """Per tree, the first position with its key."""
    first = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


class TestLeafKeys:
    # the block table's int keys against the word views that cp_evidence keyed the trees by
    @pytest.mark.parametrize("letters", ["a", "ab", "abc", "abcd", "éab"])
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 6])
    def test_keys_group_the_trees_as_the_word_views(self, letters, bound):
        u = Universe(bound, Alphabet.from_string(letters), cap=None)
        words = u.words()
        digit = {a: i for i, a in enumerate(letters)}
        views = [
            ((0,) * len(letters), True, map(erase_letters, words)),
            (tuple(digit.values()), False, map(erase_shapes, words)),
        ]
        views += [(tuple(digit[b if c == a else c] for c in letters), True, map(str.replace, words,
                   itertools.repeat(a), itertools.repeat(b))) for a, b in itertools.permutations(letters, 2)]
        for letter_map, by_shape, view in views:
            assert first_positions(u.leaf_keys(letter_map, by_shape)) == first_positions(view), letter_map

    @pytest.mark.parametrize("letters", ["a", "abc", "éab"])
    def test_identity_keys_by_shape_are_the_positions(self, letters):
        u = Universe(5, Alphabet.from_string(letters))
        assert list(u.leaf_keys(range(len(letters)))) == list(range(len(u)))
        assert vars(u) == vars(Universe(5, Alphabet.from_string(letters)))  # nothing stored


class TestAlphabet:
    @pytest.mark.parametrize("bad", ["", "aa", "a<", "x", "a*", "ab>"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            Alphabet.from_string(bad)

    def test_membership_and_order(self):
        ab = Alphabet.from_string("ba")
        assert "b" in ab and "c" not in ab
        assert ab.index("a") == 1

    def test_equal_and_hashed_by_its_letters_alone(self):
        # the precomputed leaf sets and dotted-word tables are no dataclass
        # fields: a dict field would make every Alphabet unhashable
        assert Alphabet.from_string("abc") == trees_module.DEFAULT_ALPHABET
        assert hash(Alphabet.from_string("abc")) == hash(trees_module.DEFAULT_ALPHABET)
        assert [field.name for field in dataclasses.fields(Alphabet)] == ["symbols"]

    def test_non_default_alphabet_enumeration(self):
        pq = Alphabet.from_string("pq")
        assert [encode(t) for t in Universe(1, pq).trees] == ["p", "q"]
        assert len(Universe(3, pq).trees) == 2 + 4 + 16


class TestMisc:
    @given(trees)
    def test_mirror_is_an_involution(self, t):
        assert mirror(mirror(t)) == t

    def test_mirror_swaps(self):
        assert encode(mirror(parse_tree("<<a*c>*b>"))) == "<b*<c*a>>"

    @given(trees)
    def test_leaf_count_matches_foliage(self, t):
        assert leaf_count(t) == len(foliage(t))

    def test_unicode_rendering(self):
        assert "<a*b>".translate(UNICODE_SHAPES) == "◂a•b▸"

    def test_random_tree_deterministic(self):
        first = [random_tree(Random(7), ("a", "b", "c"), 5) for _ in range(20)]
        second = [random_tree(Random(7), ("a", "b", "c"), 5) for _ in range(20)]
        assert first == second

    @pytest.mark.parametrize("letters", ["abc", "abcx", "p"])
    def test_random_tree_matches_recursive_fill(self, letters):
        # same trees and the same draws as a recursive fill of the drawn shape
        for seed in range(50):
            rng, reference = Random(seed), Random(seed)
            for _ in range(20):
                assert random_tree(rng, tuple(letters), 9) == random_tree_reference(reference, tuple(letters), 9)
            assert rng.getstate() == reference.getstate()
