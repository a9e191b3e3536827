"""Trees: parsing, encoding, projections, rebuild, enumeration."""

import itertools
import sys
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
    graft,
    identity_function,
    iter_universe,
    leaf_count,
    mirror,
    parse_tree,
    random_tree,
    rebuild,
    skeleton,
    universe_size,
)
from treealg import morphisms, trees as trees_module
from treealg.trees import UNICODE_SHAPES, _encode_deep, _fold_deep, _mirror, _shapes

from helpers import comb, positions

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

    def test_fallback_near_the_recursion_limit(self, monkeypatch):
        # with 20 frames to spare the folds overflow on 60-leaf combs and fall back
        fallbacks = []

        def spy(module, name):
            walker = getattr(module, name)

            def wrapped(*args):
                fallbacks.append(f"{module.__name__}.{name}")
                return walker(*args)

            monkeypatch.setattr(module, name, wrapped)

        spy(trees_module, "_encode_deep")
        spy(trees_module, "_fold_deep")  # mirror's
        spy(morphisms, "_fold_deep")  # graft's
        samples = [comb(60, True), comb(60, False), *iter_universe(2)]
        g = Grafting("a", ("b", "c"))

        def views():
            return [(encode(t), skeleton(t), foliage(t), graft(g, t), mirror(t)) for t in samples]

        limit = sys.getrecursionlimit()
        near_limit = near_recursion_limit(views)
        assert sys.getrecursionlimit() == limit
        assert sorted(fallbacks) == (
            ["treealg.morphisms._fold_deep"] * 2 + ["treealg.trees._encode_deep"] * 6 + ["treealg.trees._fold_deep"] * 2
        )
        fallbacks.clear()
        assert near_limit == views() and not fallbacks


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
        assert sorted(memos[0]) == [".", "<.*.>"]
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
        assert "<<.*.>*.>" in memos[0]
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

    @pytest.mark.parametrize("leaves", [9, 256])
    def test_large_trees_skip_the_memo(self, memos, leaves):
        t = comb(leaves, True)
        assert parse_tree(encode(t)) == rebuild(foliage(t), skeleton(t)) == t
        assert memos == ({}, {})


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
            assert sum(1 for _ in iter_universe(bound, alphabet)) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_formula_matches_oracle_up_to_eight(self, k):
        for n in range(1, 9):
            assert universe_size(n, k) == sum(count_oracle(i, k) for i in range(1, n + 1))

    def test_cap_enforced(self):
        with pytest.raises(UniverseTooLarge):
            Universe(3, cap=10)
        with pytest.raises(UniverseTooLarge):
            Universe(8)  # default cap

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
        assert list(iter_universe(4)) == Universe(4, cap=None).trees


def partition_of(keys):
    """Class numbers renumbered by first occurrence: equal partitions give equal lists."""
    first = {}
    return [first.setdefault(key, len(first)) for key in keys]


def first_members(u, moved):
    """Position of the first member of each tree's class, from a sparse kernel."""
    return [moved.get(i, i) for i in range(len(u.trees))]


def child_positions(u):
    """The child positions of each pair tree of ``u``, read off its trees by a dict."""
    position = positions(u)
    return [(position[t[0]], position[t[1]]) for t in u.trees[len(u.alphabet):]]


def dense_kernel(u, leaf_image, children=None):
    """Class number per tree, hash-consing images bottom-up over the whole universe."""
    table = {}

    def intern(t):
        key = t if isinstance(t, str) else (intern(t[0]), intern(t[1]))
        return table.setdefault(key, len(table))

    ids = [intern(leaf_image[a]) for a in u.alphabet]
    for left, right in child_positions(u) if children is None else children:
        ids.append(table.setdefault((ids[left], ids[right]), len(table)))
    return ids


def sparse_of(ids):
    """The sparse form of class numbers: each non-first member to its first member."""
    first = {}
    return {i: f for i, key in enumerate(ids) if (f := first.setdefault(key, i)) != i}


class TestUniverse:
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_index_and_children_agree_with_trees(self, bound):
        # iter_universe streams shape by shape, independent of Universe's rank arithmetic
        for letters in ["a", "ab", "abc", "abcd"]:
            alphabet = Alphabet.from_string(letters)
            expected = list(iter_universe(bound, alphabet))
            u = Universe(bound, alphabet, cap=None)
            assert u.max_leaves == bound and len(u) == len(expected)
            assert u.words() == [encode(t) for t in expected]
            assert u.trees == expected
            position = positions(u)
            for t in u.trees:
                if not isinstance(t, str):
                    # each subtree is the universe's own object, not an equal copy
                    assert t[0] is u.trees[position[t[0]]] and t[1] is u.trees[position[t[1]]]

    @pytest.mark.parametrize("side", [0, 1])
    def test_position_cuts_off_deep_combs(self, side):
        # kernel looks a leaf's image up in the universe at most max_leaves pair levels down,
        # so a comb of 10^5 leaves is out of U_3 just as a comb of 4 leaves is
        u = Universe(3)
        deep, shallow = (comb(leaves, side == 0, letters="b") for leaves in (100_000, 4))
        image = {"a": shallow, "b": shallow, "c": "c"}
        expected = sparse_of(dense_kernel(u, image))
        assert expected and u.kernel(image) == expected
        assert u.kernel({"a": deep, "b": deep, "c": "c"}) == expected

    @pytest.mark.parametrize("bound", [0, -1])
    def test_non_positive_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="max_leaves must be >= 1"):
            Universe(bound)

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_kernel_matches_grafting(self, bound):
        # replacements with up to 3 leaves, larger than the universe at bounds 1 and 2
        u = Universe(bound)
        for a in "abc":
            for replacement in iter_universe(3):
                g = Grafting(a, replacement)
                moved = u.kernel({b: replacement if b == a else b for b in "abc"})
                expected = partition_of(graft(g, t) for t in u.trees)
                assert partition_of(first_members(u, moved)) == expected, (a, encode(replacement))
                # a tree moves to the first tree with its image
                assert all(graft(g, u.trees[i]) == graft(g, u.trees[f]) and f < i for i, f in moved.items())

    def test_leaf_and_pair_with_equal_images_share_a_number(self):
        u = Universe(2)
        moved = u.kernel({"a": parse_tree("<b*c>"), "b": "b", "c": "c"})
        position = positions(u)
        assert moved == {position[parse_tree("<b*c>")]: position["a"]}

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_constant_leaf_map_gives_skeleton_partition(self, bound):
        u = Universe(bound)
        moved = u.kernel(dict.fromkeys("abc", "a"))
        assert partition_of(first_members(u, moved)) == partition_of(map(skeleton, u.trees))

    @pytest.mark.parametrize("bound", [1, 3, 5])
    def test_kernel_stores_nothing_on_the_universe(self, bound):
        u = Universe(bound)
        before = dict(vars(u))
        u.kernel(dict.fromkeys("abc", "a"))
        u.kernel({"a": parse_tree("<b*c>"), "b": "b", "c": "c"})
        assert vars(u) == before

    def test_cap_enforced(self):
        with pytest.raises(UniverseTooLarge):
            Universe(3, cap=10)


class TestSparseKernel:
    # the sparse kernel against the dense hash-consing pass it replaced
    @pytest.mark.parametrize("letters", ["a", "ab", "abc", "abcd"])
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_grafting_leaf_maps_match_dense_pass(self, letters, bound):
        # every leaf map sending one letter into U_3 and the others to themselves
        alphabet = Alphabet.from_string(letters)
        u = Universe(bound, alphabet, cap=None)
        children = child_positions(u)
        for a in letters:
            for replacement in iter_universe(3, alphabet):
                leaf_image = {b: replacement if b == a else b for b in letters}
                assert u.kernel(leaf_image) == sparse_of(dense_kernel(u, leaf_image, children)), (a, encode(replacement))

    @pytest.mark.parametrize("letters", ["a", "ab", "abc", "abcd"])
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_random_leaf_maps_match_dense_pass(self, letters, bound):
        # every letter to a random tree of up to 3 leaves, so images of leaves and pairs collide
        rng = Random(bound * 10 + len(letters))
        alphabet = Alphabet.from_string(letters)
        u = Universe(bound, alphabet, cap=None)
        children = child_positions(u)
        for _ in range(30):
            leaf_image = {b: random_tree(rng, alphabet.symbols, 3) for b in letters}
            assert u.kernel(leaf_image) == sparse_of(dense_kernel(u, leaf_image, children)), leaf_image

    @pytest.mark.parametrize("bound", [5, 6])
    def test_cp_evidence_leaf_maps_match_dense_pass(self, bound, monkeypatch):
        # the skeleton map and every sampled grafting, as cp_evidence builds them for seed 0
        leaf_maps = []
        kernel = Universe.kernel
        monkeypatch.setattr(Universe, "kernel", lambda u, leaf_image: leaf_maps.append(leaf_image) or kernel(u, leaf_image))
        cp_evidence(identity_function(), bound, seed=0)
        assert len(leaf_maps) == 1 + 3 * 12 + 100
        u = Universe(bound)
        children = child_positions(u)
        for leaf_image in leaf_maps:
            assert kernel(u, leaf_image) == sparse_of(dense_kernel(u, leaf_image, children)), leaf_image

    def test_images_outside_the_alphabet_and_larger_than_the_universe(self):
        u = Universe(3)
        wide = parse_tree("<<a*b>*<c*a>>")
        for leaf_image in (
            {"a": "d", "b": "d", "c": "c"},
            {"a": wide, "b": wide[0], "c": wide[1]},
            {"a": (wide, wide), "b": wide, "c": "c"},
        ):
            assert u.kernel(leaf_image) == sparse_of(dense_kernel(u, leaf_image))

    def test_fresh_replacement_moves_only_the_trees_that_contain_its_copy(self):
        # a -> <b*c>: a tree moves iff <b*c> occurs in it, the copy becoming an a
        u = Universe(4)
        moved = u.kernel({"a": parse_tree("<b*c>"), "b": "b", "c": "c"})
        assert sorted(moved) == [i for i, t in enumerate(u.trees) if "<b*c>" in encode(t)]


class TestAlphabet:
    @pytest.mark.parametrize("bad", ["", "aa", "a<", "x", "a*", "ab>"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            Alphabet.from_string(bad)

    def test_membership_and_order(self):
        ab = Alphabet.from_string("ba")
        assert "b" in ab and "c" not in ab
        assert ab.index("a") == 1

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
