"""Bounded congruence closure and the partitions it produces."""

import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from treealg import (
    Alphabet,
    Grafting,
    PairOutOfUniverse,
    Universe,
    UniverseTooLarge,
    bounded_closure,
    congruent,
    encode,
    foliage,
    graft,
    iter_universe,
    parse_tree,
    skeleton,
)

from helpers import comb, positions

AB_CLASSES = [
    ["a", "b"],
    ["c"],
    ["<a*a>", "<a*b>", "<b*a>", "<b*b>"],
    ["<a*c>", "<b*c>"],
    ["<c*a>", "<c*b>"],
    ["<c*c>"],
]


def encoded_classes(partition):
    return [[encode(t) for t in cls] for cls in partition.classes()]


class TestBoundedClosure:
    def test_empty_pairs_gives_identity(self):
        partition = bounded_closure([], 2)
        assert all(len(cls) == 1 for cls in partition.classes())
        assert partition.universe_size == 12

    def test_collapse_a_b_at_bound_two(self):
        partition = bounded_closure([("a", "b")], 2)
        assert encoded_classes(partition) == AB_CLASSES

    def test_absorbing_pair_at_bound_three(self):
        partition = bounded_closure([("a", ("a", "a"))], 3)
        for text in ["<a*a>", "<a*<a*a>>", "<<a*a>*a>"]:
            assert partition.related("a", parse_tree(text))

    def test_pair_out_of_universe(self):
        big = parse_tree("<<a*b>*<a*b>>")
        with pytest.raises(PairOutOfUniverse):
            bounded_closure([(big, "a")], 2)

    def test_bound_zero_rejected(self):
        with pytest.raises(ValueError, match="max_leaves must be >= 1"):
            bounded_closure([], 0)

    def test_deterministic(self):
        one = bounded_closure([("a", "b"), ("c", ("a", "a"))], 3)
        two = bounded_closure([("a", "b"), ("c", ("a", "a"))], 3)
        assert encoded_classes(one) == encoded_classes(two)

    def test_letter_pair_closure_equals_grafting_kernel(self):
        # for a leaf-to-leaf seed every derivation stays inside the bound,
        # so the closure coincides with the collapse kernel on the universe
        partition = bounded_closure([("a", "b")], 4)
        position = positions(partition.universe)
        groups = {}
        for t in partition.universe.trees:
            groups.setdefault(graft(Grafting("a", "b"), t), []).append(t)
        expected = sorted(groups.values(), key=lambda cls: position[cls[0]])
        assert partition.classes() == expected
        # class count: shapes times foliages over the collapsed alphabet
        from treealg import catalan

        assert len(expected) == sum(catalan(n - 1) * 2**n for n in range(1, 5))

    def test_compatibility_holds_within_bound(self):
        partition = bounded_closure([("a", "b")], 3)
        position = positions(partition.universe)
        for t1, t2 in itertools.product(iter_universe(1), repeat=2):
            for t1b, t2b in itertools.product(iter_universe(1), repeat=2):
                if partition.related(t1, t1b) and partition.related(t2, t2b):
                    p, q = (t1, t2), (t1b, t2b)
                    if p in position and q in position:
                        assert partition.related(p, q)


def naive_closure_classes(pairs, universe):
    """Plain fixpoint: merge the seed pairs, then merge pairings of related
    parts until a sweep over all pairs of pairings changes nothing."""
    label = {t: i for i, t in enumerate(universe)}

    def merge(t, u):
        old, new = label[t], label[u]
        for k, v in label.items():
            if v == old:
                label[k] = new

    for t, u in pairs:
        merge(t, u)
    nodes = [t for t in universe if not isinstance(t, str)]
    changed = True
    while changed:
        changed = False
        for p, q in itertools.product(nodes, repeat=2):
            if label[p] != label[q] and label[p[0]] == label[q[0]] and label[p[1]] == label[q[1]]:
                merge(p, q)
                changed = True
    classes = {}
    for t in universe:
        classes.setdefault(label[t], []).append(t)
    return list(classes.values())


class TestNaiveFixpointOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_naive_fixpoint(self, data):
        alphabet = Alphabet.from_string(data.draw(st.sampled_from(["ab", "abc"])))
        bound = data.draw(st.integers(1, 3))
        # leaf count first, so that letter seeds, whose consequences cascade, are common
        tree = st.integers(1, bound).flatmap(lambda n: st.sampled_from(list(iter_universe(n, alphabet))))
        pairs = data.draw(st.lists(st.tuples(tree, tree), max_size=3))
        partition = bounded_closure(pairs, bound, alphabet)
        assert partition.classes() == naive_closure_classes(pairs, list(iter_universe(bound, alphabet)))


def worklist_oracle(pairs, max_leaves, alphabet):
    """Roots of the closure by the earlier loop: every pair tree pushed in
    enumeration order and popped last-in first-out, each merge re-queueing
    every user of the dropped class."""
    trees = list(iter_universe(max_leaves, alphabet))
    index = {t: i for i, t in enumerate(trees)}
    children = [None if isinstance(t, str) else (index[t[0]], index[t[1]]) for t in trees]
    n = len(trees)

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    uses = [[] for _ in range(n)]
    for i, ch in enumerate(children):
        if ch is not None:
            uses[ch[0]].append(i)
            uses[ch[1]].append(i)

    work = []

    def merge(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        keep, drop = (rx, ry) if rx < ry else (ry, rx)
        parent[drop] = keep
        work.extend(uses[drop])
        uses[keep].extend(uses[drop])
        uses[drop] = []

    for t, u in pairs:
        merge(index[t], index[u])

    work.extend(i for i in range(n) if children[i] is not None)
    signature = {}
    while work:
        i = work.pop()
        left, right = children[i]
        key = (find(left), find(right))
        other = signature.get(key)
        if other is None:
            signature[key] = i
        else:
            merge(i, other)

    return tuple(find(i) for i in range(n))


# Seed sets on which a union-find sweep in enumeration order must re-register
# trees: a merge drops a class that already-registered trees use.  Kept as
# hard cases for the normal forms, which no seed set of the benchmark is.
REQUEUEING_SEEDS = [
    (["a~<a*b>", "c~<b*b>", "b~a"], 2),
    (["<c*a>~a", "<<c*a>*b>~b"], 3),
    # <c*b> merges the classes of a and c, re-queueing four trees, while <c*c> still reads c's root
    (["b~a", "<c*a>~c", "<c*b>~b"], 2),
    # the dropped class holds trees that joined it at their own registration,
    # whose users are not re-queued
    (["<a*b>~c", "a~c", "<a*b>~<<c*b>*c>"], 3),
]

# registrations, merges and signature_size of each set over abc at its bound
# and the two bounds above it.  Every pair tree takes its key from one
# signature, so registrations is the universe size less the three letters;
# signature_size counts the DAG's rules with the signatures the pass added.
REQUEUEING_STATS = {
    "a~<a*b>": [(9, 11, 1), (63, 65, 1), (468, 470, 1)],
    "<c*a>~a": [(63, 14, 51), (468, 118, 352), (3870, 1126, 2746)],
    "b~a": [(9, 11, 1), (63, 65, 1), (468, 470, 1)],
    "<a*b>~c": [(63, 54, 12), (468, 423, 48), (3870, 3649, 224)],
}
STAT_NAMES = ("registrations", "merges", "signature_size")


def seed_pairs(texts):
    return [tuple(parse_tree(side) for side in text.split("~")) for text in texts]


def check_against_worklist_loop(data, bound):
    alphabet = Alphabet.from_string(data.draw(st.sampled_from(["ab", "abc"])))
    # leaf count first, so that letter seeds, whose consequences cascade, are common
    tree = st.integers(1, bound).flatmap(lambda n: st.sampled_from(list(iter_universe(n, alphabet))))
    pairs = data.draw(st.lists(st.tuples(tree, tree), max_size=3))
    assert tuple(bounded_closure(pairs, bound, alphabet)._roots) == worklist_oracle(pairs, bound, alphabet)


class TestWorklistOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_roots_match_worklist_loop(self, data):
        check_against_worklist_loop(data, data.draw(st.integers(1, 4)))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_roots_match_worklist_loop_at_bound_five(self, data):
        check_against_worklist_loop(data, 5)

    @pytest.mark.parametrize("texts, bound", REQUEUEING_SEEDS)
    def test_requeueing_seed_sets(self, texts, bound):
        pairs = seed_pairs(texts)
        abc = Alphabet.from_string("abc")
        for k, expected in enumerate(REQUEUEING_STATS[texts[0]]):
            partition = bounded_closure(pairs, bound + k, abc)
            assert tuple(partition._roots) == worklist_oracle(pairs, bound + k, abc)
            assert tuple(partition.stats[name] for name in STAT_NAMES) == expected

    def test_merge_without_requeue_refreshes_the_block_roots(self):
        # in a union-find sweep, <a*b> registers after its seed merged it with b:
        # the merge drops the class of c, which no registered tree uses yet but
        # <a*c> and <b*c> still read
        pairs = seed_pairs(["c~<a*a>", "b~a", "b~<a*b>"])
        abc = Alphabet.from_string("abc")
        for bound in (2, 3):
            partition = bounded_closure(pairs, bound, abc)
            assert tuple(partition._roots) == worklist_oracle(pairs, bound, abc)


class TestStats:
    @pytest.mark.parametrize("texts", [["a~b"], ["a~b", "b~c"], ["<a*b>~<b*a>"]])
    def test_each_tree_registered_once(self, texts):
        partition = bounded_closure(seed_pairs(texts), 5)
        stats = partition.stats
        assert stats["universe_size"] == partition.universe_size
        assert stats["registrations"] == partition.universe_size - 3
        assert stats["merges"] == partition.universe_size - len(partition.classes())
        for phase in ("universe_s", "sweep_s"):
            assert isinstance(stats[phase], float) and stats[phase] >= 0


class TestKernelTables:
    def test_closure_builds_no_parent_tables(self):
        # the closure reads only the block table; classes() adds the trees,
        # the one table a universe builds
        for texts, bound in [(["a~b", "<a*b>~<b*a>"], 4), *REQUEUEING_SEEDS]:
            partition = bounded_closure(seed_pairs(texts), bound)
            partition.related("a", parse_tree("<a*b>"))
            before = set(vars(partition.universe))
            assert "trees" not in before
            partition.classes()
            assert set(vars(partition.universe)) - before == {"trees"}


class TestGcState:
    """Universe building, closure and classes pause the cyclic collector and
    leave it as they found it, also when they raise."""

    @staticmethod
    def _calls():
        big = parse_tree("<<a*b>*<a*b>>")
        yield lambda: bounded_closure([("a", "b")], 3)
        yield lambda: Universe(3)
        yield bounded_closure([("a", "b")], 3).classes
        yield lambda: pytest.raises(PairOutOfUniverse, bounded_closure, [(big, "a")], 2)
        yield lambda: pytest.raises(UniverseTooLarge, bounded_closure, [], 4, cap=10)
        yield lambda: pytest.raises(UniverseTooLarge, Universe, 4, cap=10)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, enabled):
        was = gc.isenabled()
        try:
            for call in self._calls():
                gc.enable() if enabled else gc.disable()
                call()
                assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()


class TestRelated:
    def test_identity_reflexive(self):
        partition = bounded_closure([], 1)
        assert partition.related("a", "a")

    def test_collapsed_products(self):
        partition = bounded_closure([("a", "b")], 2)
        assert partition.related(parse_tree("<a*c>"), parse_tree("<b*c>"))

    def test_asymmetric_products_stay_apart(self):
        partition = bounded_closure([("a", "b")], 2)
        assert not partition.related(parse_tree("<a*c>"), parse_tree("<c*a>"))

    def test_query_outside_universe(self):
        partition = bounded_closure([], 1)
        with pytest.raises(PairOutOfUniverse):
            partition.related(parse_tree("<a*b>"), "a")

    @pytest.mark.parametrize(
        "value",
        [
            "d",  # unknown letter
            "ab",  # not one letter
            None,
            5,
            ("a", 5),
            ("a", "b", "c"),
            ("a", "d"),
            ((("a", "b"), "c"), ("a", "b")),  # five leaves, one past the bound
            ("a", ("b", ("c", ("a", ("b", "c"))))),
            ["a", "b"],
            (),
        ],
    )
    def test_non_trees_are_out_of_universe(self, value):
        partition = bounded_closure([], 4)
        with pytest.raises(PairOutOfUniverse):
            partition.related(value, "a")
        with pytest.raises(PairOutOfUniverse):
            partition.related("a", value)
        with pytest.raises(PairOutOfUniverse):
            bounded_closure([("a", value)], 4)

    def test_deep_comb_is_out_of_universe(self):
        # the fold stops once it has seen more leaves than the bound, whichever side the comb grows
        partition = bounded_closure([], 3)
        for left, word in [(True, r"<<<<a\*b>\*b>"), (False, r"<b\*<b\*<b\*")]:
            deep = comb(100_001, left, letters="b")
            with pytest.raises(PairOutOfUniverse, match=word):
                partition.related("a", deep)
            with pytest.raises(PairOutOfUniverse):
                partition.related(deep, deep)
            with pytest.raises(PairOutOfUniverse):
                bounded_closure([(deep, "a")], 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_classes_on_every_pair(self, data):
        # related reads normal forms, classes() the closure's roots: one answer on every pair of U_N
        alphabet = Alphabet.from_string(data.draw(st.sampled_from(["ab", "abc"])))
        bound = data.draw(st.integers(1, 4))
        tree = st.integers(1, bound).flatmap(lambda n: st.sampled_from(list(iter_universe(n, alphabet))))
        pairs = data.draw(st.lists(st.tuples(tree, tree), max_size=3))
        partition = bounded_closure(pairs, bound, alphabet)
        class_of = {t: k for k, cls in enumerate(partition.classes()) for t in cls}
        for u, v in itertools.product(class_of, repeat=2):
            assert partition.related(u, v) is (class_of[u] == class_of[v]), (pairs, u, v)


class TestPrincipalRelated:
    """The principal congruence of one pair, decided by ``congruent``."""

    def test_generator_pair(self):
        assert congruent([("a", "b")], "a", "b") is True

    def test_reflexive_generator_relates_nothing(self):
        assert congruent([("a", "a")], "a", "b") is False

    def test_derived_product_pair(self):
        u, v = parse_tree("<a*c>"), parse_tree("<b*c>")
        assert congruent([("a", "b")], u, v) is True

    def test_monotone_in_bound(self):
        u, v = parse_tree("<a*c>"), parse_tree("<b*c>")
        assert congruent([("a", "b")], u, v) is True
        for bound in (2, 3, 4):
            assert bounded_closure([("a", "b")], bound).related(u, v)

    def test_negative_answer_is_exact(self):
        u, v = parse_tree("<a*c>"), parse_tree("<c*a>")
        assert congruent([("a", "b")], u, v) is False
        for bound in (3, 4, 5):  # no larger universe relates them either
            assert not bounded_closure([("a", "b")], bound).related(u, v)

    def test_bound_is_the_largest_leaf_count(self):
        # a~<a*a> relates a to the three-leaf <<a*a>*a>, which sets the bound
        assert congruent([("a", parse_tree("<a*a>"))], "a", parse_tree("<<a*a>*a>")) is True
        assert congruent([("a", parse_tree("<a*a>"))], "b", parse_tree("<<a*a>*b>")) is False

    @pytest.mark.parametrize("value", ["d", "ab", None, 5, ("a", 5), ("a", "b", "c")])
    def test_non_trees_are_out_of_universe(self, value):
        with pytest.raises(PairOutOfUniverse):
            congruent([("a", value)], "a", "b")
        with pytest.raises(PairOutOfUniverse):
            congruent([("a", "b")], "a", value)


class TestCongruent:
    """``congruent`` decides the generated congruence on the whole algebra,
    so on U_N it agrees with the closure."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_the_closure_on_u3(self, data):
        alphabet = Alphabet.from_string(data.draw(st.sampled_from(["ab", "abc"])))
        tree = st.integers(1, 3).flatmap(lambda n: st.sampled_from(list(iter_universe(n, alphabet))))
        pairs = data.draw(st.lists(st.tuples(tree, tree), max_size=3))
        partition = bounded_closure(pairs, 3, alphabet)
        trees = partition.universe.trees
        for u, v in itertools.product(trees, repeat=2):
            assert congruent(pairs, u, v, alphabet) is partition.related(u, v), (pairs, u, v)

    @pytest.mark.parametrize("left", [True, False], ids=["left-comb", "right-comb"])
    def test_deep_combs(self, left):
        u, v, w = comb(100_000, left, "a", "ba"), comb(100_000, left, "b", "ab"), comb(100_000, not left, "a", "ba")
        assert congruent([("a", "b")], u, v) is True
        assert congruent([("a", "b")], u, w) is False
        assert congruent([(u, "c")], (u, "a"), ("c", "a")) is True
        assert congruent([(u, v)], u, w) is False

    @pytest.mark.parametrize(
        "value", ["d", "ab", None, 5, ("a", 5), ("a", "b", "c"), ["a", "b"], comb(100_000, True, 5, ["a", 5])],
        ids=["d", "ab", "None", "5", "a-5", "triple", "list", "deep"],
    )
    def test_non_trees_are_out_of_universe(self, value):
        with pytest.raises(PairOutOfUniverse, match="at most 2 leaves"):
            congruent([("a", value)], ("a", "b"), "a")
        with pytest.raises(PairOutOfUniverse):
            congruent([], "a", value)
        with pytest.raises(PairOutOfUniverse):
            bounded_closure([(value, "a")], 2)


class TestExactRestriction:
    """U_N is closed under subterms, so the closure on U_N is the restriction
    of the closure on any larger universe."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_closure_at_two_bounds_more_restricts_to_the_closure(self, data):
        alphabet = Alphabet.from_string(data.draw(st.sampled_from(["ab", "abc"])))
        bound = data.draw(st.integers(1, 3))
        tree = st.integers(1, bound).flatmap(lambda n: st.sampled_from(list(iter_universe(n, alphabet))))
        pairs = data.draw(st.lists(st.tuples(tree, tree), max_size=3))
        small = bounded_closure(pairs, bound, alphabet)
        # U_N's positions are the first ones of U_(N+2), and a root is its class's smallest member
        assert bounded_closure(pairs, bound + 2, alphabet)._roots[: small.universe_size] == small._roots


class TestSoundnessAgainstKernels:
    """Everything the closure relates must be related by every kernel
    congruence that contains the seed pairs."""

    @staticmethod
    def _kernels():
        kernels = [skeleton, foliage]
        for a in "abc":
            for replacement in Universe(2).trees:
                g = Grafting(a, replacement)
                kernels.append(lambda t, g=g: graft(g, t))
        return kernels

    @staticmethod
    def _refines(partition, image):
        for cls in partition.classes():
            ref = image(cls[0])
            if any(image(t) != ref for t in cls[1:]):
                return False
        return True

    def test_single_seed_pairs_exhaustive(self):
        kernels = self._kernels()
        u2 = Universe(2).trees
        for t, u in itertools.combinations(u2, 2):
            partition = bounded_closure([(t, u)], 3)
            for image in kernels:
                if image(t) == image(u):
                    assert self._refines(partition, image), (encode(t), encode(u))

    def test_sampled_double_seed_pairs(self):
        from random import Random

        kernels = self._kernels()
        u2 = Universe(2).trees
        all_pairs = list(itertools.combinations(u2, 2))
        rng = Random(0)
        for _ in range(300):
            first, second = rng.sample(all_pairs, 2)
            partition = bounded_closure([first, second], 3)
            for image in kernels:
                if image(first[0]) == image(first[1]) and image(second[0]) == image(second[1]):
                    assert self._refines(partition, image)


class TestMonotonicity:
    @pytest.mark.parametrize("seed_pair", [("a", "b"), ("a", ("a", "a"))])
    def test_relations_survive_larger_bounds(self, seed_pair):
        for bound in (2, 3):
            small = bounded_closure([seed_pair], bound)
            large = bounded_closure([seed_pair], bound + 1)
            for cls in small.classes():
                rep = cls[0]
                for t in cls[1:]:
                    assert large.related(rep, t)


class TestMinimality:
    def test_no_merge_is_removable(self):
        """Splitting any class of the bound-2 closure of {(a, b)} in two
        breaks seed containment or in-bound compatibility."""
        partition = bounded_closure([("a", "b")], 2)
        universe = partition.universe.trees
        position = positions(partition.universe)
        classes = partition.classes()

        def violates(split_classes):
            # seed pair must stay together
            cls_of = {}
            for ci, cls in enumerate(split_classes):
                for t in cls:
                    cls_of[t] = ci
            if cls_of["a"] != cls_of["b"]:
                return True
            # compatibility inside the bound
            for t1, t2 in itertools.product(universe, repeat=2):
                if cls_of[t1] != cls_of[t2]:
                    continue
                for u1, u2 in itertools.product(universe, repeat=2):
                    if cls_of[u1] != cls_of[u2]:
                        continue
                    p, q = (t1, u1), (t2, u2)
                    if p in position and q in position and cls_of[p] != cls_of[q]:
                        return True
            return False

        for ci, cls in enumerate(classes):
            if len(cls) < 2:
                continue
            members = list(cls)
            # all 2-part splits of one class, others untouched
            for mask in range(1, 2 ** (len(members) - 1)):
                part_one = [t for k, t in enumerate(members) if mask >> k & 1]
                part_two = [t for k, t in enumerate(members) if not mask >> k & 1]
                split = [c for k, c in enumerate(classes) if k != ci]
                split.extend([part_one, part_two])
                assert violates(split), (ci, part_one)
