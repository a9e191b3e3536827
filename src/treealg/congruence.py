"""Congruences generated by seed pairs, decided by normal forms.

The closure engine computes, inside the universe of all trees with at
most N leaves, the smallest equivalence relation that contains a given
set of seed pairs and is closed under compatibility: whenever t1 ~ t1'
and t2 ~ t2' and both pairings stay inside the universe, the pairings
are related too.

Every question is answered one way.  Congruence closure on the
hash-consed DAG of the seeds' subterms turns the seeds into a convergent,
flat ground rewrite system: each letter of the DAG, and each pair of DAG
classes, rewrites to its class.  Two trees are congruent iff their
bottom-up normal forms are equal (Downey, Sethi & Tarjan, JACM 1980;
Kapur, RTA 1997).  :func:`bounded_closure` keys every tree of the
universe by its normal form in one pass, children before parents;
:meth:`TreePartition.related` compares two trees' normal forms, and
:func:`congruent` does so for trees of any size, with no universe.  The
universe is closed under subterms, so the partition is exactly the
restriction to it of the congruence the seeds generate on the whole
(infinite) algebra: a negative answer is as definitive as a positive one.
"""

from __future__ import annotations

import operator
import reprlib
import time
from array import array
from itertools import chain, count, repeat
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import PairOutOfUniverse
from .trees import (
    Alphabet,
    DEFAULT_ALPHABET,
    DEFAULT_UNIVERSE_CAP,
    Tree,
    Universe,
    _fold_deep,
    _gc_paused,
    encode,
    leaf_count,
    universe_size,
)


class TreePartition:
    """Equivalence classes over a fixed universe; immutable once built.

    ``_roots`` holds the root position of each tree's class; :meth:`related`
    compares normal forms instead, and reads no universe table.  The
    canonical representative of a class is its enumeration-smallest member,
    so two runs over the same input agree byte for byte.
    """

    def __init__(self, universe: Universe, roots: array, stats: Dict[str, float], normal_form: Callable):
        self.universe = universe
        self.universe_size = len(universe)
        self._roots = roots
        self.stats = stats
        self._normal_form = normal_form

    def related(self, t: Tree, t2: Tree) -> bool:
        return self._normal_form(t) == self._normal_form(t2)

    def classes(self, members: Optional[Sequence] = None) -> List[list]:
        """All classes in enumeration order, members in enumeration order.

        A member is a tree, or the entry of ``members`` at its position,
        such as a word of :meth:`Universe.words`.
        """
        buckets: Dict[int, list] = {}
        with _gc_paused():
            for t, root in zip(self.universe.trees if members is None else members, self._roots):
                buckets.setdefault(root, []).append(t)
            return [buckets[root] for root in sorted(buckets)]


def _out_of_universe(t, max_leaves: int) -> PairOutOfUniverse:
    try:
        word = encode(t)
    except (TypeError, ValueError):  # not a tree at all; reprlib stops at a few levels
        word = reprlib.repr(t)
    return PairOutOfUniverse(word, max_leaves)


def _normalizer(keys: Dict[str, int], rules: Dict[Tuple[object, object], int], max_leaves: int) -> Callable:
    """The normal form under ``rules`` of a tree with at most ``max_leaves`` leaves.

    A letter's is its key, a pair's ``rules.get(sig, sig)`` for the
    signature ``sig`` of its halves' normal forms: every rule's left side
    holds DAG keys only, so a signature without a rule is its own normal
    form.  The fold stops past ``max_leaves`` leaves, so it recurses at most
    that deep; a value that is not a tree of the keys' letters, or has more
    leaves, raises :class:`PairOutOfUniverse`.
    """

    def fold(t, budget: int) -> Tuple[object, int]:
        # (normal form, leaves) of a pair with at most budget leaves, else (None, 0); a letter half is read here
        if not isinstance(t, tuple) or len(t) != 2 or budget < 2:
            return None, 0
        left, right = t
        left, seen = (keys.get(left), 1) if isinstance(left, str) else fold(left, budget - 1)
        if left is None:
            return None, 0
        right, leaves = (keys.get(right), 1) if isinstance(right, str) else fold(right, budget - seen)
        if right is None:
            return None, 0
        sig = (left, right)
        return rules.get(sig, sig), seen + leaves

    def normal_form(t: Tree):
        found = keys.get(t) if isinstance(t, str) else fold(t, max_leaves)[0]
        if found is None:
            raise _out_of_universe(t, max_leaves)
        return found

    return normal_form


def _dag_rules(
    pairs: Sequence[Tuple[Tree, Tree]], alphabet: Alphabet
) -> Tuple[Dict[str, int], Dict[int, Dict[int, int]], int]:
    """Congruence closure on the hash-consed DAG of the seeds' subterms, as rewrite rules.

    Each subterm of a seed is one node.  The seed pairs are united, then a
    signature pass ``(find(left), find(right))`` over the pair nodes unites
    the nodes that share one, until a pass unites nothing; the DAG has
    O(|seeds|) nodes, so the plain fixpoint is cheap.  The m classes are
    keyed -1 ... -m.  Returns the key of each letter, its DAG key or else
    its alphabet index, the pair rules as ``rows[left key][right key] =
    key``, and m.  The trees must be trees over the alphabet.
    """
    nodes: Dict[object, int] = {}  # a letter, or the nodes of a pair's halves, to its node

    def intern(t: Tree) -> int:
        return _fold_deep(
            t, lambda a: nodes.setdefault(a, len(nodes)), lambda _, l, r: nodes.setdefault((l, r), len(nodes))
        )

    seeds = [(intern(t), intern(u)) for t, u in pairs]
    parent = list(range(len(nodes)))

    def find(x: int) -> int:
        while parent[x] != x:  # path halving
            parent[x] = x = parent[parent[x]]
        return x

    def union(x: int, y: int) -> bool:
        x, y = find(x), find(y)
        parent[max(x, y)] = min(x, y)
        return x != y

    for x, y in seeds:
        union(x, y)
    halves = [(key, node) for key, node in nodes.items() if isinstance(key, tuple)]
    merged = True
    while merged:
        signature: Dict[Tuple[int, int], int] = {}
        merged = False
        for (l, r), node in halves:
            merged |= union(node, signature.setdefault((find(l), find(r)), node))

    key_of: Dict[int, int] = {}
    class_key = [key_of.setdefault(find(x), -1 - len(key_of)) for x in range(len(parent))]
    rows: Dict[int, Dict[int, int]] = {}
    for (l, r), node in halves:
        rows.setdefault(class_key[l], {})[class_key[r]] = class_key[node]
    keys = {a: class_key[nodes[a]] if a in nodes else i for i, a in enumerate(alphabet.symbols)}
    return keys, rows, len(key_of)


def _settle(keys: array, rows: Dict[int, Dict[int, int]], dag_classes: int):
    """``keys`` and ``rows`` with each DAG class's key replaced by its root,
    the first position that holds the key."""
    fix = {c: keys.index(c) for c in range(-1, -dag_classes - 1, -1)}
    keys = array("i", map(fix.get, keys, keys))
    rows = {fix.get(l, l): {fix.get(r, r): fix.get(k, k) for r, k in row.items()} for l, row in rows.items()}
    return keys, rows


def bounded_closure(
    pairs: Iterable[Tuple[Tree, Tree]],
    max_leaves: int,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
) -> TreePartition:
    """Least in-universe equivalence containing ``pairs``, compatible with pairing.

    Each seed must lie in the universe.  The rules of :func:`_dag_rules`
    seed the signature table ``rows``, and the partition keeps a copy for
    :meth:`TreePartition.related`; then one pass over the pair blocks,
    children before parents, gives each tree a key, its normal form: a
    letter's DAG key, or its own position.  A block reads its right
    children's keys once and its left children's rows of ``rows`` once,
    and gives all its keys in one ``map`` of ``dict.setdefault`` over the
    rows, the right keys and the block's positions, so a signature new to
    the table takes the tree's own position.  Every key that is a position
    is thus its class's enumeration-smallest member.  A DAG class's root is
    its first tree, which has no more leaves than the largest seed, so once
    the pass has keyed those trees each DAG key is replaced by its root, in
    the keys so far and in ``rows``, and the keys are the roots.  ``stats``
    counts the universe size, the trees keyed by a signature
    (``registrations``), the trees whose class has an earlier member
    (``merges``) and the signatures the table ends with, the DAG's rules
    among them (``signature_size``), and times building the universe
    (``universe_s``) and the rest (``sweep_s``).
    """
    start = time.perf_counter()
    universe = Universe(max_leaves, alphabet, cap)
    built = time.perf_counter()
    pairs = list(pairs)
    in_universe = _normalizer(dict(zip(alphabet.symbols, count())), {}, max_leaves)
    for t in chain.from_iterable(pairs):
        in_universe(t)
    letter_keys, rows, dag_classes = _dag_rules(pairs, alphabet)
    rules = {(l, r): k for l, row in rows.items() for r, k in row.items()}  # before the pass adds to rows
    settled = universe_size(max((leaf_count(t) for pair in pairs for t in pair), default=1), len(alphabet))
    with _gc_paused():
        keys = array("i", letter_keys.values())
        for lefts, rights in universe.pair_blocks():
            if len(keys) == settled:
                keys, rows = _settle(keys, rows, dag_classes)
            right_keys = keys[rights.start:rights.stop]
            left_rows = map(rows.setdefault, keys[lefts.start:lefts.stop], iter(dict, None))  # a new row is {}
            i = len(keys)
            keys.extend(map(
                dict.setdefault,
                chain.from_iterable(map(repeat, left_rows, repeat(len(right_keys)))),
                chain.from_iterable(repeat(right_keys, len(lefts))),
                range(i, i + len(lefts) * len(right_keys)),
            ))
        if len(keys) == settled:  # the largest seed has max_leaves leaves, and no block reads rows again
            keys = _settle(keys, {}, dag_classes)[0]
    n = len(keys)
    stats = {
        "universe_size": n,
        "registrations": n - len(alphabet),
        "merges": n - sum(map(operator.eq, keys, range(n))),
        "signature_size": sum(map(len, rows.values())),
        "universe_s": built - start,
        "sweep_s": time.perf_counter() - built,
    }
    return TreePartition(universe, keys, stats, _normalizer(letter_keys, rules, max_leaves))


def congruent(
    pairs: Iterable[Tuple[Tree, Tree]],
    u: Tree,
    v: Tree,
    alphabet: Alphabet = DEFAULT_ALPHABET,
) -> bool:
    """Are ``u`` and ``v`` related by the congruence that ``pairs`` generate?

    Exact, on the whole algebra: the normal forms of ``u`` and ``v`` under
    the rules of :func:`_dag_rules` are equal, each found by one iterative
    fold, in O(|seeds| + |u| + |v|) and with no universe.  A value that is
    not a tree of the alphabet raises :class:`PairOutOfUniverse`, naming the
    smallest universe that holds the trees given.

    :meth:`TreePartition.related` folds by the same rules, recursively and
    into signature tuples, for speed on trees of at most its bound of
    leaves.  Here trees may be of any depth: the fold keeps a stack and
    names each new signature by an int, as comparing deep tuples recurses in C.
    """
    pairs = list(pairs)
    trees = [t for pair in pairs for t in pair] + [u, v]
    one_leaf = dict.fromkeys(alphabet.symbols, 1).get
    sizes = [_fold_deep(t, one_leaf, lambda _, l, r: l + r) for t in trees]  # leaf counts, None for a non-tree
    if None in sizes:
        raise _out_of_universe(trees[sizes.index(None)], max(filter(None, sizes), default=1))
    keys, rows, _ = _dag_rules(pairs, alphabet)
    fresh = count(len(alphabet))  # a key for each signature new to the rules

    def normal_form(t: Tree) -> int:
        return _fold_deep(t, keys.get, lambda _, l, r: rows.setdefault(l, {}).setdefault(r, next(fresh)))

    return normal_form(u) == normal_form(v)
