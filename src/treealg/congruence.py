"""Bounded congruence closure on finite tree universes.

The closure engine computes, inside the universe of all trees with at
most N leaves, the smallest equivalence relation that contains a given
set of seed pairs and is closed under compatibility: whenever t1 ~ t1'
and t2 ~ t2' and both pairings stay inside the universe, the pairings
are related too.

The universe is closed under subterms, so the result is exactly the
restriction to it of the congruence that the seeds generate on the whole
(infinite) algebra (Nelson & Oppen, JACM 1980): a negative answer is as
definitive as a positive one.
"""

from __future__ import annotations

import operator
import time
from array import array
from contextlib import suppress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import PairOutOfUniverse
from .trees import (
    Alphabet,
    DEFAULT_ALPHABET,
    DEFAULT_UNIVERSE_CAP,
    Tree,
    Universe,
    _gc_paused,
    encode,
    leaf_count,
)


class TreePartition:
    """Equivalence classes over a fixed universe; immutable once built.

    ``_roots`` holds the root position of each tree's class.  The canonical
    representative of a class is its enumeration-smallest member, so two
    runs over the same input agree byte for byte.
    """

    def __init__(self, universe: Universe, roots: array, stats: Dict[str, float]):
        self.universe = universe
        self.universe_size = len(universe)
        self._roots = roots
        self.stats = stats

    def related(self, t: Tree, t2: Tree) -> bool:
        return self._roots[_position(self.universe, t)] == self._roots[_position(self.universe, t2)]

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


def _position(universe: Universe, t: Tree) -> int:
    """Position of ``t`` in ``universe``; :class:`PairOutOfUniverse` if it has none."""
    i = universe.position(t)
    if i is None:
        try:
            word = encode(t)
        except (TypeError, ValueError):  # not a tree at all
            word = repr(t)
        raise PairOutOfUniverse(word, universe.max_leaves)
    return i


def bounded_closure(
    pairs: Iterable[Tuple[Tree, Tree]],
    max_leaves: int,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
) -> TreePartition:
    """Least in-universe equivalence containing ``pairs``, compatible with pairing.

    Union-find over universe positions, the seed pairs merged first.  One
    sweep in enumeration order, children before parents, then registers
    each non-leaf tree once under the class pair of its children; a tree
    whose pair is already taken is merged with its owner.  When a merge
    drops a class, only its users registered so far are re-registered
    (a worklist), found from the class's members by the universe's rank
    arithmetic, so no use list is stored; later users see the final
    classes when the sweep reaches them.  The smaller root is kept, so
    every root is its class's enumeration-smallest member.  ``stats`` also
    holds the seconds spent building the universe (``universe_s``) and in
    the sweep (``sweep_s``).
    """
    start = time.perf_counter()
    universe = Universe(max_leaves, alphabet, cap)
    built = time.perf_counter()
    with _gc_paused():
        roots, stats = _sweep(universe, pairs)
    stats["universe_s"] = built - start
    stats["sweep_s"] = time.perf_counter() - built
    return TreePartition(universe, roots, stats)


def _sweep(universe: Universe, pairs: Iterable[Tuple[Tree, Tree]]):
    """Roots and counters of the closure of ``pairs`` on ``universe``.

    Walks the pair blocks, whose trees have the children
    ``product(lefts, rights)`` in position order, reading the roots of a
    block's right children once per block and of each left child once per
    row.  Both tables are ``array('i')``: ``parent``, and ``ring``, which
    links a class's members into one cycle, so that a merge splices two
    classes by swapping two cells.  No use list is kept: a merge inside the
    sweep walks the dropped class's cycle and re-queues the trees
    registered so far that have a member as a child, found by
    :meth:`Universe.parents_of`; a re-queued tree finds its children by
    :meth:`Universe.children_of`.  A tree that joins a class at its own
    registration stays out of the cycle: each of its users shares its
    class with the same-keyed, earlier user of the tree it joined.
    """
    n = len(universe)
    first_pair = len(universe.alphabet)
    stats = {"universe_size": n, "registrations": n - first_pair, "requeued": 0, "merges": 0}
    parents_of, children_of = universe.parents_of, universe.children_of

    # parent[x] <= x throughout: a merge links the larger root under the
    # smaller, and path halving only points a node at an ancestor
    parent = array("i", range(n))
    ring = array("i", range(n))  # ring[x] is the next member of x's class, round a cycle

    def find(x: int) -> int:
        p = parent[x]
        while p != x:  # path halving
            grand = parent[p]
            if grand == p:
                return p
            parent[x] = x = grand
            p = parent[x]
        return x

    work: List[int] = []

    def merge(x: int, y: int, upto: int) -> None:
        # joins the classes of x and y, re-queueing the dropped class's users up to position upto
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        keep, drop = (rx, ry) if rx < ry else (ry, rx)
        parent[drop] = keep
        ring[keep], ring[drop] = ring[drop], ring[keep]
        users: List[int] = []
        member = keep
        while member != drop:  # the dropped class now runs from ring[keep] round to drop
            member = ring[member]
            users += parents_of(member, upto)
        users.sort()  # position order; a tree with both children in the class comes twice
        work.extend(users)

    for t, u in pairs:  # before the sweep no tree is registered, so none is re-queued
        merge(_position(universe, t), _position(universe, u), first_pair - 1)

    signature: Dict[int, int] = {}  # the class pair (l, r) of a registered tree, keyed l * n + r
    setdefault = signature.setdefault
    i = first_pair
    for lefts, rights in universe.pair_blocks():
        right_roots = list(map(find, rights))
        for left in lefts:
            row = find(left) * n
            for right in right_roots:
                other = setdefault(row + right, i)
                if other != i:
                    if parent[i] == i:
                        # i is its class's smallest member, so no registered tree uses the
                        # class yet; i goes under other, which find later halves to the root
                        parent[i] = other
                    else:
                        merge(i, other, i)
                        while work:
                            j = work.pop()
                            stats["requeued"] += 1
                            l, r = children_of(j)
                            other = setdefault(find(l) * n + find(r), j)
                            if other != j:
                                merge(j, other, i)
                        # these merges may have dropped the root of a child still to come
                        right_roots[:] = map(find, rights)
                        row = find(left) * n
                i += 1

    stats["registrations"] += stats["requeued"]
    stats["signature_size"] = len(signature)
    for x in range(n):  # parent[parent[x]] is a root by the time x is reached
        parent[x] = parent[parent[x]]
    stats["merges"] = sum(map(operator.ne, parent, range(n)))  # each merge ended one root
    return parent, stats


def principal_related(
    t: Tree,
    t2: Tree,
    u: Tree,
    v: Tree,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
) -> bool:
    """Are ``u`` and ``v`` related by the congruence generated by ``(t, t2)``?

    Decided exactly by the closure on the smallest universe holding the four
    trees; a value that is not a tree of the alphabet raises :class:`PairOutOfUniverse`.
    """
    bound = 1
    for tree in (t, t2, u, v):
        with suppress(TypeError, ValueError):  # a value that is not a tree is left to the closure
            bound = max(bound, leaf_count(tree))
    return bounded_closure([(t, t2)], bound, alphabet, cap).related(u, v)
