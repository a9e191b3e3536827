"""Bounded congruence closure on finite tree universes.

The closure engine computes, inside the universe of all trees with at
most N leaves, the smallest equivalence relation that contains a given
set of seed pairs and is closed under compatibility: whenever t1 ~ t1'
and t2 ~ t2' and both pairings stay inside the universe, the pairings
are related too.

The result under-approximates the congruence generated on the full
(infinite) algebra: two small trees may be relatable only through
intermediate trees larger than the bound.  A negative answer therefore
means "unknown at this bound", never a definitive no; the enum returned
by :func:`principal_related` makes that explicit.
"""

from __future__ import annotations

import enum
import time
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import PairOutOfUniverse
from .trees import (
    Alphabet,
    DEFAULT_ALPHABET,
    DEFAULT_UNIVERSE_CAP,
    Tree,
    Universe,
    _gc_paused,
    encode,
)


class Relatedness(enum.Enum):
    RELATED = "related"
    UNKNOWN_AT_BOUND = "unknown-at-bound"


class TreePartition:
    """Equivalence classes over a fixed universe; immutable once built.

    The canonical representative of a class is its enumeration-smallest
    member, so two runs over the same input agree byte for byte.
    """

    def __init__(self, universe: Universe, roots: Tuple[int, ...], stats: Dict[str, float]):
        self.universe = universe
        self.universe_size = len(universe.trees)
        self._roots = roots
        self.stats = stats

    def _idx(self, t: Tree) -> int:
        try:
            return self.universe.index[t]
        except KeyError:
            raise PairOutOfUniverse(encode(t), self.universe.max_leaves) from None

    def related(self, t: Tree, t2: Tree) -> bool:
        return self._roots[self._idx(t)] == self._roots[self._idx(t2)]

    def class_of(self, t: Tree) -> List[Tree]:
        root = self._roots[self._idx(t)]
        return [u for u, r in zip(self.universe.trees, self._roots) if r == root]

    def classes(self) -> List[List[Tree]]:
        """All classes in enumeration order, members in enumeration order."""
        buckets: Dict[int, List[Tree]] = {}
        with _gc_paused():
            for t, root in zip(self.universe.trees, self._roots):
                buckets.setdefault(root, []).append(t)
            return [buckets[root] for root in sorted(buckets)]


def bounded_closure(
    pairs: Iterable[Tuple[Tree, Tree]],
    max_leaves: int,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
) -> TreePartition:
    """Least in-universe equivalence containing ``pairs``, compatible with pairing.

    Union-find over universe indices, the seed pairs merged first.  One
    sweep in enumeration order, children before parents, then registers
    each non-leaf tree once under the class pair of its children; a tree
    whose pair is already taken is merged with its owner.  When a merge
    drops a class, only its users registered so far are re-registered
    (a worklist); later users see the final classes when the sweep
    reaches them.  The smaller root is kept, so every root is its class's
    enumeration-smallest member.  ``stats`` also holds the seconds spent
    building the universe (``universe_s``) and in the sweep (``sweep_s``).
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
    """Roots and counters of the closure of ``pairs`` on ``universe``."""
    index, children = universe.index, universe.children
    n = len(universe.trees)
    first_pair = len(universe.alphabet)
    stats = {"universe_size": n, "registrations": n - first_pair, "requeued": 0, "merges": 0}

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # users of a root: the registered trees whose key holds that root
    uses: List[List[int]] = [[] for _ in range(n)]
    work: List[int] = []

    def merge(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        keep, drop = (rx, ry) if rx < ry else (ry, rx)
        parent[drop] = keep
        work.extend(uses[drop])
        uses[keep].extend(uses[drop])
        uses[drop] = []
        stats["merges"] += 1

    for t, u in pairs:
        for tree in (t, u):
            if tree not in index:
                raise PairOutOfUniverse(encode(tree), universe.max_leaves)
        merge(index[t], index[u])

    signature: Dict[Tuple[int, int], int] = {}
    for i in range(first_pair, n):
        left, right = children[i]
        key = (find(left), find(right))
        uses[key[0]].append(i)
        uses[key[1]].append(i)
        other = signature.setdefault(key, i)
        if other != i:
            merge(i, other)
        while work:
            j = work.pop()
            stats["requeued"] += 1
            left, right = children[j]
            other = signature.setdefault((find(left), find(right)), j)
            if other != j:
                merge(j, other)

    stats["registrations"] += stats["requeued"]
    stats["signature_size"] = len(signature)
    return tuple(find(i) for i in range(n)), stats


def principal_related(
    t: Tree,
    t2: Tree,
    u: Tree,
    v: Tree,
    max_leaves: int,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
) -> Relatedness:
    """Are ``u`` and ``v`` related by the congruence generated by ``(t, t2)``?

    Decided inside the bounded universe only; RELATED is definitive and
    monotone in the bound, UNKNOWN_AT_BOUND is not a negative answer.
    """
    partition = bounded_closure([(t, t2)], max_leaves, alphabet, cap)
    if partition.related(u, v):
        return Relatedness.RELATED
    return Relatedness.UNKNOWN_AT_BOUND
