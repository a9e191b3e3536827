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
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import PairOutOfUniverse
from .trees import (
    Alphabet,
    DEFAULT_ALPHABET,
    DEFAULT_UNIVERSE_CAP,
    Tree,
    encode,
    enumerate_universe,
)


class Relatedness(enum.Enum):
    RELATED = "related"
    UNKNOWN_AT_BOUND = "unknown-at-bound"


class TreePartition:
    """Equivalence classes over a fixed universe; immutable once built.

    The canonical representative of a class is its enumeration-smallest
    member, so two runs over the same input agree byte for byte.
    """

    def __init__(self, index: Dict[Tree, int], roots: Tuple[int, ...], max_leaves: int):
        # ``index`` maps each universe tree to its position; keys are in enumeration order.
        self._index = index
        self._roots = roots
        self.max_leaves = max_leaves

    @property
    def universe(self) -> Tuple[Tree, ...]:
        return tuple(self._index)

    @property
    def universe_size(self) -> int:
        return len(self._index)

    def _idx(self, t: Tree) -> int:
        try:
            return self._index[t]
        except KeyError:
            raise PairOutOfUniverse(encode(t), self.max_leaves) from None

    def related(self, t: Tree, t2: Tree) -> bool:
        return self._roots[self._idx(t)] == self._roots[self._idx(t2)]

    def class_of(self, t: Tree) -> List[Tree]:
        root = self._roots[self._idx(t)]
        return [u for i, u in enumerate(self._index) if self._roots[i] == root]

    def classes(self) -> List[List[Tree]]:
        """All classes in enumeration order, members in enumeration order."""
        buckets: Dict[int, List[Tree]] = {}
        for i, t in enumerate(self._index):
            buckets.setdefault(self._roots[i], []).append(t)
        return [buckets[root] for root in sorted(buckets)]


def bounded_closure(
    pairs: Iterable[Tuple[Tree, Tree]],
    max_leaves: int,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
) -> TreePartition:
    """Least in-universe equivalence containing ``pairs``, compatible with pairing.

    Union-find over universe indices with a worklist: every non-leaf tree
    is registered under the class pair of its children; when two classes
    merge, the trees using the absorbed class are re-registered, and
    trees whose child-class pairs collide are merged in turn.
    """
    universe = enumerate_universe(max_leaves, alphabet, cap)
    n = len(universe)
    index: Dict[Tree, int] = {}
    children: List[Optional[Tuple[int, int]]] = [None] * n
    for i, t in enumerate(universe):
        if not isinstance(t, str):
            # Children have fewer leaves, so they are already indexed.
            children[i] = (index[t[0]], index[t[1]])
        index[t] = i

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    uses: List[List[int]] = [[] for _ in range(n)]
    for i, ch in enumerate(children):
        if ch is not None:
            uses[ch[0]].append(i)
            uses[ch[1]].append(i)

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

    for t, u in pairs:
        if t not in index:
            raise PairOutOfUniverse(encode(t), max_leaves)
        if u not in index:
            raise PairOutOfUniverse(encode(u), max_leaves)
        merge(index[t], index[u])

    work.extend(i for i in range(n) if children[i] is not None)
    signature: Dict[Tuple[int, int], int] = {}
    while work:
        i = work.pop()
        left, right = children[i]
        key = (find(left), find(right))
        other = signature.get(key)
        if other is None:
            signature[key] = i
        else:
            merge(i, other)

    roots = tuple(find(i) for i in range(n))
    return TreePartition(index, roots, max_leaves)


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
