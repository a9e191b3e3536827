"""Tree builders and oracles shared by the test modules."""

import itertools
from functools import lru_cache, partial

from treealg import Universe, foliage, table_function
from treealg.morphisms import _graft
from treealg.trees import _compile, _fold_deep, _shapes, _slotted, encode


def comb(leaves, left=True, bottom="a", letters="abc"):
    """A comb of ``leaves`` leaves: ``bottom`` deepest, then ``letters`` cycling upwards.

    A left comb grows to the right, ``((bottom, x), y)``; a right comb to
    the left, ``(y, (x, bottom))``.
    """
    t = bottom
    for i in range(leaves - 1):
        leaf = letters[i % len(letters)]
        t = (t, leaf) if left else (leaf, t)
    return t


def graft_deep(g, t):
    """:func:`graft` through the iterative fold it falls back to on deep trees."""
    return _fold_deep(
        t,
        partial(_graft, g.source, g.replacement),
        lambda node, left, right: node if left is node[0] and right is node[1] else (left, right),
    )


def positions(universe):
    """Each tree of ``universe`` to its position, by a dict over its trees."""
    return {t: i for i, t in enumerate(universe.trees)}


def recursive_universe(max_leaves, symbols):
    """Every tree with at most ``max_leaves`` leaves over ``symbols``, in canonical order.

    Each shape's trees come from one compiled builder fed every labelling,
    independent of the rank arithmetic of ``Universe``'s block table: the
    recursion that ``iter_universe`` ran before it became ``Universe.stream``,
    kept as the oracle of both.
    """
    for n in range(1, max_leaves + 1):
        for shape in _shapes(n):
            build = _compile(_slotted(encode(shape)))
            for labels in itertools.product(symbols, repeat=n):
                yield build(labels)


def crossing(moved):
    """Two moved trees, the first before the second in ``moved`` but after it by
    (first tree, tree), or None: a function wrong at both fails first at
    different pairs in the two orders.  A kernel whose classes are runs of
    positions, as the skeleton's shape blocks are, has no such pair; for it,
    the last moved trees of its last two classes, if two classes moved."""
    top = (-1, -1)  # the last (first tree, tree) in order so far
    last = {}  # first tree -> its last moved tree so far
    for i, first in moved.items():
        if (first, i) < top:
            return top[1], i
        top = last[first] = (first, i)
    return tuple(i for _, i in list(last.values())[-2:]) if len(last) > 1 else None


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


@lru_cache(maxsize=8)
def _oracle_universe(bound, alphabet):
    u = Universe(bound, alphabet, cap=None)
    return u, child_positions(u)


@lru_cache(maxsize=1024)
def oracle_kernel(bound, alphabet, images):
    """The sparse kernel, by the dense oracle, of the homomorphism sending the letters of
    ``alphabet`` to ``images`` in order.  Computed once per universe and leaf map, and
    shared between callers, who must not change it."""
    u, children = _oracle_universe(bound, alphabet)
    return sparse_of(dense_kernel(u, dict(zip(alphabet.symbols, images)), children))


def oracle_grafting(bound, alphabet, a, replacement):
    """:func:`oracle_kernel` of the grafting ``a -> replacement``."""
    return oracle_kernel(bound, alphabet, tuple(replacement if b == a else b for b in alphabet.symbols))


def crossing_tables(bound, alphabet, seed):
    """Identity tables wrong at a crossing of the skeleton, foliage, one grafting or one
    letter-grafting kernel, each read off the dense oracle.  A dense pass meets the moved
    trees in position order, the order of the oracle's kernels."""
    universe = Universe(bound, alphabet)
    trees, symbols = universe.trees, alphabet.symbols
    a, replacement = symbols[seed % len(symbols)], Universe(2, alphabet).trees[-1 - seed]
    letter = symbols[(seed + 1) % len(symbols)]
    kernels = {
        "skeleton": oracle_kernel(bound, alphabet, (symbols[0],) * len(symbols)),
        "foliage": sparse_of(map(foliage, trees)),
        "grafting": oracle_grafting(bound, alphabet, a, replacement),
        "letter-grafting": oracle_grafting(bound, alphabet, a, letter),
    }
    tables = []
    for name, moved in kernels.items():
        pair = crossing(moved)
        if pair is not None:
            wrong = {t: t for t in trees}
            for i in pair:
                wrong[trees[i]] = (trees[i], alphabet.symbols[-1])
            tables.append(table_function(wrong, f"table:{name}"))
    return tables
