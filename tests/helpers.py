"""Tree builders and oracles shared by the test modules."""

import itertools

from treealg.trees import _compile, _shapes, _slotted, encode


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
