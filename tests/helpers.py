"""Tree builders and oracles shared by the test modules."""

import itertools

from treealg import Universe, foliage, polynomials, table_function
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


def crossing(moved):
    """Two moved trees, the first before the second in ``moved`` but after it by
    (first tree, tree), or None: a function wrong at both fails first at
    different pairs in the two orders."""
    top = (-1, -1)  # the last (first tree, tree) in order so far
    for i, first in moved.items():
        if (first, i) < top:
            return top[1], i
        top = (first, i)
    return None


def crossing_tables(bound, alphabet, seed):
    """Identity tables wrong at a crossing of the skeleton, foliage, one grafting or one
    letter-grafting kernel.  A dense pass meets the moved trees in position order, so
    the letter grafting's crossing is taken in that order."""
    universe = Universe(bound, alphabet)
    trees, symbols = universe.trees, alphabet.symbols
    a, replacement = symbols[seed % len(symbols)], Universe(2, alphabet).trees[-1 - seed]
    letter = symbols[(seed + 1) % len(symbols)]
    kernels = {
        "skeleton": universe.kernel(dict.fromkeys(alphabet, symbols[0])),
        "foliage": polynomials._first_with_key([foliage(t) for t in trees]),
        "grafting": universe.kernel({b: replacement if b == a else b for b in alphabet}),
        "letter-grafting": dict(sorted(universe.kernel({b: letter if b == a else b for b in alphabet}).items())),
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
