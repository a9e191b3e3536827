"""Tree builders and oracles shared by the test modules."""


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
