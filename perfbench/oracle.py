"""Reference answers for the benchmark, written without treealg.

Everything here works on encoded trees (``<left*right>`` strings) or on
plain nested tuples, using only the tree grammar and closed-form counts.
No function of the package under test is imported, so a defect in the
package cannot make its own output look right.
"""

from __future__ import annotations

import itertools
import math
from random import Random

OPEN, SEP, CLOSE = "<", "*", ">"
SHAPES = OPEN + SEP + CLOSE
VARIABLE = "x"
_SHAPE_ORDER = str.maketrans(SHAPES, "012")
_MIRROR = str.maketrans(OPEN + CLOSE, CLOSE + OPEN)


class Mismatch(AssertionError):
    """An output of the program disagrees with the reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# --- trees as strings ------------------------------------------------------


def encode(t) -> str:
    """Encode a nested-tuple tree; iterative, so any depth works."""
    parts = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        else:
            stack.extend((CLOSE, item[1], SEP, item[0], OPEN))
    return "".join(parts)


def skeleton_of(enc: str) -> str:
    return "".join(ch for ch in enc if ch in SHAPES)


def foliage_of(enc: str) -> str:
    return "".join(ch for ch in enc if ch not in SHAPES)


def graft(enc: str, letter: str, replacement: str) -> str:
    """Grafting on encodings: every leaf letter is one character."""
    return enc.replace(letter, replacement)


def mirror(enc: str) -> str:
    return enc[::-1].translate(_MIRROR)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def universe_size(bound: int, letters: int) -> int:
    return sum(catalan(n - 1) * letters**n for n in range(1, bound + 1))


def _templates(n: int) -> list:
    """Shape templates with ``{}`` at each leaf, in canonical skeleton order."""
    if n == 1:
        return ["{}"]
    out = [
        OPEN + left + SEP + right + CLOSE
        for i in range(1, n)
        for left in _templates(i)
        for right in _templates(n - i)
    ]
    out.sort(key=lambda tpl: tpl.replace("{}", "").translate(_SHAPE_ORDER))
    return out


def universe(bound: int, letters: str):
    """Yield ``(encoding, skeleton, foliage)`` of every tree, in canonical order.

    Order: leaf count, then skeleton with ``<`` before ``*`` before ``>``,
    then foliage in alphabet order.
    """
    for n in range(1, bound + 1):
        for tpl in _templates(n):
            shape = tpl.replace("{}", "")
            for labels in itertools.product(letters, repeat=n):
                yield tpl.format(*labels), shape, "".join(labels)


# --- random trees from a seed ----------------------------------------------


def random_tree(rng: Random, letters: str, leaves: int):
    """Tree with a uniformly random split at every node; depth about log(leaves)."""
    if leaves == 1:
        return rng.choice(letters)
    k = rng.randint(1, leaves - 1)
    return (random_tree(rng, letters, k), random_tree(rng, letters, leaves - k))


def comb(rng: Random, letters: str, leaves: int, left: bool):
    """Comb of depth ``leaves - 1``, built without recursion."""
    t = rng.choice(letters)
    for _ in range(leaves - 1):
        leaf = rng.choice(letters)
        t = (t, leaf) if left else (leaf, t)
    return t


# --- congruence closure: normal forms ---------------------------------------


class SeedSet:
    """One closure seed set and the normal form of its generated congruence.

    ``pairs`` are the seed pairs as tuple trees; ``normal`` maps an encoded tree to a
    string equal for two trees exactly when the congruence relates them.
    """

    def __init__(self, name: str, letters: str, perm: str):
        a, b, c = perm
        self.name = name
        if name == "pair":
            self.pairs = [(a, b)]
            table = str.maketrans(b, a)
            self.normal = lambda enc: enc.translate(table)
            self.merge = {a: a + b, b: a + b}
        elif name == "all-letters":
            self.pairs = [(a, b), (b, c)]
            table = str.maketrans(letters, a * len(letters))
            self.normal = lambda enc: enc.translate(table)
            self.merge = {x: letters for x in letters}
        elif name == "swap":
            lhs, rhs = OPEN + a + SEP + b + CLOSE, OPEN + b + SEP + a + CLOSE
            self.pairs = [((a, b), (b, a))]
            # Rewriting <b*a> to <a*b> creates no new <b*a>, so one pass
            # reaches the normal form.
            self.normal = lambda enc: enc.replace(rhs, lhs)
            self.swap = {lhs: (b, a), rhs: (a, b)}
        else:
            raise ValueError(f"unknown seed set {name!r}")
        self.letters = letters

    def class_count(self, bound: int) -> int:
        """Number of classes in the universe of trees with at most ``bound`` leaves."""
        k = len(self.letters)
        if self.name == "pair":
            return universe_size(bound, k - 1)
        if self.name == "all-letters":
            return universe_size(bound, 1)
        # Trees with no <b*a> subtree: only the 2-leaf tree itself is excluded.
        avoid = [0, k]
        for n in range(2, bound + 1):
            avoid.append(sum(avoid[i] * avoid[n - i] for i in range(1, n)) - (n == 2))
        return sum(avoid[1:])

    def variant(self, rng: Random, t):
        """A tree related to ``t`` by construction."""
        if isinstance(t, str):
            if self.name == "swap":
                return t
            return rng.choice(self.merge.get(t, t))
        if self.name == "swap":
            swapped = self.swap.get(encode(t))
            if swapped and rng.random() < 0.5:
                return swapped
        return (self.variant(rng, t[0]), self.variant(rng, t[1]))


# --- candidate functions ----------------------------------------------------


class Candidate:
    """A candidate function, its CLI spelling and the verdict known by construction.

    ``apply`` evaluates the function on encodings; ``polynomial`` is the
    candidate's own polynomial, or None when it preserves no congruence.
    ``letter_poly`` is the polynomial that agrees with it on the letters.
    """

    def __init__(self, spec: str, apply, polynomial, letter_poly):
        self.spec = spec
        self.apply = apply
        self.polynomial = polynomial
        self.letter_poly = letter_poly

    @property
    def is_cp(self) -> bool:
        return self.polynomial is not None


def eval_poly(poly: str, enc: str) -> str:
    return poly.replace(VARIABLE, enc)


POLY_SHAPES = ((2, 1), (3, 1), (4, 2), (4, 2))  # (leaves, variables) of the random polynomials


def candidates(rng: Random, letters: str, kinds) -> list:
    """One candidate per entry of ``kinds``: mirror, recolor, identity, const or poly.

    recolor, const and poly draw their letter, tree or polynomial from ``rng``.
    Random polynomials take their number of leaves and of variables from
    POLY_SHAPES in turn; shape, letters and which leaves are variables are
    drawn.  Fixing the counts keeps one draw from setting the run's
    slowest candidate.
    """
    out = []
    polys = 0
    for kind in kinds:
        if kind == "mirror":
            out.append(Candidate("mirror", mirror, None, VARIABLE))
        elif kind == "recolor":
            color = rng.choice(letters)
            table = str.maketrans(letters, color * len(letters))
            out.append(Candidate(f"recolor:{color}", lambda e, t=table: e.translate(t), None, color))
        elif kind == "identity":
            out.append(Candidate("identity", lambda e: e, VARIABLE, VARIABLE))
        elif kind == "const":
            const = encode(random_tree(rng, letters, rng.randint(1, 3)))
            out.append(Candidate(f"const:{const}", lambda e, c=const: c, const, const))
        elif kind == "poly":
            leaves, variables = POLY_SHAPES[polys % len(POLY_SHAPES)]
            spots = set(rng.sample(range(leaves), variables))
            leaf = iter(range(leaves))
            poly = "".join(VARIABLE if ch not in SHAPES and next(leaf) in spots else ch
                           for ch in encode(random_tree(rng, letters, leaves)))
            polys += 1
            out.append(Candidate(f"poly:{poly}", lambda e, p=poly: eval_poly(p, e), poly, poly))
        else:
            raise ValueError(f"unknown candidate kind {kind!r}")
    return out


def check_kernel_witness(cand: Candidate, family: str, witness: dict) -> None:
    """Re-verify a not-cp witness by direct evaluation and grafting."""
    t1, t2 = witness["pair"]
    f1, f2 = cand.apply(t1), cand.apply(t2)
    if family in ("skeleton-kernel", "foliage-kernel"):
        view = skeleton_of if family == "skeleton-kernel" else foliage_of
        expect(view(t1) == view(t2), f"{cand.spec}: {family} witness pair differs in the view")
        expect(view(f1) != view(f2), f"{cand.spec}: {family} witness images agree")
        return
    letter, _, replacement = witness["grafting"].partition("->")
    if family == "idempotent-grafting":
        expect(t1 == letter and letter not in replacement and t2 == replacement,
               f"{cand.spec}: malformed idempotent-grafting witness {witness}")
    else:
        expect(graft(t1, letter, replacement) == graft(t2, letter, replacement),
               f"{cand.spec}: grafting witness pair is not in the kernel")
    expect(graft(f1, letter, replacement) != graft(f2, letter, replacement),
           f"{cand.spec}: {family} witness images agree after grafting")
