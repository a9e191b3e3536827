"""Structure-preserving maps: graftings and word substitutions.

A grafting replaces every leaf carrying one designated letter by a fixed
tree; it is the unique map that commutes with the pairing operation and
acts as specified on leaves.  Word substitutions do the same for words.
The kernel of any of these ("both sides map to the same image") is a
congruence, which is how they are used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .trees import Alphabet, DEFAULT_ALPHABET, SHAPE_CHARS, Tree, _fold_deep, _tree_or_raise, foliage


@dataclass(frozen=True)
class Grafting:
    """Replace every ``source`` leaf by ``replacement``."""

    source: str
    replacement: Tree

    def __post_init__(self):
        if len(self.source) != 1 or self.source in SHAPE_CHARS:
            raise ValueError(f"grafting source must be a letter, got {self.source!r}")


@dataclass(frozen=True)
class WordSubstitution:
    """Replace every occurrence of ``source`` by ``replacement`` (may be empty)."""

    source: str
    replacement: str

    def __post_init__(self):
        if len(self.source) != 1:
            raise ValueError(f"substitution source must be a letter, got {self.source!r}")


def graft(g: Grafting, t: Tree) -> Tree:
    """Image of ``t`` under ``g``; unchanged subtrees are shared, not copied.

    A recursive fold of two pair levels per frame, like the tree views; a
    tree that nests more frames than the recursion limit leaves, one per two
    pair levels, goes through the iterative fold instead.
    """
    try:
        return _graft(g.source, g.replacement, t)
    except RecursionError:
        return _tree_or_raise(_fold_deep(
            t,
            partial(_graft, g.source, g.replacement),
            lambda node, left, right: node if left is node[0] and right is node[1] else (left, right),
        ))


def _graft(source: str, replacement: Tree, t: Tree) -> Tree:
    # folds two pair levels per frame, as the tree views do, so a tree makes one call per
    # pair at even depth; the leaf branch serves a lone letter and the iterative fold
    if isinstance(t, str):
        return replacement if t == source else t
    left, right = t
    if isinstance(left, str):
        new_left = replacement if left == source else left
    else:
        a, b = left
        new_a = (replacement if a == source else a) if isinstance(a, str) else _graft(source, replacement, a)
        new_b = (replacement if b == source else b) if isinstance(b, str) else _graft(source, replacement, b)
        new_left = left if new_a is a and new_b is b else (new_a, new_b)
    if isinstance(right, str):
        new_right = replacement if right == source else right
    else:
        a, b = right
        new_a = (replacement if a == source else a) if isinstance(a, str) else _graft(source, replacement, a)
        new_b = (replacement if b == source else b) if isinstance(b, str) else _graft(source, replacement, b)
        new_right = right if new_a is a and new_b is b else (new_a, new_b)
    if new_left is left and new_right is right:
        return t
    return (new_left, new_right)


def substitute(sub: WordSubstitution, word: str) -> str:
    return word.replace(sub.source, sub.replacement)


def is_idempotent(g: Grafting) -> bool:
    """Letter criterion: the source letter does not occur in the replacement.

    Equivalent to ``graft(g, graft(g, t)) == graft(g, t)`` for all trees,
    except for the degenerate source-to-itself grafting, which the letter
    test rejects although it is the identity map.
    """
    return g.source not in foliage(g.replacement)


def commute_check(g: Grafting, t: Tree) -> bool:
    """Grafting then taking the foliage equals substituting in the foliage."""
    sub = WordSubstitution(g.source, foliage(g.replacement))
    return foliage(graft(g, t)) == substitute(sub, foliage(t))


def recolor(t: Tree, color: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> Tree:
    """Send every letter of the tree to ``color``.

    Composition of single-letter graftings d -> color over the alphabet;
    order is irrelevant since no source equals the target letter.
    """
    if color not in alphabet:
        raise ValueError(f"{color!r} is not in the alphabet")
    for letter in alphabet:
        if letter != color:
            t = graft(Grafting(letter, color), t)
    return t
