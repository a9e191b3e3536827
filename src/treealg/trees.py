"""Complete binary trees over a finite alphabet.

A tree is either a leaf, written as its single-character letter, or a pair
``(left, right)`` of trees.  The concrete syntax is

    tree ::= LETTER | '<' tree '*' tree '>'

The three shape characters ``< * >`` never collide with letters because
alphabets may not contain them.  Two projections of the encoded word
describe every tree: its *skeleton* (the shape characters only) and its
*foliage* (the leaf letters, left to right).  A tree is uniquely
determined by foliage and skeleton together, and :func:`rebuild` inverts
the pair of projections.  :func:`erase_letters` and :func:`erase_shapes`
take the same two projections of any text.

All values are immutable; every function here is pure, apart from the
file readers at the end.  :func:`parse_tree` and :func:`rebuild` remember
each small word the scanner has accepted and build the next tree of that
shape by one compiled call, which pays only when small shapes repeat;
the memo changes no result.
"""

from __future__ import annotations

import gc
import itertools
import math
import re
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from random import Random
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from .errors import (
    LengthMismatch,
    MalformedSkeleton,
    MalformedTable,
    MalformedTree,
    UniverseTooLarge,
    UnknownLetter,
    UnreadableFile,
)

Tree = Union[str, Tuple["Tree", "Tree"]]

SHAPE_OPEN = "<"
SHAPE_SEP = "*"
SHAPE_CLOSE = ">"
SHAPE_CHARS = "<*>"

# Reserved variable symbol for polynomials; never a plain letter.
VARIABLE = "x"

# Triangle/bullet rendering for `--unicode` output.
UNICODE_SHAPES = str.maketrans(SHAPE_CHARS, "◂•▸")

_DROP_SHAPE = str.maketrans("", "", SHAPE_CHARS)
_NON_SHAPE = re.compile(r"[^<*>]+")
_XI_ORDER = str.maketrans(SHAPE_CHARS, "012")

DEFAULT_UNIVERSE_CAP = 200_000


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of leaf letters; order fixes enumeration and reports."""

    symbols: Tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must not be empty")
        seen = set()
        for sym in self.symbols:
            if len(sym) != 1 or not sym.isprintable():
                raise ValueError(f"letters must be single printable characters, got {sym!r}")
            if sym in SHAPE_CHARS or sym == VARIABLE:
                raise ValueError(f"{sym!r} is reserved and cannot be a letter")
            if sym in seen:
                raise ValueError(f"duplicate letter {sym!r}")
            seen.add(sym)
        object.__setattr__(self, "letter_set", frozenset(seen))
        # every letter, and the variable, written as '.': a text's dotted word
        object.__setattr__(self, "dots", str.maketrans(dict.fromkeys(seen | {VARIABLE}, ".")))

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def __contains__(self, sym) -> bool:
        return sym in self.letter_set

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, sym: str) -> int:
        return self.symbols.index(sym)


DEFAULT_ALPHABET = Alphabet.from_string("abc")


def _require_cover(table: Mapping[str, object], alphabet: Alphabet) -> None:
    """Raise unless the keys of a letter table are exactly the alphabet."""
    missing = [a for a in alphabet if a not in table]
    extra = [a for a in table if a not in alphabet]
    if missing or extra:
        raise MalformedTable(
            f"table must cover the alphabet exactly; missing {missing}, extra {extra}"
        )


def leaf_count(t: Tree) -> int:
    return len(foliage(t))


# The three views fold the tree recursively, building each word from its
# children's words.  A plain Python-to-Python call uses no C stack on
# CPython 3.11, so a tree deeper than the recursion limit raises
# RecursionError, and the view falls back to the iterative walker.


def _encode(t: Tree) -> str:
    if isinstance(t, str):
        return t
    left, right = t
    return f"<{_encode(left)}*{_encode(right)}>"


def _skeleton(t: Tree) -> str:
    if isinstance(t, str):
        return ""
    left, right = t
    return f"<{_skeleton(left)}*{_skeleton(right)}>"


def _foliage(t: Tree) -> str:
    if isinstance(t, str):
        return t
    left, right = t
    return _foliage(left) + _foliage(right)


def encode(t: Tree) -> str:
    """Serialize a tree to its canonical ``<left*right>`` word."""
    try:
        return _encode(t)
    except RecursionError:
        return _encode_deep(t)


def _encode_deep(t: Tree) -> str:
    """:func:`encode` with an explicit stack, for trees of any depth."""
    parts = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        else:
            left, right = item
            stack.extend((SHAPE_CLOSE, right, SHAPE_SEP, left, SHAPE_OPEN))
    return "".join(parts)


def erase_letters(text: str) -> str:
    """Keep only the shape characters of a text."""
    return _NON_SHAPE.sub("", text)


def erase_shapes(text: str) -> str:
    """Drop the shape characters of a text."""
    return text.translate(_DROP_SHAPE)


def skeleton(t: Tree) -> str:
    """Shape word of a tree: its encoding with all letters erased."""
    try:
        return _skeleton(t)
    except RecursionError:
        return erase_letters(_encode_deep(t))


def foliage(t: Tree) -> str:
    """Leaf word of a tree, left to right."""
    try:
        return _foliage(t)
    except RecursionError:
        return erase_shapes(_encode_deep(t))


def _mirror(t: Tree) -> Tree:
    if isinstance(t, str):
        return t
    left, right = t
    return (_mirror(right), _mirror(left))


def mirror(t: Tree) -> Tree:
    """Swap left and right children at every node."""
    try:
        return _mirror(t)
    except RecursionError:
        return _tree_or_raise(_fold_deep(t, lambda a: a, lambda node, left, right: (right, left)))


_JOIN = object()  # on a fold's stack, above a pair: its two halves were folded last


def _fold_deep(t, leaf: Callable[[str], object], pair: Callable[[Tree, object, object], object]):
    """Post-order fold with an explicit stack, for trees of any depth.

    A letter folds to ``leaf(letter)``, a pair ``node`` to ``pair(node, left,
    right)`` with its halves' folds, so ``pair`` can return ``node`` itself
    when nothing below it changed.  ``None`` if ``t`` is not a tree, or at the
    first ``None`` that ``leaf`` or ``pair`` returns.
    """
    done = []  # folds of the finished subtrees, left before right
    stack = [t]
    while stack:
        node = stack.pop()
        if node is _JOIN:
            right = done.pop()
            value = pair(stack.pop(), done.pop(), right)
        elif isinstance(node, str):
            value = leaf(node)
        elif isinstance(node, tuple) and len(node) == 2:
            stack += (node, _JOIN, node[1], node[0])
            continue
        else:
            return None
        if value is None:
            return None
        done.append(value)
    return done[0]


def _tree_or_raise(image: Optional[Tree]) -> Tree:
    """The tree a fold into trees gave; its ``None`` for a non-tree input raises :class:`TypeError`."""
    if image is None:
        raise TypeError("not a tree")
    return image


class _ScanError(Exception):
    """First bad position of a scan, as ``(index, reason)``."""


def _scan(text: str, letters, leaves: Iterator[str]) -> Tree:
    """Iterative pushdown scan of ``text``: the one walker of the grammar.

    At each operand position the scan opens a node for every ``<``, then
    takes a leaf: the next character if it is in ``letters``, otherwise the
    next item of ``leaves``.  The stack holds ``None`` for a node awaiting
    its left subtree and the left subtree of a node awaiting its right one.
    """
    n = len(text)
    pos = 0
    stack = []
    while True:
        while pos < n and text[pos] == SHAPE_OPEN:
            stack.append(None)
            pos += 1
        if pos < n and text[pos] in letters:
            node = text[pos]
            pos += 1
        else:
            node = next(leaves, None)
            if node is None:
                raise _ScanError(pos, f"unexpected {text[pos]!r}" if pos < n else "unexpected end of input")
        while stack and stack[-1] is not None:
            if pos >= n or text[pos] != SHAPE_CLOSE:
                raise _ScanError(pos, f"expected {SHAPE_CLOSE!r}")
            node = (stack.pop(), node)
            pos += 1
        if not stack:
            if pos != n:
                raise _ScanError(pos, "trailing input")
            return node
        if pos >= n or text[pos] != SHAPE_SEP:
            raise _ScanError(pos, f"expected {SHAPE_SEP!r}")
        stack[-1] = node
        pos += 1


# Builders for small trees, one per accepted word, compiled from the word:
# ``<*>`` become ``(,)`` and the i-th leaf slot ``.`` becomes ``L[i]``, so a
# known shape costs a couple of string passes and one call.  The first tree
# of a shape pays the scan plus one compilation, so the memos pay back only
# where small shapes repeat, as in a universe sweep.  The memos are
# safe to share: an entry is stored only after _scan has accepted its word,
# so it can change no result and no error; they hold only shapes with at
# most _MEMO_LEAVES leaves, 626 entries each; and under the GIL two threads
# racing on one word can at worst compile the same builder twice.
# iter_universe labels each shape of its sweep by the same compiled builders,
# which _compile keeps per dotted word.
_MEMO_LEAVES = 8
_MEMO_TEXT = 4 * _MEMO_LEAVES - 3  # the longest word of such a tree
_TO_TUPLE = str.maketrans(SHAPE_CHARS, "(,)")
_PARSED: Dict[str, Callable[[str], Tree]] = {}  # dotted word -> builder
_REBUILT: Dict[str, Callable[[str], Tree]] = {}  # skeleton -> builder


@lru_cache(maxsize=None)
def _compile(dotted: str) -> Callable[[str], Tree]:
    """Builder taking the leaves of a dotted word in order to its tree."""
    parts = dotted.translate(_TO_TUPLE).split(".")
    body = "".join(f"{part}L[{i}]" for i, part in enumerate(parts[:-1])) + parts[-1]
    return eval(f"lambda L: {body}")  # noqa: S307


def parse_tree(text: str, alphabet: Alphabet = DEFAULT_ALPHABET, *, variable: bool = False) -> Tree:
    """Parse the ``<left*right>`` grammar; inverse of :func:`encode`.

    With ``variable=True`` the reserved symbol ``x`` is accepted as a leaf
    (polynomial contexts); plain-tree contexts reject it.  When every
    non-shape character is a letter, whether the text parses depends only on
    its dotted word, so a dotted word the scanner accepted once is built
    from the memo.
    """
    letters = alphabet.letter_set | {VARIABLE} if variable else alphabet.letter_set
    dotted = None
    if len(text) <= _MEMO_TEXT:
        leaves = text.translate(_DROP_SHAPE)
        if set(leaves) <= letters:
            dotted = text.translate(alphabet.dots)
            build = _PARSED.get(dotted)
            if build is not None:
                return build(leaves)
    try:
        tree = _scan(text, letters, iter(()))
    except _ScanError as exc:
        raise MalformedTree(text, *exc.args) from None
    if dotted is not None:
        _PARSED[dotted] = _compile(dotted)
    return tree


_SHAPE_SET = frozenset(SHAPE_CHARS)


def rebuild(u: str, s: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> Tree:
    """Reconstruct the unique tree with foliage ``u`` and skeleton ``s``.

    Scans the skeleton with ``u`` as the supply of leaves: a leaf slot
    occurs wherever an operand is expected and the next character does not
    open a subtree, so the split of ``u`` between subtrees is forced by ``s``.
    A skeleton the scanner accepted once is built from the memo.
    """
    if not set(u) <= alphabet.letter_set:
        bad = next(ch for ch in u if ch not in alphabet.letter_set)
        raise UnknownLetter(bad, "foliage")
    if len(s) != 3 * len(u) - 3:
        raise LengthMismatch(u, s)
    small = len(u) <= _MEMO_LEAVES
    if small:
        build = _REBUILT.get(s)
        if build is not None:
            return build(u)
    if not set(s) <= _SHAPE_SET:
        bad = next(ch for ch in s if ch not in _SHAPE_SET)
        raise MalformedSkeleton(s, f"unexpected {bad!r}")
    try:
        tree = _scan(s, (), iter(u))
    except _ScanError as exc:
        pos, reason = exc.args
        raise MalformedSkeleton(s, f"{reason} at index {pos}") from None
    if small:
        _REBUILT[s] = _compile(_slotted(s))
    return tree


def _slotted(s: str) -> str:
    """The dotted word of a skeleton: a ``.`` in each leaf slot."""
    return s.replace("<*", "<.*").replace("*>", "*.>") or "."


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def universe_size(max_leaves: int, num_letters: int) -> int:
    """Number of trees with at most ``max_leaves`` leaves over ``num_letters`` letters."""
    return sum(catalan(n - 1) * num_letters**n for n in range(1, max_leaves + 1))


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple:
    """All tree shapes with ``n`` leaves, in shape-word order.

    A shape is a tree whose leaves are the empty string, so its
    :func:`encode` is its shape word.
    """
    if n == 1:
        return ("",)
    out = []
    for i in range(1, n):
        for left in _shapes(i):
            for right in _shapes(n - i):
                out.append((left, right))
    out.sort(key=_shape_key)
    return tuple(out)


def _shape_key(shape) -> str:
    # '<' < '*' < '>' ordering, realized by translating to digits.
    return encode(shape).translate(_XI_ORDER)


def iter_universe(max_leaves: int, alphabet: Alphabet = DEFAULT_ALPHABET) -> Iterator[Tree]:
    """Stream every tree with at most ``max_leaves`` leaves, in canonical order.

    Order: leaf count, then skeleton (with ``<`` before ``*`` before ``>``),
    then foliage in alphabet order.  Uncapped; intended for linear sweeps.
    ``Universe(max_leaves, alphabet).trees`` is the same list, materialized
    after the universe's cap check.
    """
    return _iter_trees(max_leaves, alphabet.symbols)


def iter_polynomials(max_leaves: int, alphabet: Alphabet = DEFAULT_ALPHABET) -> Iterator[Tree]:
    """Every tree over the alphabet plus the variable, in canonical order."""
    return _iter_trees(max_leaves, alphabet.symbols + (VARIABLE,))


def _iter_trees(max_leaves: int, symbols: Tuple[str, ...]) -> Iterator[Tree]:
    if max_leaves < 1:
        raise ValueError("max_leaves must be >= 1")
    for n in range(1, max_leaves + 1):
        for shape in _shapes(n):
            build = _compile(_slotted(encode(shape)))
            for labels in itertools.product(symbols, repeat=n):
                yield build(labels)


@contextmanager
def _gc_paused():
    """Run the body with the cyclic collector off, then restore the caller's state.

    Universe tables are acyclic tuples, lists and dicts, which reference
    counting frees alone; collections over them find nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Universe:
    """The bounded universe as a table of shape blocks.

    Positions number every tree with at most ``max_leaves`` leaves in
    enumeration order: the letters first, then the trees of each shape in
    shape order, children before parents.  The trees of one pair shape
    ``(L, R)`` form one block, the product of the blocks of ``L`` and ``R``
    with the left child most significant, so the tree with children at
    offsets ``l`` and ``r`` of their blocks sits at
    ``start[(L, R)] + l * size[R] + r``.  The table holds per shape its
    start, size, subshapes and leaf count, and the shape of each pair of
    subshapes: O(shapes), 626 at bound 8, and no tree.  The whole-universe
    passes read it: :meth:`pair_blocks` for the closure, :meth:`kernel` by
    that formula.  A universe answers no per-tree query.  ``trees``, built
    on first use, is the one materialized universe, and the constructor's
    ``cap`` its size check.
    """

    def __init__(
        self,
        max_leaves: int,
        alphabet: Alphabet = DEFAULT_ALPHABET,
        cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
    ):
        if max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")
        count = 0
        for n in range(1, max_leaves + 1):  # no universe past 2**63 trees can be built: stop at a lower bound
            if cap is not None and count > max(cap, 2**63):
                raise UniverseTooLarge(count, cap, exact=False)
            count += catalan(n - 1) * len(alphabet) ** n
        if cap is not None and count > cap:
            raise UniverseTooLarge(count, cap)
        self.max_leaves = max_leaves
        self.alphabet = alphabet
        self._count = count
        # per shape, in position order; shape 0 is the leaf
        self._start, self._size, self._left, self._right = [0], [len(alphabet)], [0], [0]
        self._leaves = [1]
        self._shape_at: Dict[Tuple[int, int], int] = {}  # (left shape, right shape) -> shape
        shape_id = {"": 0}
        for n in range(2, max_leaves + 1):
            for shape in _shapes(n):
                left, right = shape_id[shape[0]], shape_id[shape[1]]
                shape_id[shape] = self._shape_at[left, right] = len(self._start)
                self._start.append(self._start[-1] + self._size[-1])
                self._size.append(self._size[left] * self._size[right])
                self._left.append(left)
                self._right.append(right)
                self._leaves.append(n)

    def __len__(self) -> int:
        return self._count

    def pair_blocks(self) -> List[Tuple[range, range]]:
        """The blocks of the pair shapes in position order, each as ``(lefts, rights)``.

        ``lefts`` and ``rights`` are the blocks of the two subshapes; the
        block's trees have the children ``product(lefts, rights)`` in order.
        """
        block = [range(start, start + size) for start, size in zip(self._start, self._size)]
        return [(block[left], block[right]) for left, right in zip(self._left[1:], self._right[1:])]

    @cached_property
    def trees(self) -> List[Tree]:
        """Every tree in position order; each pair's subtrees are the list's own entries."""
        with _gc_paused():
            trees: List[Tree] = list(self.alphabet.symbols)
            for left, right in self.pair_blocks():
                trees.extend(itertools.product(trees[left.start:left.stop], trees[right.start:right.stop]))
        return trees

    def words(self) -> List[str]:
        """The encoding of every tree in position order, each composed from its children's."""
        words = list(self.alphabet.symbols)
        for left, right in self.pair_blocks():
            words.extend(
                f"<{lw}*{rw}>" for lw, rw in itertools.product(words[left.start:left.stop], words[right.start:right.stop])
            )
        return words

    def kernel(self, leaf_image: Mapping[str, Tree]) -> Dict[int, int]:
        """Sparse kernel of the homomorphism extending ``leaf_image``: each tree
        that is not first in its class (equal images) to the first's position.

        The first tree with a pair image is the first leaf with it, else the
        pair of the first trees with its halves' images.  So a pair tree moves
        on its own only as a *seed*: the pair of the first trees with the
        halves of a leaf's image moves to that leaf.  Every other pair tree
        that moves has a moved child.  In a block, the trees with a moved left
        (right) child form rows (columns), each one ``dict.update`` over two
        ranges; cells where both children moved are rewritten per row.
        O(moved + shapes) memory; nothing is stored on the universe.
        """
        start, size, left_of, right_of, shape_at = self._start, self._size, self._left, self._right, self._shape_at
        moved: Dict[int, int] = {}
        first_leaf: Dict[Tree, int] = {}
        for i, a in enumerate(self.alphabet.symbols):
            first = first_leaf.setdefault(leaf_image[a], i)
            if first != i:
                moved[i] = first
        # per shape: (offset, first's shape, first's offset) of each moved tree, filled under the bound
        firsts: List[List[Tuple[int, int, int]]] = [[(i, 0, first) for i, first in moved.items()]]
        firsts += [[] for _ in range(1, len(start))]

        def first_tree(t: Tree, depth: int) -> Optional[Tuple[int, int]]:
            # (shape, offset) of the first tree with image t, looked for at most depth pair levels down
            i = first_leaf.get(t)
            if i is not None:
                return 0, i
            return None if depth == 0 or isinstance(t, str) else first_pair(t, depth)

        def first_pair(t: Tree, depth: int) -> Optional[Tuple[int, int]]:
            # (shape, offset) of the pair of the first trees with t's halves' images; None past the bound
            left, right = first_tree(t[0], depth - 1), first_tree(t[1], depth - 1)
            if left is None or right is None or (left[0], right[0]) not in shape_at:
                return None
            return shape_at[left[0], right[0]], left[1] * size[right[0]] + right[1]

        seeds: Dict[int, int] = {}  # seed position -> its leaf
        for image, i in first_leaf.items():
            seed = None if isinstance(image, str) else first_pair(image, self.max_leaves)
            if seed is not None:
                shape, offset = seed
                seeds[start[shape] + offset] = moved[start[shape] + offset] = i
                firsts[shape].append((offset, 0, i))

        update = moved.update
        for s in range(1, len(start)):
            left_shape, right_shape = left_of[s], right_of[s]
            rows, columns = firsts[left_shape], firsts[right_shape]
            if not rows and not columns:
                continue
            base, width, height = start[s], size[right_shape], size[left_shape]
            for l, shape, offset in rows:  # left child moved: to (first, right child)
                row, target = base + l * width, start[shape_at[shape, right_shape]] + offset * width
                update(zip(range(row, row + width), range(target, target + width)))
            by_shape: Dict[int, List[Tuple[int, int]]] = {}
            for r, shape, offset in columns:  # right child moved: to (left child, first)
                step, target = size[shape], start[shape_at[left_shape, shape]] + offset
                update(zip(range(base + r, base + height * width, width), range(target, target + height * step, step)))
                by_shape.setdefault(shape, []).append((r, offset))
            for l, left_first, left_offset in rows:  # both moved: to (first, first)
                row = base + l * width
                for shape, cells in by_shape.items():
                    target = start[shape_at[left_first, shape]] + left_offset * size[shape]
                    update([(row + r, target + offset) for r, offset in cells])
            if self._leaves[s] < self.max_leaves:  # the first trees of this block's moved trees, read through the seeds
                moved_rows = {l for l, _, _ in rows}
                block = [l * width + r for l in moved_rows for r in range(width)]
                block += [l * width + r for r, _, _ in columns for l in range(height) if l not in moved_rows]
                for offset in block:
                    first = moved[base + offset]
                    first = seeds.get(first, first)
                    shape = bisect_right(start, first) - 1
                    firsts[s].append((offset, shape, first - start[shape]))
        if seeds:  # a tree whose pair of first trees is a seed moves to the seed's leaf
            update([(i, seeds[first]) for i, first in moved.items() if first in seeds])
        return moved


def random_tree(rng: Random, letters: Tuple[str, ...], max_leaves: int) -> Tree:
    """Random tree: leaf count uniform in 1..max_leaves, then shape, then labels."""
    n = rng.randint(1, max_leaves)
    shape = rng.choice(_shapes(n))
    labels = [rng.choice(letters) for _ in range(n)]
    return _scan(encode(shape), (), iter(labels))


def read_lines(path: str) -> Iterator[Tuple[int, str]]:
    """Numbered lines of a text file, stripped; blank and ``#`` lines skipped."""
    try:
        with open(path, encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield number, line
    except OSError as exc:
        raise UnreadableFile(path, exc.strerror or str(exc)) from None
    except UnicodeDecodeError as exc:
        raise UnreadableFile(path, str(exc)) from None


def read_pairs(path: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> List[Tuple[Tree, Tree]]:
    """Tree pairs from a file with one ``TREE TREE`` line each."""
    pairs = []
    for number, line in read_lines(path):
        fields = line.split()
        if len(fields) != 2:
            raise MalformedTable(f"{path}:{number}: expected 'TREE TREE'")
        pairs.append((parse_tree(fields[0], alphabet), parse_tree(fields[1], alphabet)))
    return pairs


def read_table(
    path: str, parse_key: Callable[[str], object], parse_value: Callable[[str], object], expected: str
) -> dict:
    """Map from a file with one ``KEY VALUE`` line each; a repeated key is an error.

    ``parse_key`` returns ``None`` for a key of the wrong form, and the line is
    then reported as not matching ``expected`` (such as ``LETTER VALUE``).
    A key has one spelling, so repeats are found on the key's text, and
    keys are never compared as trees, which recurses once per level.
    """
    table = {}
    seen = set()
    for number, line in read_lines(path):
        fields = line.split()
        key = parse_key(fields[0]) if len(fields) == 2 else None
        if key is None:
            raise MalformedTable(f"{path}:{number}: expected '{expected}'")
        if fields[0] in seen:
            raise MalformedTable(f"{path}:{number}: duplicate entry for {fields[0]!r}")
        seen.add(fields[0])
        table[key] = parse_value(fields[1])
    return table
