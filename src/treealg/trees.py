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
import threading
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add
from random import Random
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

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
_NOT_A_LEAF = "?"  # a dotted word's stand-in for a '.' that is no leaf: neither '.' nor a shape character


class _KeepShapes(dict):
    """A ``str.translate`` table that keeps the shape characters and drops every other.

    A code point is looked up in Python once, on its first miss, which stores
    its entry; later lookups of it stay in C.  The table grows by one entry
    per distinct code point ever erased and is never cleared, so it stops
    at the 1,114,112 code points of Unicode: about 74 MB in the worst case,
    which only a process that erases text of nearly every code point
    reaches.  The CLI erases one input per run.
    """

    def __missing__(self, code: int) -> Optional[int]:
        self[code] = kept = code if chr(code) in SHAPE_CHARS else None
        return kept


_KEEP_SHAPES = _KeepShapes()
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
        # indexed by parse_tree's `variable`: the leaves, and the 256-byte tables
        # that write each Latin-1 leaf as '.' and a '.' that is no leaf as
        # _NOT_A_LEAF, so the dotted word of a text's Latin-1 bytes is all '<*>.'
        # exactly when every other character is a leaf
        leaf_sets = (self.letter_set, self.letter_set | {VARIABLE})
        object.__setattr__(self, "leaf_sets", leaf_sets)
        dot, not_a_leaf = ord("."), ord(_NOT_A_LEAF)
        object.__setattr__(self, "dots", tuple(
            bytes(dot if chr(b) in leaves else not_a_leaf if b == dot else b for b in range(256))
            for leaves in leaf_sets
        ))

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def __contains__(self, sym) -> bool:
        return sym in self.letter_set

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


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


# The three views fold a pair recursively, building each word from its
# children's words.  A frame folds its node's children and grandchildren:
# a letter child is read in place, and a pair child's two halves are folded
# inline, so only a pair two levels down gets a call of its own.  A tree
# with n leaves therefore makes one call per pair at even depth (the
# root's is 0): about n/2 on a comb, and at most (2n - 1)/3.  The public
# view answers a lone letter itself.  The leaf test is isinstance, so a str
# subclass is a letter too.  A plain Python-to-Python call uses no C stack
# on CPython 3.11, and a tree d pairs deep nests about d/2 frames, so one
# deeper than about twice the frames left below the recursion limit (a comb
# of about 2,000 levels at the default limit of 1,000) raises
# RecursionError, and the view falls back to the iterative walker.


def _encode(t: Tree) -> str:
    left, right = t
    if not isinstance(left, str):
        a, b = left
        if not isinstance(a, str):
            a = _encode(a)
        if not isinstance(b, str):
            b = _encode(b)
        left = f"<{a}*{b}>"
    if not isinstance(right, str):
        a, b = right
        if not isinstance(a, str):
            a = _encode(a)
        if not isinstance(b, str):
            b = _encode(b)
        right = f"<{a}*{b}>"
    return f"<{left}*{right}>"


def _skeleton(t: Tree) -> str:
    left, right = t
    if isinstance(left, str):
        left = ""
    else:
        a, b = left
        a = "" if isinstance(a, str) else _skeleton(a)
        b = "" if isinstance(b, str) else _skeleton(b)
        left = f"<{a}*{b}>"
    if isinstance(right, str):
        right = ""
    else:
        a, b = right
        a = "" if isinstance(a, str) else _skeleton(a)
        b = "" if isinstance(b, str) else _skeleton(b)
        right = f"<{a}*{b}>"
    return f"<{left}*{right}>"


def _foliage(t: Tree) -> str:
    left, right = t
    if not isinstance(left, str):
        a, b = left
        if not isinstance(a, str):
            a = _foliage(a)
        if not isinstance(b, str):
            b = _foliage(b)
        left = a + b
    if not isinstance(right, str):
        a, b = right
        if not isinstance(a, str):
            a = _foliage(a)
        if not isinstance(b, str):
            b = _foliage(b)
        right = a + b
    return left + right


def encode(t: Tree) -> str:
    """Serialize a tree to its canonical ``<left*right>`` word."""
    if isinstance(t, str):
        return t
    try:
        return _encode(t)
    except RecursionError:
        return _encode_deep(t)


def _encode_deep(t: Tree) -> str:
    """:func:`encode` with an explicit stack, for trees of any depth.

    The stack holds subtrees and the text between and after them.  A pair
    opens in place and its walk goes on into one half: the left, deferring
    ``*right>`` as one text when the right half is a letter; the right, after
    ``<left*`` in place, when only the left half is a letter.
    """
    parts = []
    stack = [t]
    while stack:
        item = stack.pop()
        while not isinstance(item, str):
            left, right = item
            if isinstance(right, str):
                parts.append(SHAPE_OPEN)
                stack.append(f"*{right}>")
                item = left
            elif isinstance(left, str):
                parts.append(f"<{left}*")
                stack.append(SHAPE_CLOSE)
                item = right
            else:
                parts.append(SHAPE_OPEN)
                stack += (SHAPE_CLOSE, right, SHAPE_SEP)
                item = left
        parts.append(item)
    return "".join(parts)


def erase_letters(text: str) -> str:
    """Keep only the shape characters of a text."""
    return text.translate(_KEEP_SHAPES)


def erase_shapes(text: str) -> str:
    """Drop the shape characters of a text."""
    return text.translate(_DROP_SHAPE)


def skeleton(t: Tree) -> str:
    """Shape word of a tree: its encoding with all letters erased."""
    if isinstance(t, str):
        return ""
    try:
        return _skeleton(t)
    except RecursionError:
        return erase_letters(_encode_deep(t))


def foliage(t: Tree) -> str:
    """Leaf word of a tree, left to right."""
    if isinstance(t, str):
        return t
    try:
        return _foliage(t)
    except RecursionError:
        return erase_shapes(_encode_deep(t))


def mirror(t: Tree) -> Tree:
    """Swap left and right children at every node."""
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


def _slotted(s: str) -> str:
    """The dotted word of a skeleton: a ``.`` in each leaf slot."""
    return s.replace("<*", "<.*").replace("*>", "*.>") or "."


# Builders for small trees, one per accepted word, compiled from the word:
# ``<*>`` become ``(,)`` and each leaf slot ``.`` becomes ``L[i]``, where i
# counts the leaves for rebuild and is the slot's index in the word for
# parse_tree, which passes its text.  So a known shape costs one dict read
# and one call, after one encode and one bytes.translate in parse_tree and
# one subset test in rebuild.  The first tree of a shape pays the scan plus one
# compilation, so the memos pay back only where small shapes repeat, as in
# a universe sweep.  The memos are safe to share: an entry is stored only
# after _scan has accepted its word, so it can change no result and no
# error; they hold only shapes with at most _MEMO_LEAVES leaves, 626
# entries each; and under the GIL two threads racing on one word can at
# worst compile the same builder twice.
_MEMO_LEAVES = 8
_MEMO_TEXT = 4 * _MEMO_LEAVES - 3  # the longest word of such a tree
_TO_TUPLE = str.maketrans(SHAPE_CHARS, "(,)")
_PARSED: Dict[bytes, Callable[[str], Tree]] = {}  # dotted word -> builder from the text
_REBUILT: Dict[str, Callable[[str], Tree]] = {}  # skeleton -> builder from the foliage


def _compile(dotted: str, by_position: bool = False) -> Callable[[str], Tree]:
    """Builder of a dotted word's tree, taking its leaves in order, or with
    ``by_position`` a word of the same shape whose leaf slots hold the leaves."""
    parts = dotted.translate(_TO_TUPLE).split(".")
    slots = itertools.accumulate(map(len, parts), lambda i, n: i + n + 1) if by_position else itertools.count()
    body = "".join(f"{part}L[{i}]" for i, part in zip(slots, parts[:-1])) + parts[-1]
    return eval(f"lambda L: {body}")  # noqa: S307


def parse_tree(text: str, alphabet: Alphabet = DEFAULT_ALPHABET, *, variable: bool = False) -> Tree:
    """Parse the ``<left*right>`` grammar; inverse of :func:`encode`.

    With ``variable=True`` the reserved symbol ``x`` is accepted as a leaf
    (polynomial contexts); plain-tree contexts reject it.  The dotted word,
    the text's Latin-1 bytes through one 256-byte table, writes every leaf
    as ``.``, and is all shape characters and dots only when every other
    character is a leaf; whether such a text parses depends only on its
    dotted word, so a dotted word the scanner accepted once is built from
    the memo.  A text with a character past U+00FF has no dotted word and
    is read by the scanner.
    """
    dotted = None
    if len(text) <= _MEMO_TEXT:
        try:
            dotted = str.encode(text, "latin-1").translate(alphabet.dots[variable])
        except UnicodeEncodeError:
            pass
        else:
            build = _PARSED.get(dotted)
            if build is not None:
                return build(text)
    try:
        tree = _scan(text, alphabet.leaf_sets[variable], iter(()))
    except _ScanError as exc:
        raise MalformedTree(text, *exc.args) from None
    if dotted is not None:
        _PARSED[dotted] = _compile(dotted.decode("latin-1"), by_position=True)
    return tree


_SHAPE_SET = frozenset(SHAPE_CHARS)


def rebuild(u: str, s: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> Tree:
    """Reconstruct the unique tree with foliage ``u`` and skeleton ``s``.

    Scans the skeleton with ``u`` as the supply of leaves: a leaf slot
    occurs wherever an operand is expected and the next character does not
    open a subtree, so the split of ``u`` between subtrees is forced by ``s``.
    A skeleton the scanner accepted once is built from the memo.
    """
    if not alphabet.letter_set.issuperset(u):
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


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def universe_size(max_leaves: int, num_letters: int) -> int:
    """Number of trees with at most ``max_leaves`` leaves over ``num_letters`` letters."""
    return sum(catalan(n - 1) * num_letters**n for n in range(1, max_leaves + 1))


def iter_universe(
    max_leaves: int, alphabet: Alphabet = DEFAULT_ALPHABET, *, cap: Optional[int] = DEFAULT_UNIVERSE_CAP
) -> Iterator[Tree]:
    """Stream every tree with at most ``max_leaves`` leaves, in canonical order.

    Order: leaf count, then skeleton (with ``<`` before ``*`` before ``>``),
    then foliage in alphabet order.  The :meth:`Universe.stream` of
    ``Universe(max_leaves, cap=None)``: it holds ``Universe(max_leaves - 1).trees``
    and yields its first tree only after that list is built.  ``cap`` bounds
    that list as :class:`Universe`'s bounds its trees (``None`` for no
    bound): past it, :class:`UniverseTooLarge` is raised before anything is built.
    """
    return _stream(max_leaves, alphabet, cap, variable=False)


def iter_polynomials(
    max_leaves: int, alphabet: Alphabet = DEFAULT_ALPHABET, *, cap: Optional[int] = DEFAULT_UNIVERSE_CAP
) -> Iterator[Tree]:
    """:func:`iter_universe` over the alphabet plus the variable ``x``: it holds
    ``Universe(max_leaves - 1, variable=True).trees``, bounded by ``cap``, and
    yields its first tree only after that list is built.
    """
    return _stream(max_leaves, alphabet, cap, variable=True)


def _stream(max_leaves: int, alphabet: Alphabet, cap: Optional[int], variable: bool) -> Iterator[Tree]:
    if max_leaves > 1:  # the constructor counts before it builds, so a list past the cap costs nothing
        Universe(max_leaves - 1, alphabet, cap, variable=variable)
    return Universe(max_leaves, alphabet, cap=None, variable=variable).stream()


_gc_lock = threading.Lock()
_gc_pauses = 0  # _gc_paused bodies running, in any thread
_gc_was_enabled = False  # the collector's state when the first of them entered


@contextmanager
def _gc_paused():
    """Run the body with the cyclic collector off; the last body to leave, in
    any thread, restores the state that the first to enter found.

    Universe tables are acyclic tuples, lists and dicts, which reference
    counting frees alone; collections over them find nothing to free.  The
    bodies share one count under a lock: a flag per body would let a body
    entered while another thread's pause holds the collector off read it as
    off and so never turn it back on.
    """
    global _gc_pauses, _gc_was_enabled
    with _gc_lock:
        if not _gc_pauses:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_pauses -= 1
            if not _gc_pauses and _gc_was_enabled:
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
    that formula, and :meth:`leaf_keys` by the offsets.  A universe answers
    no per-tree query.  ``trees``, built
    on first use, is the one materialized universe, and the constructor's
    ``cap`` is its size check.  :meth:`stream` yields the same trees for one
    linear pass; it holds ``Universe(max_leaves - 1).trees`` and yields its
    first tree only after that list is built.  ``variable=True``, as in
    :func:`parse_tree`, adds the variable ``x`` as a leaf after the letters.
    """

    def __init__(
        self,
        max_leaves: int,
        alphabet: Alphabet = DEFAULT_ALPHABET,
        cap: Optional[int] = DEFAULT_UNIVERSE_CAP,
        *,
        variable: bool = False,
    ):
        if max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")
        self._symbols = alphabet.symbols + ((VARIABLE,) if variable else ())  # the leaf block, in order
        count = 0
        for n in range(1, max_leaves + 1):  # no universe past 2**63 trees can be built: stop at a lower bound
            if cap is not None and count > max(cap, 2**63):
                raise UniverseTooLarge(count, cap, exact=False)
            count += catalan(n - 1) * len(self._symbols) ** n
        if cap is not None and count > cap:
            raise UniverseTooLarge(count, cap)
        self.max_leaves = max_leaves
        self.alphabet = alphabet
        self.variable = variable
        self._count = count
        # per shape, in position order; shape 0 is the leaf
        self._start, self._size, self._left, self._right = [0], [len(self._symbols)], [0], [0]
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
            trees: List[Tree] = list(self._symbols)
            for left, right in self.pair_blocks():
                trees.extend(itertools.product(trees[left.start:left.stop], trees[right.start:right.stop]))
        return trees

    def stream(self) -> Iterator[Tree]:
        """Every tree in position order, holding only the trees with fewer leaves.

        The trees of ``Universe(max_leaves - 1)``, then the product of each
        ``max_leaves``-leaf block; each pair's halves are entries of that
        smaller list, about a ninth of this universe over three letters,
        built before the first tree is yielded and held by the stream.
        """
        if self.max_leaves == 1:
            return iter(self._symbols)
        smaller = Universe(self.max_leaves - 1, self.alphabet, cap=None, variable=self.variable).trees
        widest = (
            itertools.product(smaller[left.start:left.stop], smaller[right.start:right.stop])
            for (left, right), leaves in zip(self.pair_blocks(), self._leaves[1:])
            if leaves == self.max_leaves
        )
        return itertools.chain(smaller, itertools.chain.from_iterable(widest))

    def words(self) -> List[str]:
        """The encoding of every tree in position order, each composed from its children's."""
        words = list(self._symbols)
        for left, right in self.pair_blocks():
            words.extend(
                f"<{lw}*{rw}>" for lw, rw in itertools.product(words[left.start:left.stop], words[right.start:right.stop])
            )
        return words

    def leaf_keys(self, letter_map: Sequence[int], by_shape: bool = True) -> Iterator[int]:
        """Per tree in position order, an int key of its foliage under a letter map.

        ``letter_map`` sends the i-th leaf symbol to a digit below their
        count k.  The offsets of a block of n leaves run through the
        foliages in lexicographic order, so a tree's offset is its foliage
        read as a base-k numeral, and its key is that numeral read after the
        map, plus its block's start (``by_shape``) or the start of the first
        block of n leaves.  Two trees share a key exactly when they share the
        leaf count, the shape too if ``by_shape``, and the foliage after the
        map.  The numerals are one list of k^n ints per leaf count, and the
        keys are yielded block by block, each block one ``map`` over its
        numerals; nothing is stored on the universe.
        """
        k = len(self._symbols)
        numerals = [[], list(letter_map)]  # per leaf count n, in offset order
        blocks = []
        base = 0
        for start, n in zip(self._start, self._leaves):
            if n == len(numerals):
                numerals.append([p * k + d for p in numerals[-1] for d in numerals[1]])
                base = start
            blocks.append(map(add, numerals[n], itertools.repeat(start if by_shape else base)))
        return itertools.chain.from_iterable(blocks)

    def _locate(self, t: Tree, depth: int) -> Optional[Tuple[int, int]]:
        """``(shape, offset)`` of ``t``, looked for at most ``depth`` pair levels
        down; None past them or on a leaf outside the universe."""
        if isinstance(t, str):
            return (0, self._symbols.index(t)) if t in self._symbols else None
        if depth == 0:
            return None
        left, right = self._locate(t[0], depth - 1), self._locate(t[1], depth - 1)
        if left is None or right is None or (left[0], right[0]) not in self._shape_at:
            return None
        return self._shape_at[left[0], right[0]], left[1] * self._size[right[0]] + right[1]

    def kernel(self, source: str, replacement: Tree) -> Dict[int, int]:
        """Sparse kernel of the grafting ``source -> replacement``: each tree
        that is not first in its class (equal images) to the first's position.

        Empty when ``source`` occurs in ``replacement``: a tree of n leaves, m
        of them ``source``, grafts to n - m + m·|replacement| leaves, so only
        ``source`` grafts to ``replacement`` and the grafting is injective.
        Otherwise the *seed*, ``replacement`` itself, shares the image of
        ``source``, and the later of the two moves to the earlier.  Every other
        tree that moves has a moved child, and the first tree of its class
        holds ``source``, so it is never the seed.  In a block, the trees with
        a moved left (right) child form rows (columns), each one
        ``dict.update`` over two ranges; cells where both children moved are
        rewritten per row.  Empty too when ``source`` or ``replacement`` is
        not in the universe (a foreign letter, or past ``max_leaves`` leaves
        however deep).  O(moved + shapes) memory; nothing is stored on the
        universe.
        """
        leaf, seed = self._locate(source, 0), self._locate(replacement, self.max_leaves)
        if leaf is None or seed is None or source in foliage(replacement):
            return {}
        (seed_shape, seed_offset), (_, first) = max(leaf, seed), min(leaf, seed)
        start, size, left_of, right_of, shape_at = self._start, self._size, self._left, self._right, self._shape_at
        moved = {start[seed_shape] + seed_offset: first}
        # per shape: (offset, first's shape, first's offset) of each moved tree, filled under the bound
        firsts: List[List[Tuple[int, int, int]]] = [[] for _ in start]
        firsts[seed_shape].append((seed_offset, 0, first))

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
            if self._leaves[s] < self.max_leaves:  # the first trees of this block's moved trees
                moved_rows = {l for l, _, _ in rows}
                block = [l * width + r for l in moved_rows for r in range(width)]
                block += [l * width + r for r, _, _ in columns for l in range(height) if l not in moved_rows]
                for offset in block:
                    first = moved[base + offset]
                    shape = bisect_right(start, first) - 1
                    firsts[s].append((offset, shape, first - start[shape]))
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
