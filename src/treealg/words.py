"""Word analogue of tree polynomials: shape is forgotten, only length is kept.

A word polynomial is a word over the alphabet plus the variable ``x``;
it induces the function substituting its argument for every ``x``.  A
table of nonempty, equal-length images that passes a pairwise
substitution test decomposes position by position: each position is
either the identity on letters (emit ``x``) or a single constant letter.
Tree synthesis runs the same check and dichotomy on the foliages of its images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

from .errors import EmptyWordImage, HypothesesViolated, UnknownLetter
from .morphisms import WordSubstitution, substitute
from .trees import Alphabet, DEFAULT_ALPHABET, VARIABLE, _require_cover


def eval_word_poly(poly: str, word: str) -> str:
    """Substitute ``word`` for every occurrence of the variable in ``poly``."""
    return poly.replace(VARIABLE, word)


@dataclass(frozen=True)
class WordHypothesisCheck:
    ok: bool
    image_length: Optional[int] = None
    failure: Optional[str] = None  # "length-mismatch" | "substitution-compatibility" | "basis-dichotomy"
    pair: Optional[Tuple[str, str]] = None
    position: Optional[int] = None

    def describe(self) -> str:
        if self.ok:
            return f"hypotheses hold, image length {self.image_length}"
        msg = f"{self.failure} on letter pair {self.pair}"
        if self.position is not None:
            msg += f" at position {self.position}"
        return msg

    def as_json(self) -> dict:
        if self.ok:
            return {"ok": True, "image_length": self.image_length}
        return {
            "ok": False,
            "failure": self.failure,
            "pair": list(self.pair),
            "position": self.position,
        }


def _leaves(words: Mapping[str, str], symbols: Tuple[str, ...], violation: Callable) -> List[str]:
    """The polynomial's leaf at each position of the letters' equal-length words.

    Every letter maps to itself there (the variable), or the first that does
    not, the anchor, maps to a constant that all letters map to; the first
    offender raises on ``violation(position, anchor, offender, constant)``.
    """
    leaves = []
    for i, column in enumerate(zip(*(words[a] for a in symbols))):
        for anchor, constant in zip(symbols, column):
            if constant != anchor:
                offender = next((b for b, image in zip(symbols, column) if image != constant), None)
                if offender is not None:
                    raise HypothesesViolated(violation(i, anchor, offender, constant))
                leaves.append(constant)
                break
        else:
            leaves.append(VARIABLE)
    return leaves


def check_word_hypotheses(
    table: Mapping[str, str], alphabet: Alphabet = DEFAULT_ALPHABET
) -> WordHypothesisCheck:
    """Images must be nonempty over the alphabet, equal-length, and pairwise
    compatible under the letter-collapsing substitutions."""
    _require_cover(table, alphabet)
    for a in alphabet:
        image = table[a]
        if image == "":
            raise EmptyWordImage(a)
        for ch in image:
            if ch not in alphabet:
                raise UnknownLetter(ch, f"image of {a!r}")
    first = alphabet.symbols[0]
    length = len(table[first])
    for a in alphabet.symbols[1:]:
        if len(table[a]) != length:
            return WordHypothesisCheck(False, failure="length-mismatch", pair=(first, a))
    for a, b in itertools.combinations(alphabet.symbols, 2):
        sub = WordSubstitution(a, b)
        left = substitute(sub, table[a])
        right = substitute(sub, table[b])
        if left != right:
            position = next(i for i, (x, y) in enumerate(zip(left, right)) if x != y)
            return WordHypothesisCheck(
                False, failure="substitution-compatibility", pair=(a, b), position=position
            )
    return WordHypothesisCheck(True, image_length=length)


def synthesize_word(table: Mapping[str, str], alphabet: Alphabet = DEFAULT_ALPHABET) -> str:
    """Word polynomial whose values on single letters match the table.

    Each position of the equal-length images resolves independently: all
    letters map to themselves (emit the variable) or all map to one
    constant.  A position violating the dichotomy is reported with the
    offending letter pair; with at least three letters it cannot pass the
    pairwise substitution check.
    """
    check = check_word_hypotheses(table, alphabet)
    if not check.ok:
        raise HypothesesViolated(check)
    return "".join(_leaves(table, alphabet.symbols, lambda i, anchor, offender, constant: WordHypothesisCheck(
        False, failure="basis-dichotomy", pair=(offender, constant), position=i)))
