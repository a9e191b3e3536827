"""Exception types shared across the package.

Every error carries enough structured data to reproduce the failure; the
CLI serializes it through :meth:`TreeAlgebraError.payload`.  Each names a
fault of the input, never the depth of a tree: no operation is bounded by
the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Optional


class TreeAlgebraError(Exception):
    """Base class for all domain errors raised by this package.

    ``witness`` is the JSON-ready data that reproduces the failure, if any.
    """

    def __init__(self, detail: str, witness: Optional[dict] = None):
        super().__init__(detail)
        self.witness = witness

    def payload(self) -> dict:
        """JSON-ready description of the error, witness data included."""
        data = {"error": type(self).__name__, "detail": str(self)}
        if self.witness is not None:
            data["witness"] = self.witness
        return data


class MalformedTree(TreeAlgebraError):
    def __init__(self, text: str, position: int, reason: str):
        super().__init__(
            f"cannot parse {text!r} at index {position}: {reason}",
            {"text": text, "position": position},
        )


class MalformedSkeleton(TreeAlgebraError):
    def __init__(self, word: str, reason: str):
        super().__init__(f"{word!r} is not a skeleton: {reason}", {"skeleton": word})


class LengthMismatch(TreeAlgebraError):
    """Foliage and skeleton lengths are incompatible (need |s| = 3|u| - 3)."""

    def __init__(self, foliage: str, skeleton: str):
        super().__init__(
            f"skeleton length {len(skeleton)} != 3*{len(foliage)} - 3 "
            f"for foliage {foliage!r}",
            {"foliage": foliage, "skeleton": skeleton},
        )


class UnknownLetter(TreeAlgebraError):
    def __init__(self, symbol: str, context: str = ""):
        msg = f"letter {symbol!r} is not in the configured alphabet"
        if context:
            msg += f" ({context})"
        super().__init__(msg, {"symbol": symbol})


class UniverseTooLarge(TreeAlgebraError):
    def __init__(self, required: int, cap: int, exact: bool = True):
        # with exact=False, required is a count the universe passes, for a bound too large to count
        super().__init__(
            f"universe would hold {'' if exact else 'more than '}{required} trees, cap is {cap}",
            {"required": required, "cap": cap, **({} if exact else {"exact": False})},
        )


class PairOutOfUniverse(TreeAlgebraError):
    def __init__(self, encoded_tree: str, max_leaves: int):
        super().__init__(
            f"tree {encoded_tree} does not fit in the universe "
            f"with at most {max_leaves} leaves",
            {"tree": encoded_tree, "bound": max_leaves},
        )


class MalformedTable(TreeAlgebraError):
    """A table or pair file does not have the documented line format or coverage."""


class UnreadableFile(TreeAlgebraError):
    """An input file cannot be opened or read."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"cannot read {path}: {reason}", {"path": path})


class EmptyWordImage(TreeAlgebraError):
    """A word table maps some letter to the empty word; images must be nonempty."""

    def __init__(self, letter: str):
        super().__init__(f"image of {letter!r} is empty")


class HypothesesViolated(TreeAlgebraError):
    """A generator table fails the synthesis hypotheses.

    ``check`` holds the failed check result (tree or word variant), with the
    offending pair and, for word tables, the failing position.
    """

    def __init__(self, check):
        super().__init__(check.describe(), check.as_json())
        self.check = check


class NotCP(TreeAlgebraError):
    """A candidate function was shown not to be congruence preserving.

    ``witness`` is the pair of trees (or letters) that disagree.
    """

    def __init__(self, stage: str, witness: tuple, at_input=None):
        super().__init__(f"not congruence preserving ({stage})", witness)
        self.stage = stage
        self.at_input = at_input

    def payload(self) -> dict:
        from .trees import encode

        data = {
            "error": "NotCP",
            "detail": str(self),
            "verdict": "not-cp",
            "stage": self.stage,
            "witness": [encode(t) for t in self.witness],
        }
        if self.at_input is not None:
            data["input"] = encode(self.at_input)
        return data


class EvaluationFailure(TreeAlgebraError):
    """A candidate function is partial on a tree it must be evaluated on."""

    def __init__(self, encoded_tree: str):
        super().__init__(f"function has no value for {encoded_tree}", {"tree": encoded_tree})


class AlphabetTooSmall(TreeAlgebraError):
    def __init__(self, needed: int, got: int):
        super().__init__(f"operation needs at least {needed} letters, alphabet has {got}")
