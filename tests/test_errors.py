"""Error payloads and messages: exact bytes for every domain error class.

The CLI prints ``json.dumps(exc.payload())`` under ``--json`` and ``str(exc)``
otherwise, so both are part of the output contract.
"""

import json

import pytest

from treealg import errors as E
from treealg.polynomials import HypothesisCheck
from treealg.words import WordHypothesisCheck

CASES = [
    (
        E.MalformedTree("<a*b", 4, "unexpected end of input"),
        '{"error":"MalformedTree","detail":"cannot parse \'<a*b\' at index 4: '
        'unexpected end of input","witness":{"text":"<a*b","position":4}}',
        "cannot parse '<a*b' at index 4: unexpected end of input",
    ),
    (
        E.MalformedSkeleton("<*", "unbalanced shape word"),
        '{"error":"MalformedSkeleton","detail":"\'<*\' is not a skeleton: '
        'unbalanced shape word","witness":{"skeleton":"<*"}}',
        "'<*' is not a skeleton: unbalanced shape word",
    ),
    (
        E.LengthMismatch("ab", ""),
        '{"error":"LengthMismatch","detail":"skeleton length 0 != 3*2 - 3 for '
        'foliage \'ab\'","witness":{"foliage":"ab","skeleton":""}}',
        "skeleton length 0 != 3*2 - 3 for foliage 'ab'",
    ),
    (
        E.UnknownLetter("q"),
        '{"error":"UnknownLetter","detail":"letter \'q\' is not in the configured '
        'alphabet","witness":{"symbol":"q"}}',
        "letter 'q' is not in the configured alphabet",
    ),
    (
        E.UnknownLetter("q", "input word"),
        '{"error":"UnknownLetter","detail":"letter \'q\' is not in the configured '
        'alphabet (input word)","witness":{"symbol":"q"}}',
        "letter 'q' is not in the configured alphabet (input word)",
    ),
    (
        E.UniverseTooLarge(39, 10),
        '{"error":"UniverseTooLarge","detail":"universe would hold 39 trees, cap is 10",'
        '"witness":{"required":39,"cap":10}}',
        "universe would hold 39 trees, cap is 10",
    ),
    (
        E.PairOutOfUniverse("<<a*b>*<a*b>>", 2),
        '{"error":"PairOutOfUniverse","detail":"tree <<a*b>*<a*b>> does not fit in the '
        'universe with at most 2 leaves","witness":{"tree":"<<a*b>*<a*b>>","bound":2}}',
        "tree <<a*b>*<a*b>> does not fit in the universe with at most 2 leaves",
    ),
    (
        E.MalformedTable("pairs.txt:1: expected 'TREE TREE'"),
        '{"error":"MalformedTable","detail":"pairs.txt:1: expected \'TREE TREE\'"}',
        "pairs.txt:1: expected 'TREE TREE'",
    ),
    (
        E.UnreadableFile("nope.txt", "No such file or directory"),
        '{"error":"UnreadableFile","detail":"cannot read nope.txt: No such file or directory",'
        '"witness":{"path":"nope.txt"}}',
        "cannot read nope.txt: No such file or directory",
    ),
    (
        E.EmptyWordImage("b"),
        '{"error":"EmptyWordImage","detail":"image of \'b\' is empty"}',
        "image of 'b' is empty",
    ),
    (
        E.HypothesesViolated(
            HypothesisCheck(False, failure="grafting-compatibility", pair=("a", "c"))
        ),
        '{"error":"HypothesesViolated","detail":"grafting-compatibility on letter pair '
        '(a, c)","witness":{"ok":false,"failure":"grafting-compatibility","pair":["a","c"]}}',
        "grafting-compatibility on letter pair (a, c)",
    ),
    (
        E.HypothesesViolated(
            WordHypothesisCheck(
                False, failure="substitution-compatibility", pair=("a", "c"), position=1
            )
        ),
        '{"error":"HypothesesViolated","detail":"substitution-compatibility on letter '
        'pair (\'a\', \'c\') at position 1","witness":{"ok":false,"failure":'
        '"substitution-compatibility","pair":["a","c"],"position":1}}',
        "substitution-compatibility on letter pair ('a', 'c') at position 1",
    ),
    (
        E.NotCP("generator-hypotheses:skeleton-mismatch", ("a", ("b", "c"))),
        '{"error":"NotCP","detail":"not congruence preserving (generator-hypotheses:'
        'skeleton-mismatch)","verdict":"not-cp","stage":"generator-hypotheses:'
        'skeleton-mismatch","witness":["a","<b*c>"]}',
        "not congruence preserving (generator-hypotheses:skeleton-mismatch)",
    ),
    (
        E.NotCP("verification", (("a", "b"), ("b", "a")), at_input=("a", "b")),
        '{"error":"NotCP","detail":"not congruence preserving (verification)",'
        '"verdict":"not-cp","stage":"verification","witness":["<a*b>","<b*a>"],'
        '"input":"<a*b>"}',
        "not congruence preserving (verification)",
    ),
    (
        E.EvaluationFailure("<a*a>"),
        '{"error":"EvaluationFailure","detail":"function has no value for <a*a>",'
        '"witness":{"tree":"<a*a>"}}',
        "function has no value for <a*a>",
    ),
    (
        E.AlphabetTooSmall(3, 2),
        '{"error":"AlphabetTooSmall","detail":"operation needs at least 3 letters, '
        'alphabet has 2"}',
        "operation needs at least 3 letters, alphabet has 2",
    ),
    (
        E.TreeAlgebraError("generic failure"),
        '{"error":"TreeAlgebraError","detail":"generic failure"}',
        "generic failure",
    ),
]


@pytest.mark.parametrize(
    "exc, payload, message", CASES, ids=[type(case[0]).__name__ for case in CASES]
)
def test_payload_and_message_bytes(exc, payload, message):
    assert json.dumps(exc.payload(), separators=(",", ":")) == payload
    assert str(exc) == message


def test_every_error_class_is_pinned():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    pinned = {type(case[0]) for case in CASES}
    assert set(subclasses(E.TreeAlgebraError)) | {E.TreeAlgebraError} == pinned
