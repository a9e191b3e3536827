"""Free algebra of complete binary trees over a finite alphabet.

Trees, their shape/leaf-word decomposition, leaf graftings and word
substitutions, bounded congruence closure, congruence-preservation
evidence, and polynomial synthesis from generator values.
"""

from .congruence import (
    TreePartition,
    bounded_closure,
    congruent,
    principal_related,
)
from .errors import (
    AlphabetTooSmall,
    EmptyWordImage,
    EvaluationFailure,
    HypothesesViolated,
    LengthMismatch,
    MalformedSkeleton,
    MalformedTable,
    MalformedTree,
    NotCP,
    PairOutOfUniverse,
    TreeAlgebraError,
    UniverseTooLarge,
    UnknownLetter,
    UnreadableFile,
)
from .morphisms import (
    Grafting,
    WordSubstitution,
    commute_check,
    graft,
    is_idempotent,
    recolor,
    substitute,
)
from .polynomials import (
    CandidateFunction,
    EvidenceReport,
    EvidenceTest,
    HypothesisCheck,
    check_hypotheses,
    compile_poly,
    constant_function,
    cp_evidence,
    cp_to_polynomial,
    function_from_spec,
    identity_function,
    mirror_function,
    poly_function,
    recolor_function,
    synthesize,
    table_function,
)
from .trees import (
    Alphabet,
    DEFAULT_ALPHABET,
    DEFAULT_UNIVERSE_CAP,
    Tree,
    Universe,
    VARIABLE,
    catalan,
    encode,
    erase_letters,
    erase_shapes,
    foliage,
    iter_polynomials,
    iter_universe,
    leaf_count,
    mirror,
    parse_tree,
    random_tree,
    rebuild,
    skeleton,
    universe_size,
)
from .words import (
    WordHypothesisCheck,
    check_word_hypotheses,
    eval_word_poly,
    synthesize_word,
)

__version__ = "0.1.0"
