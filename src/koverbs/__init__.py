"""Korean verb conjugation engine.

Decomposes Hangul into jamo letter sequences, combines verb stems with
endings through a 46 x 24 class-pair rule template, and inverts the
process to lemmatize conjugated forms. Ships with a curated sample
lexicon covering every class.
"""

from .errors import (
    DuplicateVerb,
    IndexOutOfBounds,
    KoverbsError,
    MalformedRule,
    NonHangulInput,
    NotFound,
    ParseError,
    RangeError,
    Uncomposable,
)
from .hangul_codec import classify, compose, decompose
from .ruleset import (
    IDENTITY_RULE,
    Rule,
    Template,
    load_template,
    parse_rule,
    serialize_rule,
)
from .lexicon import (
    EndingEntry,
    FeatureExpectation,
    Lexicon,
    VerbEntry,
    Violation,
    default_data_dir,
    load_expectations,
    validate,
)
from .lexicon import load as load_lexicon
from .conjugator import Paradigm, SurfaceForm, apply_rule, conjugate, conjugate_pair
from .lemmatizer import FormIndex, LemmaCandidate, build_index, lemmatize

__version__ = "0.1.0"

__all__ = [
    "DuplicateVerb",
    "EndingEntry",
    "FeatureExpectation",
    "FormIndex",
    "IDENTITY_RULE",
    "IndexOutOfBounds",
    "KoverbsError",
    "LemmaCandidate",
    "Lexicon",
    "MalformedRule",
    "NonHangulInput",
    "NotFound",
    "Paradigm",
    "ParseError",
    "RangeError",
    "Rule",
    "SurfaceForm",
    "Template",
    "Uncomposable",
    "VerbEntry",
    "Violation",
    "apply_rule",
    "build_index",
    "classify",
    "compose",
    "conjugate",
    "conjugate_pair",
    "decompose",
    "default_data_dir",
    "lemmatize",
    "load_expectations",
    "load_lexicon",
    "load_template",
    "parse_rule",
    "serialize_rule",
    "validate",
    "__version__",
]
