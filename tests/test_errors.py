import copy
import inspect
import pickle

import pytest

from koverbs import errors
from koverbs.errors import (DuplicateVerb, IndexOutOfBounds, KoverbsError, MalformedRule,
                            NonHangulInput, NotFound, ParseError, RangeError, Uncomposable)

ERRORS = [
    KoverbsError("bad input", "verbs.tsv:3"),
    NonHangulInput("x", 2),
    Uncomposable(("ㄱ", "ㅏ", "ㅏ"), 2, "stem '가' (verb class 1)"),
    MalformedRule("-1,ㅏ", "expected 3 comma-separated fields, got 2"),
    MalformedRule("-2,x,2", "postfix character 'x' is not a jamo letter", "template.tsv:9"),
    ParseError("endings.tsv", 4, "empty surface"),
    ParseError("stem ''", None, "empty surface"),
    RangeError(99, 1, 46, "verbs.tsv:1"),
    DuplicateVerb("가", "verbs.tsv:2"),
    NotFound("가"),
    IndexOutOfBounds("verb", -3, 2, "stem '가' (verb class 1), rule -3,,None"),
]


def test_every_error_type_is_covered():
    assert {type(err) for err in ERRORS} == {
        cls for cls in vars(errors).values()
        if inspect.isclass(cls) and issubclass(cls, KoverbsError)}


def pickled(protocol):
    return lambda err: pickle.loads(pickle.dumps(err, protocol))


COPIES = {**{f"pickle-{p}": pickled(p) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
          "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES)
@pytest.mark.parametrize("err", ERRORS, ids=lambda err: type(err).__name__ + (
    "-sourced" if isinstance(err, MalformedRule) and err.source else
    "-entry" if isinstance(err, ParseError) and err.line is None else ""))
def test_an_error_survives_pickling(err, copy_of):
    # A worker process can hand its error back whole: type, message and fields.
    copied = copy_of(err)
    assert type(copied) is type(err)
    assert (str(copied), copied.args, vars(copied)) == (str(err), err.args, vars(err))
