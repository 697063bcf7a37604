"""TSV lexicon loading, class-indexed views, and feature validation.

Three data files make up a lexicon (in every data file, blank lines are skipped):

  endings.tsv   surface TAB ending class id (one class per line; the
                same surface may recur under several classes)
  verbs.tsv     stem surface TAB comma-separated verb class ids
                (stems are unique; one stem may carry several classes)
  template.tsv  the rule grid, see ruleset

A fourth optional file, expectations.tsv, drives validate(): each line
is scope TAB class id TAB check TAB true/false, where check is one of
the surface predicates below. Violations are reported, never raised.

load parses and checks each distinct class-id field once (_checked).
"""

from dataclasses import dataclass
from pathlib import Path

from . import hangul_codec, ruleset
from .errors import DuplicateVerb, NonHangulInput, ParseError

ENDINGS_FILE = "endings.tsv"
VERBS_FILE = "verbs.tsv"
TEMPLATE_FILE = "template.tsv"
EXPECTATIONS_FILE = "expectations.tsv"

CHECKS = (
    "ends-with-consonant",
    "ends-with-ㄹ",
    "ends-with-하",
    "ends-with-ㄷ",
    "ends-with-ㅂ",
    "ends-with-ㅅ",
    "ends-with-르",
    "ends-with-ㅎ",
    "last-vowel-is-light",
    "starts-with-vowel",
)


@dataclass(frozen=True)
class EndingEntry:
    surface: str
    class_id: int


@dataclass(frozen=True)
class VerbEntry:
    surface: str
    class_ids: tuple


@dataclass(frozen=True)
class FeatureExpectation:
    scope: str  # "verb" or "ending"
    class_id: int
    check: str
    expected: bool


@dataclass(frozen=True)
class Violation:
    scope: str
    surface: str
    class_id: int
    check: str
    expected: bool


class Lexicon:
    """Immutable bundle of endings, verbs, and the rule template. Each entry is checked
    as `load` checks it, and an error names the entry, not a line."""

    def __init__(self, endings, verbs, template):
        self._fill(template, ((f"ending {e.surface!r}", None, e) for e in endings),
                   ((f"stem {v.surface!r}", None, v) for v in verbs))

    def _fill(self, template, endings, verbs):
        """Keep `template` and each (path, line, entry) of `endings` and `verbs`, checked once,
        against its classes' deepest slice too, so no rule reaches past its letters."""
        self.template = template
        verb_need, ending_need = _slice_needs(template)
        verb_seen = {}  # for _checked; each ending's class-id tuple is a new one, so it gets none
        self.endings = tuple(_checked("ending", e, (e.class_id,), ruleset.ENDING_CLASSES, ending_need,
                                      {}, path, line) for path, line, e in endings)
        self.verbs = {}
        for path, line, v in verbs:
            if v.surface in self.verbs:
                raise DuplicateVerb(v.surface, None if line is None else f"{path}:{line}")
            self.verbs[v.surface] = _checked("stem", v, v.class_ids, ruleset.VERB_CLASSES, verb_need,
                                             verb_seen, path, line)
        self._plans, self._sides = {}, {}  # the conjugator's caches: class-tuple plans, ending sides

    def endings_of_class(self, ending_class):
        """Endings of one class, in file order; empty tuple if unpopulated."""
        ruleset._check_class(ending_class, ruleset.ENDING_CLASSES)
        return tuple(e for e in self.endings if e.class_id == ending_class)


def default_data_dir():
    """Directory holding the sample data installed with the package."""
    return Path(__file__).parent / "data"


def _class_id(raw, path, line_no):
    if (class_id := ruleset._integer(raw)) is None:
        raise ParseError(path, line_no, f"class id {raw!r} is not an integer")
    return class_id


def _class_ids(raw, path, line_no):
    class_ids = []
    for piece in raw.split(",") if raw else ():
        class_ids.append(_class_id(piece, path, line_no))
    return tuple(class_ids)


def _checked(kind, entry, class_ids, classes, needs, seen, path, line):
    """`entry`, a stem or an ending (`kind`), unless a field is of the wrong type, it has no class
    ids, one outside `classes` or repeated, an empty or non-Hangul surface, or fewer letters
    than its classes slice (`needs`). `seen` maps the id of each class-id tuple checked so far
    to it (held, so no other object takes that id) and its deepest slice: identity, not equality,
    as `(True,)` equals `(1,)`. A syllable has 2 letters or more, so a surface of syllables alone
    passes undecomposed when twice its length reaches that slice."""
    if not isinstance(entry.surface, str):
        raise ParseError(path, line, f"surface {entry.surface!r} is not a string")
    if (known := seen.get(id(class_ids))) is None:
        if not isinstance(class_ids, tuple):
            raise ParseError(path, line, f"class ids {class_ids!r} are not a tuple")
        if not class_ids:
            raise ParseError(path, line, "no class ids")
        for i, class_id in enumerate(class_ids):
            if type(class_id) is not int or class_id not in classes:  # a source built on failure only
                ruleset._check_class(class_id, classes, path if line is None else f"{path}:{line}")
                raise ParseError(path, line, f"class id {class_id!r} is not an integer")  # True, 1.0
            if class_ids.index(class_id) < i:
                raise ParseError(path, line, f"class id {class_id} repeated")
        known = seen[id(class_ids)] = class_ids, max(needs.get(class_id, 0) for class_id in class_ids)
    if not entry.surface:
        raise ParseError(path, line, "empty surface")
    if "\uac00" <= min(entry.surface) and max(entry.surface) <= "\ud7a3" \
            and 2 * len(entry.surface) >= known[1]:
        return entry
    try:
        length = len(hangul_codec.decompose(entry.surface))
    except NonHangulInput as err:
        raise ParseError(path, line, f"surface {entry.surface!r}: {err}") from None
    for class_id in class_ids:
        if length < needs.get(class_id, 0):
            raise ParseError(path, line, f"{kind} {entry.surface!r} has {length} letters but "
                                         f"class {class_id} rules slice {needs[class_id]}")
    return entry


def _entries(path, entry, parse):
    """(path, line, entry) per row of a data file, read when asked, parsing each class-id field once."""
    parsed = {}
    for line_no, (surface, raw) in ruleset._rows(ruleset._read(path), 2, path):
        if raw not in parsed:
            parsed[raw] = parse(raw, path, line_no)
        yield path, line_no, entry(surface, parsed[raw])


def _slice_needs(template):
    """Per class, the deepest slice any of its rules would take, where that is past letter 0."""
    verb_need, ending_need = {}, {}
    for (verb_class, ending_class), rule in template.cells():
        if rule.verb_stop is not None and -rule.verb_stop > verb_need.get(verb_class, 0):
            verb_need[verb_class] = -rule.verb_stop
        if rule.ending_start is not None and rule.ending_start > ending_need.get(ending_class, 0):
            ending_need[ending_class] = rule.ending_start
    return verb_need, ending_need


def load(endings_path, verbs_path, template_path):
    """Load and cross-validate the three data files into a Lexicon.

    Each ending and stem line is checked as it is read, as a hand-built Lexicon checks it."""
    template = ruleset.load_template(template_path)
    lexicon = object.__new__(Lexicon)
    lexicon._fill(template, _entries(endings_path, EndingEntry, _class_id),
                  _entries(verbs_path, VerbEntry, _class_ids))
    return lexicon


def load_expectations(path):
    expectations = []
    for line_no, (scope, raw_class, check, raw_expected) in ruleset._rows(ruleset._read(path), 4, path):
        if scope not in ("verb", "ending"):
            raise ParseError(path, line_no, f"scope must be verb or ending, got {scope!r}")
        classes = ruleset.VERB_CLASSES if scope == "verb" else ruleset.ENDING_CLASSES
        class_id = ruleset._check_class(_class_id(raw_class, path, line_no), classes, f"{path}:{line_no}")
        if check not in CHECKS:
            raise ParseError(path, line_no, f"unknown check {check!r}")
        if raw_expected not in ("true", "false"):
            raise ParseError(path, line_no, f"expected must be true or false, got {raw_expected!r}")
        expectations.append(FeatureExpectation(scope, class_id, check, raw_expected == "true"))
    return expectations


def run_check(check, surface):
    """Evaluate one surface predicate, named in CHECKS, on a stem or ending surface."""
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    letters = hangul_codec.decompose(surface)
    if not letters:
        return False
    if check == "ends-with-consonant":
        return letters[-1] in hangul_codec.CONSONANTS
    if check == "last-vowel-is-light":
        vowels = [l for l in letters if l in hangul_codec.VOWEL_SET]
        return bool(vowels) and vowels[-1] in hangul_codec.LIGHT_VOWELS
    if check == "starts-with-vowel":
        # Orthographically: the first syllable's onset is the silent ㅇ.
        return letters[0] == "ㅇ" and len(letters) > 1 and letters[1] in hangul_codec.VOWEL_SET
    tail = check.removeprefix("ends-with-")
    if tail in hangul_codec.LETTERS:
        return letters[-1] == tail
    return surface.endswith(tail)  # whole-syllable checks like 하 or 르


def validate(lexicon, expectations):
    """Check every entry against the expectations for its declared classes.

    Returns a list of Violation records, empty when all entries conform.
    """
    violations = []
    for exp in expectations:
        if exp.scope == "verb":
            surfaces = [
                v.surface for v in lexicon.verbs.values()
                if exp.class_id in v.class_ids
            ]
        else:
            surfaces = [e.surface for e in lexicon.endings if e.class_id == exp.class_id]
        for surface in surfaces:
            if run_check(exp.check, surface) != exp.expected:
                violations.append(
                    Violation(exp.scope, surface, exp.class_id, exp.check, exp.expected)
                )
    return violations
