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
    """Immutable bundle of endings, verbs, and the rule template."""

    def __init__(self, endings, verbs, template):
        self.endings = tuple(endings)
        self.verbs = {}
        self.template = template
        for e in self.endings:
            ruleset._check_class(e.class_id, ruleset.ENDING_CLASSES, f"ending {e.surface!r}")
        for v in verbs:
            if v.surface in self.verbs:
                raise DuplicateVerb(v.surface)
            for class_id in v.class_ids:
                ruleset._check_class(class_id, ruleset.VERB_CLASSES, f"stem {v.surface!r}")
            self.verbs[v.surface] = v
        self._plans = {}  # class tuple -> plan, (postfix, start, ending) -> side: see conjugator

    def endings_of_class(self, ending_class):
        """Endings of one class, in file order; empty tuple if unpopulated."""
        ruleset._check_class(ending_class, ruleset.ENDING_CLASSES)
        return tuple(e for e in self.endings if e.class_id == ending_class)


def default_data_dir():
    """Directory holding the sample data installed with the package."""
    return Path(__file__).parent / "data"


def _class_id(raw, classes, path, line_no):
    class_id = ruleset._integer(raw)
    if class_id is None:
        raise ParseError(path, line_no, f"class id {raw!r} is not an integer")
    return ruleset._check_class(class_id, classes, f"{path}:{line_no}")


def _check_letters(kind, surface, class_ids, needs, path, line_no):
    """Refuse an empty or non-Hangul surface, or one shorter than its classes' slices."""
    if not surface:
        raise ParseError(path, line_no, "empty surface")
    try:
        length = len(hangul_codec.decompose(surface))
    except NonHangulInput as err:
        raise ParseError(path, line_no, f"surface {surface!r}: {err}") from None
    for class_id in class_ids:
        need = needs.get(class_id, 0)
        if length < need:
            raise ParseError(path, line_no, f"{kind} {surface!r} has {length} letters but "
                                            f"class {class_id} rules slice {need}")


def _load_endings(path, needs):
    entries = []
    for line_no, (surface, raw_class) in ruleset._rows(ruleset._read(path), 2, path):
        class_id = _class_id(raw_class, ruleset.ENDING_CLASSES, path, line_no)
        _check_letters("ending", surface, (class_id,), needs, path, line_no)
        entries.append(EndingEntry(surface, class_id))
    return entries


def _load_verbs(path, needs):
    entries = {}
    for line_no, (surface, raw_classes) in ruleset._rows(ruleset._read(path), 2, path):
        if surface in entries:
            raise DuplicateVerb(surface, f"{path}:{line_no}")
        if not raw_classes:
            raise ParseError(path, line_no, "no class ids")
        class_ids = []
        for piece in raw_classes.split(","):
            class_id = _class_id(piece, ruleset.VERB_CLASSES, path, line_no)
            if class_id in class_ids:
                raise ParseError(path, line_no, f"class id {class_id} repeated")
            class_ids.append(class_id)
        _check_letters("stem", surface, class_ids, needs, path, line_no)
        entries[surface] = VerbEntry(surface, tuple(class_ids))
    return entries.values()


def _slice_needs(template):
    """Per class, the deepest slice any of its rules would take."""
    verb_need, ending_need = {}, {}
    for (verb_class, ending_class), rule in template.cells():
        verb_need[verb_class] = max(verb_need.get(verb_class, 0), -(rule.verb_stop or 0))
        ending_need[ending_class] = max(ending_need.get(ending_class, 0), rule.ending_start or 0)
    return verb_need, ending_need


def load(endings_path, verbs_path, template_path):
    """Load and cross-validate the three data files into a Lexicon.

    Each ending and stem line is checked as it is read: its format, and
    its letter count against the deepest slice its classes' rules can
    take, so a rule can never reach past an entry's letters at
    conjugation time.
    """
    template = ruleset.load_template(template_path)
    verb_need, ending_need = _slice_needs(template)
    return Lexicon(_load_endings(endings_path, ending_need),
                   _load_verbs(verbs_path, verb_need), template)


def load_expectations(path):
    expectations = []
    for line_no, (scope, raw_class, check, raw_expected) in ruleset._rows(ruleset._read(path), 4, path):
        if scope not in ("verb", "ending"):
            raise ParseError(path, line_no, f"scope must be verb or ending, got {scope!r}")
        classes = ruleset.VERB_CLASSES if scope == "verb" else ruleset.ENDING_CLASSES
        class_id = _class_id(raw_class, classes, path, line_no)
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
