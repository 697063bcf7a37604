"""Combination rules and the verb-class by ending-class template.

A rule is three comma-separated fields: a negative stop index for
slicing the verb's letters from the tail, a (possibly empty) run of
postfix letters, and a positive start index for slicing the ending's
letters from the head. The literal word "None" marks an absent index.
The template is a partial 46 x 24 grid of such rules; a blank cell
means the two classes never combine.
"""

from dataclasses import dataclass

from . import hangul_codec
from .errors import MalformedRule, ParseError, RangeError

VERB_CLASS_COUNT = 46
ENDING_CLASS_COUNT = 24
VERB_CLASSES = range(1, VERB_CLASS_COUNT + 1)
ENDING_CLASSES = range(1, ENDING_CLASS_COUNT + 1)
_HEADER = [""] + [str(e) for e in ENDING_CLASSES]


@dataclass(frozen=True)
class Rule:
    verb_stop: int | None
    postfix: tuple
    ending_start: int | None


IDENTITY_RULE = Rule(None, (), None)


def _integer(raw):
    """The value of at most 640 ASCII digits with no leading zero, after at most
    one "-", else None: int() would also take other digits, underscores, spaces
    and leading zeros, which do not re-serialize, and raises ValueError past
    Python's int-string limit (640 at the lowest, see sys.set_int_max_str_digits)."""
    digits = raw.removeprefix("-")
    canonical = digits.isdigit() and len(digits) <= 640 and (digits == "0" or digits[0] != "0")
    return int(raw) if raw.isascii() and canonical else None


def _rule_index(text, raw, name, sign):
    """A rule's index field: None for "None", else an integer of the sign (-1 or 1)
    that `name` takes; `text` is the whole rule, for the error."""
    if raw == "None":
        return None
    value = _integer(raw)
    if value is None:
        raise MalformedRule(text, f"{name} {raw!r} is not an integer")
    if value * sign <= 0:
        raise MalformedRule(text, f"{name} must be {'negative' if sign < 0 else 'positive'}")
    return value


def parse_rule(text):
    """Parse a 3-field rule string like "-2,ㅐ,2" into a Rule."""
    fields = text.split(",")
    if len(fields) != 3:
        raise MalformedRule(text, f"expected 3 comma-separated fields, got {len(fields)}")
    raw_stop, raw_postfix, raw_start = fields
    verb_stop = _rule_index(text, raw_stop, "verb stop", -1)
    for ch in raw_postfix:
        if ch not in hangul_codec.LETTERS:
            raise MalformedRule(text, f"postfix character {ch!r} is not a jamo letter")
    return Rule(verb_stop, tuple(raw_postfix), _rule_index(text, raw_start, "ending start", 1))


def serialize_rule(rule):
    """Render a Rule back to its canonical 3-field string."""
    return "%s,%s,%s" % (rule.verb_stop, "".join(rule.postfix), rule.ending_start)


def _check_class(class_id, classes, source=None):
    """The class id, if `classes` (VERB_CLASSES or ENDING_CLASSES) holds it.
    Membership, not comparison: a string id is out of range, not a TypeError."""
    if class_id not in classes:
        raise RangeError(class_id, classes[0], classes[-1], source)
    return class_id


def _check_rule(rule, cell):
    """`cell`'s value: a Rule of None or int (not bool) indices, any sign, and jamo postfix."""
    if not isinstance(rule, Rule):
        raise MalformedRule(rule, "not a Rule", f"cell {cell}")
    for name, index in ("verb stop", rule.verb_stop), ("ending start", rule.ending_start):
        if index is not None and type(index) is not int:
            raise MalformedRule(rule, f"{name} {index!r} is not an integer", f"cell {cell}")
    if type(rule.postfix) is not tuple or not all(
            isinstance(ch, str) and ch in hangul_codec.LETTERS for ch in rule.postfix):
        raise MalformedRule(rule, "postfix is not a tuple of jamo letters", f"cell {cell}")


class Template:
    """Immutable partial grid (verb class, ending class) -> Rule."""

    __slots__ = ("_cells",)

    def __init__(self, cells):
        self._cells = dict(cells)
        checked = set()  # ids of the rules checked so far, each held by a cell
        for (verb_class, ending_class), rule in self._cells.items():
            _check_class(verb_class, VERB_CLASSES)
            _check_class(ending_class, ENDING_CLASSES)
            if id(rule) not in checked:
                _check_rule(rule, (verb_class, ending_class))
                checked.add(id(rule))

    def lookup(self, verb_class, ending_class):
        """Return the Rule for a cell, or None when the cell is blank."""
        return self._cells.get((_check_class(verb_class, VERB_CLASSES),
                                _check_class(ending_class, ENDING_CLASSES)))

    def cells(self):
        """All populated cells as ((verb_class, ending_class), Rule) pairs."""
        return self._cells.items()

    def __len__(self):
        return len(self._cells)

    def serialize(self):
        """Render the grid back to TSV, byte-identical to the shipped file."""
        lines = ["\t".join(_HEADER)]
        for verb_class in VERB_CLASSES:
            row = [str(verb_class)]
            for ending_class in ENDING_CLASSES:
                rule = self._cells.get((verb_class, ending_class))
                row.append("" if rule is None else serialize_rule(rule))
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


def parse_template(text, source="<template>"):
    """Parse template TSV text: a header row of ending class ids, then
    one row per verb class with the class id in the first column."""
    rows = list(_rows(text, ENDING_CLASS_COUNT + 1, source))
    if len(rows) != VERB_CLASS_COUNT + 1:  # name the first extra row, else the last row
        line_no = rows[min(len(rows), VERB_CLASS_COUNT + 2) - 1][0] if rows else 1
        raise ParseError(source, line_no, f"expected {VERB_CLASS_COUNT + 1} rows, got {len(rows)}")
    (line_no, header), *body = rows
    if header != _HEADER:
        raise ParseError(source, line_no, "header must be blank then ending class ids 1..24")

    cells, rules = {}, {}  # each distinct rule text is parsed once, and its cells share the Rule
    for verb_class, (line_no, fields) in zip(VERB_CLASSES, body):
        if fields[0] != str(verb_class):
            raise ParseError(source, line_no, f"row label {fields[0]!r}, expected {verb_class}")
        for ending_class, cell in zip(ENDING_CLASSES, fields[1:]):
            if cell:
                try:
                    rule = rules.get(cell) or rules.setdefault(cell, parse_rule(cell))
                except MalformedRule as err:
                    raise MalformedRule(err.text, err.reason, f"{source}:{line_no}") from None
                cells[(verb_class, ending_class)] = rule
    return Template(cells)


def _read(path):
    """A data file's text, decoded whole as UTF-8 before any line is read, less one
    leading BOM, with CRLF and CR line ends read as LF (as open() in text mode does)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(path, data.count(b"\n", 0, err.start) + 1,
                         f"not UTF-8: byte {data[err.start]:#04x} at offset "
                         f"{err.start} ({err.reason})") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _rows(text, width, source):
    """(line number, fields) for each non-blank line of a data file's text (blank
    lines still count), each of whose lines must hold `width` tab-separated fields."""
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise ParseError(source, line_no, f"expected {width} tab-separated columns, got {len(fields)}")
        yield line_no, fields


def load_template(path):
    return parse_template(_read(path), source=path)
