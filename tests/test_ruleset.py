import pytest
from hypothesis import given, strategies as st

from koverbs import hangul_codec as hc
from koverbs import ruleset
from koverbs.errors import MalformedRule, ParseError, RangeError

from conftest import shipped_paths

TEMPLATE_PATH = shipped_paths()[2]

letters = st.sampled_from(sorted(hc.LETTERS))
rules = st.builds(
    ruleset.Rule,
    st.one_of(st.none(), st.integers(min_value=-4, max_value=-1)),
    st.lists(letters, max_size=3).map(tuple),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)


def test_parse_identity_rule():
    rule = ruleset.parse_rule("None,,None")
    assert rule == ruleset.IDENTITY_RULE
    assert rule.verb_stop is None
    assert rule.postfix == ()
    assert rule.ending_start is None


def test_parse_rule_fields():
    assert ruleset.parse_rule("-2,ㅐ,2") == ruleset.Rule(-2, ("ㅐ",), 2)
    assert ruleset.parse_rule("-2,ㄹㄹㅏ,2") == ruleset.Rule(-2, ("ㄹ", "ㄹ", "ㅏ"), 2)
    assert ruleset.parse_rule("-1,ㅇㅘ,2") == ruleset.Rule(-1, ("ㅇ", "ㅘ"), 2)


def test_parse_rule_takes_up_to_640_digits():
    # 640 is the lowest int-string limit Python allows; 641 digits are refused above.
    assert ruleset.parse_rule("-" + "9" * 640 + ",,1").verb_stop == -int("9" * 640)


def test_serialize_rule():
    assert ruleset.serialize_rule(ruleset.IDENTITY_RULE) == "None,,None"
    assert ruleset.serialize_rule(ruleset.Rule(-1, ("ㅇ", "ㅘ"), 2)) == "-1,ㅇㅘ,2"
    assert ruleset.serialize_rule(ruleset.Rule(-1, (), 1)) == "-1,,1"


@pytest.mark.parametrize("text,reason_piece", [
    ("-2,ㅐ", "3 comma-separated"),
    ("-2,ㅐ,2,9", "3 comma-separated"),
    ("2,ㅐ,2", "negative"),
    ("0,ㅐ,2", "negative"),
    ("-2,x,2", "not a jamo"),
    ("-2,괜,2", "not a jamo"),
    ("-2,ㅐ,0", "positive"),
    ("-2,ㅐ,-1", "positive"),
    ("abc,ㅐ,2", "not an integer"),
    ("-2,ㅐ,abc", "not an integer"),
    # int() would take these; serialize_rule would not give them back.
    ("-1_0,,1", "not an integer"),
    ("-1,,٢", "not an integer"),
    ("-１,,1", "not an integer"),
    (" -1,,1", "not an integer"),
    ("-1,,1 ", "not an integer"),
    ("-1,,+1", "not an integer"),
    ("-01,ㅐ,2", "not an integer"),
    ("-2,ㅐ,02", "not an integer"),
    # int() raises ValueError on this many digits.
    pytest.param("-" + "9" * 5000 + ",,1", "not an integer", id="5000 digits-not an integer"),
    pytest.param("-" + "9" * 641 + ",,1", "not an integer", id="641 digits-not an integer"),
])
def test_parse_rule_rejects(text, reason_piece):
    with pytest.raises(MalformedRule) as exc:
        ruleset.parse_rule(text)
    assert reason_piece in exc.value.reason


@given(rules)
def test_rule_round_trip(rule):
    assert ruleset.parse_rule(ruleset.serialize_rule(rule)) == rule


@pytest.fixture(scope="module")
def template():
    return ruleset.load_template(TEMPLATE_PATH)


def test_lookup(template):
    assert template.lookup(1, 1) == ruleset.IDENTITY_RULE
    assert template.lookup(1, 2) is None
    assert template.lookup(8, 3) == ruleset.Rule(-2, ("ㅐ",), 2)
    assert template.lookup(45, 3) == ruleset.Rule(-2, ("ㄹ", "ㄹ", "ㅏ"), 2)


def test_lookup_range_checks(template):
    with pytest.raises(RangeError):
        template.lookup(0, 1)
    with pytest.raises(RangeError):
        template.lookup(47, 1)
    with pytest.raises(RangeError):
        template.lookup(1, 25)
    with pytest.raises(RangeError):
        template.lookup("1", 1)
    with pytest.raises(RangeError):
        template.lookup(1, "1")
    with pytest.raises(RangeError):
        ruleset.Template({("1", 1): ruleset.IDENTITY_RULE})


@pytest.mark.parametrize("value, reason", [
    (ruleset.Rule(None, "ㅏ", None), "postfix is not a tuple of jamo letters"),
    (ruleset.Rule(None, ["ㅏ"], None), "postfix is not a tuple of jamo letters"),
    (ruleset.Rule(None, ("a",), None), "postfix is not a tuple of jamo letters"),
    (ruleset.Rule(None, ([],), None), "postfix is not a tuple of jamo letters"),
    ("None,,None", "not a Rule"),
    (ruleset.Rule("1", (), None), "verb stop '1' is not an integer"),
    (ruleset.Rule(True, (), None), "verb stop True is not an integer"),
    (ruleset.Rule(None, (), 1.0), "ending start 1.0 is not an integer"),
], ids=["str-postfix", "list-postfix", "latin-letter", "unhashable-letter", "rule-string",
        "str-stop", "bool-stop", "float-start"])
def test_a_hand_built_template_refuses_a_malformed_cell(value, reason):
    # A value in two cells is checked once, and named at its first cell.
    with pytest.raises(MalformedRule) as exc:
        ruleset.Template({(1, 1): ruleset.IDENTITY_RULE, (2, 3): value, (4, 5): value})
    assert (exc.value.text, exc.value.reason, exc.value.source) == (value, reason, "cell (2, 3)")


@pytest.mark.parametrize("checked, value, reason", [
    (ruleset.Rule(1, (), None), ruleset.Rule(True, (), None), "verb stop True is not an integer"),
    (ruleset.Rule(None, (), 1), ruleset.Rule(None, (), 1.0), "ending start 1.0 is not an integer"),
], ids=["bool-stop", "float-start"])
def test_a_malformed_rule_equal_to_a_checked_one_is_refused(checked, value, reason):
    # Rules are matched by identity: this one equals the rule checked before it and hashes the same.
    assert (checked, hash(checked)) == (value, hash(value))
    with pytest.raises(MalformedRule) as exc:
        ruleset.Template({(1, 1): checked, (2, 3): value})
    assert (exc.value.text, exc.value.reason, exc.value.source) == (value, reason, "cell (2, 3)")


def test_a_hand_built_template_keeps_either_sign():
    # Only template.tsv is held to negative stops and positive starts.
    cells = {(1, 1): ruleset.Rule(0, ("ㅏ",), None), (1, 2): ruleset.Rule(2, (), -1)}
    assert dict(ruleset.Template(cells).cells()) == cells


def test_first_column_is_always_identity(template):
    for verb_class in range(1, 47):
        assert template.lookup(verb_class, 1) == ruleset.IDENTITY_RULE


def test_template_covers_every_class(template):
    rows = {v for (v, _), _ in template.cells()}
    cols = {e for (_, e), _ in template.cells()}
    assert rows == set(range(1, 47))
    assert cols == set(range(1, 25))


def test_template_cell_count_locked(template):
    assert len(template) == 412


def test_template_round_trips_through_cells(template):
    for _, rule in template.cells():
        assert ruleset.parse_rule(ruleset.serialize_rule(rule)) == rule


def test_postfixes_use_only_letter_alphabet(template):
    for _, rule in template.cells():
        assert all(ch in hc.LETTERS for ch in rule.postfix)


def test_each_distinct_rule_text_is_parsed_once(template):
    # 412 cells hold 19 distinct rules; the cells of one rule share one Rule.
    rules = [rule for _, rule in template.cells()]
    assert len({id(rule) for rule in rules}) == len(set(rules)) == 19


def test_serialize_is_byte_identical_to_shipped_file(template):
    shipped = TEMPLATE_PATH.read_text(encoding="utf-8")
    assert template.serialize() == shipped


@pytest.mark.parametrize("mangle,reason_piece", [
    (lambda lines: [lines[0].replace("\t1\t", "\t99\t", 1)] + lines[1:], "header"),
    (lambda lines: lines[:-1], "47 rows"),
    (lambda lines: lines + ["47" + "\t" * 24], "47 rows"),
    (lambda lines: [lines[0]] + [lines[1].replace("1\t", "9\t", 1)] + lines[2:], "row label"),
    (lambda lines: [lines[0]] + [lines[1] + "\textra"] + lines[2:], "columns"),
])
def test_parse_template_shape_errors(mangle, reason_piece):
    lines = TEMPLATE_PATH.read_text(encoding="utf-8").splitlines()
    text = "\n".join(mangle(lines)) + "\n"
    with pytest.raises(ParseError) as exc:
        ruleset.parse_template(text)
    assert reason_piece in exc.value.reason


def test_a_row_label_error_quotes_the_label_it_read():
    lines = TEMPLATE_PATH.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace("1\t", "9\t", 1)
    with pytest.raises(ParseError) as exc:
        ruleset.parse_template("\n".join(lines) + "\n")
    assert exc.value.reason == "row label '9', expected 1"


@pytest.mark.parametrize("mangle,line_no", [
    (lambda lines: lines + ["47" + "\t" * 24], 48),  # the first extra row
    (lambda lines: ["", ""] + lines + ["47" + "\t" * 24], 50),  # blank lines still count
    (lambda lines: lines[:40], 40),  # the last row read
    (lambda lines: lines[:40] + ["", ""], 40),
    (lambda lines: [], 1),
], ids=["extra row", "extra row after blank lines", "40 lines", "40 lines then blank lines",
        "no row"])
def test_a_wrong_row_count_names_where_the_count_went_wrong(mangle, line_no):
    lines = TEMPLATE_PATH.read_text(encoding="utf-8").splitlines()
    with pytest.raises(ParseError) as exc:
        ruleset.parse_template("\n".join(mangle(lines)) + "\n")
    assert exc.value.line == line_no
    assert "47 rows" in exc.value.reason


def test_parse_template_propagates_malformed_cells():
    lines = TEMPLATE_PATH.read_text(encoding="utf-8").splitlines()
    lines[8] = lines[8].replace("-2,ㅐ,2", "-2,ㅐ")
    with pytest.raises(MalformedRule) as exc:
        ruleset.parse_template("\n".join(lines) + "\n")
    assert (exc.value.text, exc.value.source) == ("-2,ㅐ", "<template>:9")


@pytest.mark.parametrize("mangle,error", [
    (lambda line: line.replace("-2,ㅐ,2", "-2,ㅐ"), MalformedRule),
    (lambda line: line.replace("8\t", "9\t", 1), ParseError),
], ids=["bad cell", "row label"])
def test_template_errors_name_the_physical_line_past_a_blank_line(mangle, error):
    lines = TEMPLATE_PATH.read_text(encoding="utf-8").splitlines()
    lines[8:9] = ["", mangle(lines[8])]
    with pytest.raises(error) as exc:
        ruleset.parse_template("\n".join(lines) + "\n")
    assert str(exc.value).startswith("<template>:10: ")
