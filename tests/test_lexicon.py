import pytest
from hypothesis import given, settings, strategies as st

from koverbs import hangul_codec, ruleset
from koverbs import lexicon as lx
from koverbs.errors import DuplicateVerb, KoverbsError, NonHangulInput, ParseError, RangeError

from conftest import shipped_paths

ENDINGS_PATH, VERBS_PATH, TEMPLATE_PATH = shipped_paths()
EXPECTATIONS_PATH = ENDINGS_PATH.parent / lx.EXPECTATIONS_FILE


def write_data(tmp_path, endings=None, verbs=None, template=None):
    """Copy the shipped data files into tmp_path, with optional overrides."""
    paths = {}
    for name, text, shipped in [
        ("endings.tsv", endings, ENDINGS_PATH),
        ("verbs.tsv", verbs, VERBS_PATH),
        ("template.tsv", template, TEMPLATE_PATH),
    ]:
        if text is None:
            text = shipped.read_text(encoding="utf-8")
        target = tmp_path / name
        target.write_text(text, encoding="utf-8")
        paths[name] = target
    return paths["endings.tsv"], paths["verbs.tsv"], paths["template.tsv"]


# ---------------------------------------------------------------- shipped data

def test_every_verb_class_is_populated(lexicon):
    declared = set()
    for entry in lexicon.verbs.values():
        declared.update(entry.class_ids)
    assert declared == set(range(1, 47))


def test_every_ending_class_is_populated(lexicon):
    assert {e.class_id for e in lexicon.endings} == set(range(1, 25))


def test_endings_keep_file_order(lexicon):
    lines = ENDINGS_PATH.read_text(encoding="utf-8").splitlines()
    surfaces = [line.split("\t")[0] for line in lines if line]
    assert [e.surface for e in lexicon.endings] == surfaces
    assert lexicon.endings_of_class(3)[0].surface == "어야"


def test_lexicon_shape(lexicon):
    assert len(lexicon.verbs) == 95
    assert len(lexicon.endings) == 48
    assert lexicon.verbs["그렇"].class_ids == (8,)
    assert lexicon.verbs["모르"].class_ids == (25, 45)


def test_endings_of_class_range_check(lexicon):
    with pytest.raises(RangeError):
        lexicon.endings_of_class(0)
    with pytest.raises(RangeError):
        lexicon.endings_of_class(25)
    with pytest.raises(RangeError) as exc:
        lexicon.endings_of_class("1")
    assert str(exc.value) == "class id '1' out of range 1..24"


def test_lexicon_rejects_an_ending_class_out_of_range(lexicon):
    for class_id in (30, 0, 25, "1"):
        with pytest.raises(RangeError) as exc:
            lx.Lexicon([lx.EndingEntry("고", class_id)], [], lexicon.template)
        assert (exc.value.value, exc.value.low, exc.value.high, exc.value.source) == \
            (class_id, 1, 24, "ending '고'")


def test_lexicon_rejects_a_verb_class_out_of_range(lexicon):
    for class_id in (99, 0, "1"):
        with pytest.raises(RangeError) as exc:
            lx.Lexicon([], [lx.VerbEntry("가", (29, class_id))], lexicon.template)
        assert (exc.value.value, exc.value.low, exc.value.high, exc.value.source) == \
            (class_id, 1, 46, "stem '가'")


def test_lexicon_rejects_a_duplicate_stem(lexicon):
    # As load does, but with no file line to name.
    with pytest.raises(DuplicateVerb) as exc:
        lx.Lexicon([], [lx.VerbEntry("가", (1,)), lx.VerbEntry("가", (2,))], lexicon.template)
    assert (exc.value.surface, str(exc.value)) == ("가", "duplicate verb entry '가'")


@pytest.mark.parametrize("name,line,entry", [
    ("verbs", "\t29", lx.VerbEntry("", (29,))),
    ("endings", "\t1", lx.EndingEntry("", 1)),
    ("verbs", "run\t29", lx.VerbEntry("run", (29,))),
    ("endings", "go\t1", lx.EndingEntry("go", 1)),
    ("verbs", "가\ud7a4\t1", lx.VerbEntry("가\ud7a4", (1,))),
    ("verbs", "가\t", lx.VerbEntry("가", ())),
    ("verbs", "가\t29,29", lx.VerbEntry("가", (29, 29))),
    ("verbs", "가\t99", lx.VerbEntry("가", (99,))),
    ("endings", "고\t25", lx.EndingEntry("고", 25)),
    ("verbs", "ㄱ\t8", lx.VerbEntry("ㄱ", (8,))),
    ("endings", "ㄴ\t3", lx.EndingEntry("ㄴ", 3)),
], ids=["empty stem", "empty ending", "non-Hangul stem", "non-Hangul ending",
        "stem with a character past the syllables", "no class ids",
        "repeated class id", "verb class out of range", "ending class out of range",
        "stem shorter than its rules slice", "ending shorter than its rules slice"])
def test_a_hand_built_lexicon_refuses_what_load_refuses(tmp_path, lexicon, name, line, entry):
    # The same type and reason; the hand-built error names the entry, not a file line.
    with pytest.raises(KoverbsError) as loaded:
        lx.load(*write_data(tmp_path, **{name: line + "\n"}))
    endings, verbs = ([entry], []) if name == "endings" else ([], [entry])
    with pytest.raises(type(loaded.value)) as built:
        lx.Lexicon(endings, verbs, lexicon.template)
    where = f"{'ending' if name == 'endings' else 'stem'} {entry.surface!r}"
    assert (type(built.value), built.value.source) == (type(loaded.value), where)
    assert loaded.value.source == f"{tmp_path / name}.tsv:1"
    assert str(built.value) == where + str(loaded.value).removeprefix(loaded.value.source)


@pytest.mark.parametrize("endings,verbs,reason", [
    ([], [lx.VerbEntry("가", [29])], "stem '가': class ids [29] are not a tuple"),
    ([], [lx.VerbEntry(5, (29,))], "stem 5: surface 5 is not a string"),
    ([], [lx.VerbEntry("가", (29, True))], "stem '가': class id True is not an integer"),
    ([lx.EndingEntry("아", 1.0)], [], "ending '아': class id 1.0 is not an integer"),
], ids=["class ids a list", "surface an int", "class id a bool", "class id a float"])
def test_a_hand_built_lexicon_refuses_fields_of_the_wrong_type(lexicon, endings, verbs, reason):
    # load reads only strings and ints; a hand-built entry of another type is refused
    # as an entry, not later by a bare TypeError or as forms of class 1.0.
    with pytest.raises(ParseError) as exc:
        lx.Lexicon(endings, verbs, lexicon.template)
    assert str(exc.value) == reason


@pytest.mark.parametrize("class_ids,error,reason", [
    ((True,), ParseError, "stem '나': class id True is not an integer"),
    ((1.0,), ParseError, "stem '나': class id 1.0 is not an integer"),
    (([1],), RangeError, "stem '나': class id [1] out of range 1..46"),
    (None, ParseError, "stem '나': class ids None are not a tuple"),
    ((), ParseError, "stem '나': no class ids"),
], ids=["bool", "float", "unhashable", "None", "empty"])
def test_class_ids_equal_to_checked_ones_are_still_checked(lexicon, class_ids, error, reason):
    # (True,) and (1.0,) equal (1,) and hash as it does, and ([1],) has no hash: a tuple
    # checked once is matched by identity, so each of these is checked as if it came first.
    with pytest.raises(error) as exc:
        lx.Lexicon([], [lx.VerbEntry("가", (1,)), lx.VerbEntry("나", class_ids)], lexicon.template)
    assert type(exc.value) is error and str(exc.value) == reason


@pytest.mark.parametrize("stops,surface,letters", [
    ((-3,), "가", 2), ((-3,), "각", None), ((-4,), "가나", None), ((-5,), "가나", 4), ((-5,), "가각", None),
    ((-6,), "닭", 4), ((-1, -5), "가나", 4),
])
def test_a_syllable_stem_is_refused_by_its_letters_not_its_syllables(stops, surface, letters):
    # A syllable has 2 to 4 letters, so a stem of n syllables is accepted without being
    # decomposed only when its classes slice at most 2n letters, the deepest of them counting
    # (here the last); others are counted.
    classes = tuple(range(1, len(stops) + 1))
    template = ruleset.Template({(verb_class, 1): ruleset.Rule(stop, (), None)
                                 for verb_class, stop in zip(classes, stops)})
    if letters is None:
        assert list(lx.Lexicon([], [lx.VerbEntry(surface, classes)], template).verbs) == [surface]
        return
    with pytest.raises(ParseError) as exc:
        lx.Lexicon([], [lx.VerbEntry(surface, classes)], template)
    assert str(exc.value) == (f"stem {surface!r}: stem {surface!r} has {letters} letters but "
                              f"class {classes[-1]} rules slice {-stops[-1]}")


@st.composite
def small_lexicons(draw):
    """A hand-built template over verb and ending classes 1..3, with verb stops down to -6,
    and endings and stems whose surfaces mix syllables, lone jamo, clusters, Latin and ""."""
    rules = st.one_of(st.none(), st.builds(ruleset.Rule, st.one_of(st.none(), st.integers(-6, -1)),
                                           st.just(()), st.one_of(st.none(), st.integers(1, 6))))
    grid = [(verb_class, ending_class) for verb_class in (1, 2, 3) for ending_class in (1, 2, 3)]
    cells = zip(grid, draw(st.lists(rules, min_size=9, max_size=9)))
    syllables = st.one_of(
        st.sampled_from("가나각닭"),  # 2, 2, 3 and 4 letters: most syllables have a final
        st.characters(min_codepoint=hangul_codec.SYLLABLE_BASE, max_codepoint=hangul_codec.SYLLABLE_LAST))
    # Below the syllable block: lone jamo, clusters and Latin; past it: U+D7A4 and a halfwidth ㄱ.
    below = st.sampled_from(sorted(hangul_codec.LETTERS | set(hangul_codec.CLUSTER_FINALS)) + ["a", "z"])
    past = st.sampled_from("\ud7a4\uffa1")
    surfaces = st.one_of(*(st.text(st.one_of(syllables, *others), max_size=4)
                           for others in ((), (past,), (below,), (below, past))))
    endings = draw(st.lists(st.builds(lx.EndingEntry, surfaces, st.integers(1, 3)), max_size=4))
    # Stems share a few class-id tuple objects, as the stems of one loaded class-id field do.
    shared = [(1,), (2,), (3,), (1, 2), (2, 1), (3, 1), (3, 2, 1)]
    verbs = draw(st.lists(st.builds(lx.VerbEntry, surfaces, st.sampled_from(shared)), max_size=6,
                          unique_by=lambda v: v.surface))
    return ruleset.Template({cell: rule for cell, rule in cells if rule}), endings, verbs


def refused_by_decomposing(kind, surface, class_ids, needs):
    """What a well-typed entry is refused for, by a check that decomposes every surface."""
    if not surface:
        return "empty surface"
    try:
        length = len(hangul_codec.decompose(surface))
    except NonHangulInput as err:
        return f"surface {surface!r}: {err}"
    for class_id in class_ids:
        if length < needs.get(class_id, 0):
            return (f"{kind} {surface!r} has {length} letters but class {class_id} rules slice "
                    f"{needs[class_id]}")
    return None


@settings(max_examples=200, deadline=None)
@given(small_lexicons())
def test_a_lexicon_refuses_what_decomposing_every_surface_refuses(drawn):
    # The whole lexicon, whose stems share class-id tuples, then each entry on its own.
    template, endings, verbs = drawn
    verb_need, ending_need = {}, {}
    for (verb_class, ending_class), rule in template.cells():
        verb_need[verb_class] = max(verb_need.get(verb_class, 0), -(rule.verb_stop or 0))
        ending_need[ending_class] = max(ending_need.get(ending_class, 0), rule.ending_start or 0)
    for some_endings, some_verbs in [(endings, verbs), *(([e], []) for e in endings),
                                     *(([], [v]) for v in verbs)]:
        expected = None
        for kind, surface, class_ids, needs in [
                *(("ending", e.surface, (e.class_id,), ending_need) for e in some_endings),
                *(("stem", v.surface, v.class_ids, verb_need) for v in some_verbs)]:
            if (reason := refused_by_decomposing(kind, surface, class_ids, needs)) is not None:
                expected = f"{kind} {surface!r}: {reason}"
                break
        try:
            built = lx.Lexicon(some_endings, some_verbs, template)
        except ParseError as err:
            assert str(err) == expected
        else:
            assert expected is None
            assert (built.endings, list(built.verbs.values())) == (tuple(some_endings), some_verbs)


@pytest.mark.parametrize("rewrite", [
    lambda data: data.replace(b"\n", b"\r\n"),
    lambda data: data.replace(b"\n", b"\r"),
    lambda data: "\ufeff".encode("utf-8") + data,
    lambda data: data.replace(b"\n", b"\n\n"),
], ids=["CRLF", "CR", "BOM", "blank lines"])
def test_cr_line_ends_load_the_same_data(tmp_path, lexicon, expectations, rewrite):
    paths = []
    for shipped in (*shipped_paths(), EXPECTATIONS_PATH):
        paths.append(tmp_path / shipped.name)
        paths[-1].write_bytes(rewrite(shipped.read_bytes()))
    copy = lx.load(*paths[:3])
    assert (copy.endings, copy.verbs, copy.template.serialize()) == \
        (lexicon.endings, lexicon.verbs, lexicon.template.serialize())
    assert lx.load_expectations(paths[3]) == expectations


def test_shipped_data_validates_clean(lexicon, expectations):
    assert lx.validate(lexicon, expectations) == []


# ---------------------------------------------------------------- load errors

def test_verb_class_out_of_range(tmp_path):
    paths = write_data(tmp_path, verbs="가\t47\n")
    with pytest.raises(RangeError) as exc:
        lx.load(*paths)
    assert exc.value.value == 47
    assert str(exc.value) == f"{paths[1]}:1: class id 47 out of range 1..46"


def test_ending_class_out_of_range(tmp_path):
    paths = write_data(tmp_path, endings="고\t25\n")
    with pytest.raises(RangeError) as exc:
        lx.load(*paths)
    assert exc.value.value == 25
    assert str(exc.value) == f"{paths[0]}:1: class id 25 out of range 1..24"


def test_duplicate_verb_surface(tmp_path):
    paths = write_data(tmp_path, verbs="가\t29\n가\t30\n")
    with pytest.raises(DuplicateVerb) as exc:
        lx.load(*paths)
    assert exc.value.surface == "가"
    assert str(exc.value) == f"{paths[1]}:2: duplicate verb entry '가'"


def test_verb_field_count(tmp_path):
    # A blank line is skipped but still counted: the second file fails on line 3.
    for verbs, line in [("가\n", 1), ("가\t1\n\n가\n", 3)]:
        with pytest.raises(ParseError) as exc:
            lx.load(*write_data(tmp_path, verbs=verbs))
        assert exc.value.line == line
        assert "2 tab-separated" in exc.value.reason


def test_a_file_that_is_not_utf8_is_refused_before_any_line(tmp_path):
    # Line 2 is malformed, but the bad byte lies past the text decoder's first 8 KB.
    paths = write_data(tmp_path)
    filler = "".join(f"{stem}\t29\n" for stem in ("가", "나", "다", "자", "차") * 400)
    paths[1].write_bytes(("가\t29\n가\n" + filler).encode("utf-8") + b"\xff\n")
    assert paths[1].stat().st_size > 8192
    with pytest.raises(ParseError) as exc:
        lx.load(*paths)
    assert (exc.value.line, exc.value.reason) == \
        (2003, f"not UTF-8: byte 0xff at offset {paths[1].stat().st_size - 2} (invalid start byte)")


def test_a_byte_order_mark_keeps_the_file_offset_of_a_bad_byte(tmp_path):
    # The mark is dropped after decoding, so offsets still count from the file's start.
    paths = write_data(tmp_path)
    head = "\ufeff가\t29\n".encode("utf-8")
    paths[1].write_bytes(head + b"\xff\n")
    with pytest.raises(ParseError) as exc:
        lx.load(*paths)
    assert (exc.value.line, exc.value.reason) == \
        (2, f"not UTF-8: byte 0xff at offset {len(head)} (invalid start byte)")


def test_a_bad_byte_after_a_leading_newline_is_on_line_2(tmp_path):
    paths = write_data(tmp_path)
    paths[1].write_bytes(b"\n\xff\n")
    with pytest.raises(ParseError) as exc:
        lx.load(*paths)
    assert (exc.value.line, exc.value.reason) == \
        (2, "not UTF-8: byte 0xff at offset 1 (invalid start byte)")


def test_verb_class_not_integer(tmp_path):
    with pytest.raises(ParseError):
        lx.load(*write_data(tmp_path, verbs="가\ttwenty\n"))


# int() would take each of these, or raise ValueError past Python's int-string
# limit; only up to 640 ASCII digits with no leading zero, after at most one
# "-", are ids.
@pytest.mark.parametrize("name,surface,raw", [
    ("verbs", "가", "2_9"),
    ("verbs", "가", " 29"),
    ("verbs", "가", "+29"),
    ("verbs", "가", "029"),
    ("endings", "고", "١"),
    ("endings", "고", " ３ "),
    ("endings", "고", "1\u3000"),
    pytest.param("verbs", "가", "9" * 5000, id="verbs-5000 digits"),
])
def test_class_id_not_ascii_digits(tmp_path, name, surface, raw):
    with pytest.raises(ParseError) as exc:
        lx.load(*write_data(tmp_path, **{name: f"{surface}\t{raw}\n"}))
    assert (exc.value.line, exc.value.reason) == (1, f"class id {raw!r} is not an integer")


def test_verb_without_class_ids(tmp_path):
    with pytest.raises(ParseError) as exc:
        lx.load(*write_data(tmp_path, verbs="가\t29\n가나\t\n"))
    assert (exc.value.line, exc.value.reason) == (2, "no class ids")


@pytest.mark.parametrize("name", ["endings", "verbs"])
def test_empty_surface(tmp_path, name):
    # Class 1 rules slice nothing, so only the surface itself can be refused.
    paths = write_data(tmp_path, **{name: "가\t1\n\t1\n"})
    with pytest.raises(ParseError) as exc:
        lx.load(*paths)
    assert (exc.value.path, exc.value.line, exc.value.reason) == \
        (str(tmp_path / f"{name}.tsv"), 2, "empty surface")


@pytest.mark.parametrize("name,text,line,reason", [
    ("verbs", "가\t8\n나\t8\nㄱ\t8\n", 3, "stem 'ㄱ' has 1 letters but class 8 rules slice 2"),
    ("verbs", "가\t1\n가a\t1\n", 2, "surface '가a': non-Hangul character 'a' at position 1"),
    ("endings", "어야\t3\n나\t1\nㄴ\t3\n", 3, "ending 'ㄴ' has 1 letters but class 3 rules slice 2"),
    # The bad line comes before a line whose field does not parse, and is named.
    ("verbs", "가\t8\nㄱ\t8\n가나\tx\n", 2, "stem 'ㄱ' has 1 letters but class 8 rules slice 2"),
], ids=["short stem", "non-Hangul stem", "short ending", "before a parse error"])
def test_a_line_that_repeats_a_checked_field_fails_at_its_own_line(tmp_path, name, text, line, reason):
    # Each distinct class-id field is parsed and checked once; the surface is still checked per line.
    with pytest.raises(ParseError) as exc:
        lx.load(*write_data(tmp_path, **{name: text}))
    assert (exc.value.path, exc.value.line, exc.value.reason) == \
        (str(tmp_path / f"{name}.tsv"), line, reason)


def test_verb_class_repeated(tmp_path):
    with pytest.raises(ParseError) as exc:
        lx.load(*write_data(tmp_path, verbs="가\t29,29\n"))
    assert "repeated" in exc.value.reason


def test_non_hangul_surface(tmp_path):
    with pytest.raises(ParseError) as exc:
        lx.load(*write_data(tmp_path, verbs="run\t29\n"))
    assert "run" in exc.value.reason


def test_ending_shorter_than_its_rules_slice(tmp_path):
    # Class 3 rules start the ending at letter 2, so a one-letter
    # surface like the bare consonant ㄴ can never be sliced there. Each
    # line is checked as it is read, so the later malformed line is not reached.
    with pytest.raises(ParseError) as exc:
        lx.load(*write_data(tmp_path, endings="ㄴ\t3\n가\tx\n"))
    assert exc.value.line == 1
    assert "slice" in exc.value.reason


def test_verb_shorter_than_its_rules_slice(tmp_path):
    lines = TEMPLATE_PATH.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    assert fields[2] == ""
    fields[2] = "-5,,None"
    lines[1] = "\t".join(fields)
    with pytest.raises(ParseError) as exc:
        lx.load(*write_data(
            tmp_path,
            verbs="있\t1\n",
            template="\n".join(lines) + "\n",
        ))
    assert "slice 5" in exc.value.reason


def test_boundary_length_is_accepted(tmp_path):
    # 있 decomposes to 3 letters; a stop of -3 keeps nothing but is legal.
    lines = TEMPLATE_PATH.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[2] = "-3,ㅇㅏ,None"
    lines[1] = "\t".join(fields)
    lex = lx.load(*write_data(
        tmp_path,
        verbs="있\t1\n",
        template="\n".join(lines) + "\n",
    ))
    assert lex.verbs["있"].class_ids == (1,)


def test_empty_endings_file_is_degenerate_but_loadable(tmp_path):
    lex = lx.load(*write_data(tmp_path, endings="\n"))
    assert lex.endings == ()
    assert lex.endings_of_class(1) == ()


# ---------------------------------------------------------------- expectations

def test_load_expectations_shape(expectations):
    assert all(isinstance(e, lx.FeatureExpectation) for e in expectations)
    assert any(
        e == lx.FeatureExpectation("verb", 8, "ends-with-ㅎ", True)
        for e in expectations
    )


@pytest.mark.parametrize("line,err", [
    ("verb\t8\tends-with-ㅎ", ParseError),
    ("noun\t8\tends-with-ㅎ\ttrue", ParseError),
    ("verb\t8\tends-with-ㅋ\ttrue", ParseError),
    ("verb\t8\tends-with-ㅎ\tyes", ParseError),
    ("verb\t47\tends-with-ㅎ\ttrue", RangeError),
    ("ending\t25\tstarts-with-vowel\ttrue", RangeError),
    ("verb\t8_0\tends-with-ㅎ\ttrue", ParseError),
    ("verb\t８\tends-with-ㅎ\ttrue", ParseError),
    ("ending\t 2\tstarts-with-vowel\ttrue", ParseError),
    pytest.param("verb\t" + "9" * 5000 + "\tends-with-ㅎ\ttrue", ParseError,
                 id="verb 5000 digits-ParseError"),
])
def test_load_expectations_errors(tmp_path, line, err):
    path = tmp_path / "expectations.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(err):
        lx.load_expectations(path)


# ---------------------------------------------------------------- checks

@pytest.mark.parametrize("check,surface,result", [
    ("ends-with-consonant", "그렇", True),
    ("ends-with-consonant", "모르", False),
    ("ends-with-ㄹ", "알", True),
    ("ends-with-ㄹ", "그렇", False),
    ("ends-with-하", "공부하", True),
    ("ends-with-하", "하", True),
    ("ends-with-르", "모르", True),
    ("ends-with-르", "르", True),
    ("last-vowel-is-light", "돕", True),
    ("last-vowel-is-light", "그렇", False),
    ("last-vowel-is-light", "ㅂ", False),
    ("starts-with-vowel", "어야", True),
    ("starts-with-vowel", "고", False),
    ("starts-with-vowel", "ㅂ니다", False),
    *[(check, "", False) for check in lx.CHECKS],
])
def test_run_check(check, surface, result):
    assert lx.run_check(check, surface) is result


def test_run_check_refuses_an_unknown_check():
    # The last three read as ends-with- checks, but none is in CHECKS.
    for check, surface in (("no-such-check", "가"), ("ends-with-ㅋ", "부엌"), ("ends-with-", "가"),
                           ("ends-with-가", "가")):
        with pytest.raises(ValueError, match=f"unknown check '{check}'"):
            lx.run_check(check, surface)


# ---------------------------------------------------------------- violations

def test_misfiled_verb_yields_exactly_one_violation(tmp_path, expectations):
    # 먹 ends in ㄱ, so listing it under the dark ㄹ-final class trips the
    # ends-with-ㄹ expectation and nothing else.
    verbs = VERBS_PATH.read_text(encoding="utf-8").replace("먹\t18\n", "먹\t18,16\n")
    lex = lx.load(*write_data(tmp_path, verbs=verbs))
    violations = lx.validate(lex, expectations)
    assert violations == [lx.Violation("verb", "먹", 16, "ends-with-ㄹ", True)]


def test_misfiled_ending_yields_exactly_one_violation(tmp_path, expectations):
    # 어야 starts with a vowel; class 1 endings must not.
    endings = ENDINGS_PATH.read_text(encoding="utf-8") + "어야\t1\n"
    lex = lx.load(*write_data(tmp_path, endings=endings))
    violations = lx.validate(lex, expectations)
    assert violations == [lx.Violation("ending", "어야", 1, "starts-with-vowel", False)]
