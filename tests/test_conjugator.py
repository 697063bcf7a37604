import random
from dataclasses import astuple
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koverbs import conjugator as cj
from koverbs import hangul_codec, load_lexicon
from koverbs.errors import IndexOutOfBounds, NotFound, ParseError, Uncomposable
from koverbs.hangul_codec import (CLUSTER_FINALS, LETTERS, SYLLABLE_BASE, SYLLABLE_LAST,
                                  compose, decompose)
from koverbs.lemmatizer import build_index
from koverbs.lexicon import EndingEntry, Lexicon, VerbEntry
from koverbs.ruleset import ENDING_CLASS_COUNT, IDENTITY_RULE, Rule, Template, serialize_rule

from conftest import assert_acts_as_frozen_dataclass, shipped_paths
from oracle import brute_force, flatten_paradigm, index_by_hand, merge_by_hand

# Worked out by hand, one step per field: decompose both sides,
# slice the verb from the tail, slice the ending from the head, splice
# the rule's letters between, and pack the result. Each fixture records
# every intermediate so a regression pinpoints the step that drifted.
HAND_TRACES = [
    {
        "verb": "그렇",
        "ending": "어야",
        "rule": Rule(-2, ("ㅐ",), 2),
        "verb_letters": ("ㄱ", "ㅡ", "ㄹ", "ㅓ", "ㅎ"),
        "ending_letters": ("ㅇ", "ㅓ", "ㅇ", "ㅑ"),
        "kept": ("ㄱ", "ㅡ", "ㄹ"),
        "tail": ("ㅇ", "ㅑ"),
        "merged": ("ㄱ", "ㅡ", "ㄹ", "ㅐ", "ㅇ", "ㅑ"),
        "text": "그래야",
    },
    {
        "verb": "모르",
        "ending": "아",
        "rule": Rule(-2, ("ㄹ", "ㄹ", "ㅏ"), 2),
        "verb_letters": ("ㅁ", "ㅗ", "ㄹ", "ㅡ"),
        "ending_letters": ("ㅇ", "ㅏ"),
        "kept": ("ㅁ", "ㅗ"),
        "tail": (),
        "merged": ("ㅁ", "ㅗ", "ㄹ", "ㄹ", "ㅏ"),
        "text": "몰라",
    },
    {
        "verb": "돕",
        "ending": "아",
        "rule": Rule(-1, ("ㅇ", "ㅘ"), 2),
        "verb_letters": ("ㄷ", "ㅗ", "ㅂ"),
        "ending_letters": ("ㅇ", "ㅏ"),
        "kept": ("ㄷ", "ㅗ"),
        "tail": (),
        "merged": ("ㄷ", "ㅗ", "ㅇ", "ㅘ"),
        "text": "도와",
    },
]


@pytest.mark.parametrize("trace", HAND_TRACES, ids=lambda t: t["text"])
def test_apply_rule_matches_hand_trace(trace):
    verb_letters = decompose(trace["verb"])
    ending_letters = decompose(trace["ending"])
    assert verb_letters == trace["verb_letters"]
    assert ending_letters == trace["ending_letters"]
    assert verb_letters[:trace["rule"].verb_stop] == trace["kept"]
    assert ending_letters[trace["rule"].ending_start:] == trace["tail"]
    merged = trace["kept"] + trace["rule"].postfix + trace["tail"]
    assert merged == trace["merged"]
    assert compose(merged) == trace["text"]
    assert cj.apply_rule(verb_letters, ending_letters, trace["rule"]) == trace["text"]


def test_identity_rule_concatenates():
    out = cj.apply_rule(decompose("그렇"), decompose("어야"), IDENTITY_RULE)
    assert out == "그렇어야"


def test_verb_stop_past_the_letters():
    with pytest.raises(IndexOutOfBounds) as exc:
        cj.apply_rule(decompose("그렇"), decompose("어야"), Rule(-6, (), None))
    assert exc.value.which == "verb"
    assert exc.value.index == -6
    assert exc.value.length == 5


def test_verb_stop_at_the_boundary_keeps_nothing():
    out = cj.apply_rule(decompose("그렇"), decompose("어야"), Rule(-5, (), None))
    assert out == "어야"


def test_ending_start_past_the_letters():
    with pytest.raises(IndexOutOfBounds) as exc:
        cj.apply_rule(decompose("그렇"), decompose("어야"), Rule(None, (), 5))
    assert exc.value.which == "ending"
    assert exc.value.index == 5
    assert exc.value.length == 4


def test_ending_start_at_the_boundary_drops_everything():
    out = cj.apply_rule(decompose("그렇"), decompose("어야"), Rule(None, (), 4))
    assert out == "그렇"


def test_unpackable_result_raises():
    with pytest.raises(Uncomposable):
        cj.apply_rule(("ㄱ", "ㅏ"), ("ㅏ",), IDENTITY_RULE)


def test_apply_rule_accepts_lists():
    out = cj.apply_rule(["ㄱ", "ㅏ"], ["ㄱ", "ㅗ"], IDENTITY_RULE)
    assert out == "가고"


# ---------------------------------------------------------------- paradigms

def test_worked_example(lexicon):
    forms = cj.conjugate_pair(lexicon, "그렇", "어야")
    assert [f.text for f in forms] == ["그래야"]
    form = forms[0]
    assert form.verb == "그렇"
    assert form.ending == "어야"
    assert form.ending_class == 3
    assert form.verb_class == 8
    assert form.rule == Rule(-2, ("ㅐ",), 2)
    assert form.provenance == ((8, Rule(-2, ("ㅐ",), 2)),)


@pytest.mark.parametrize("verb,ending,texts", [
    ("모르", "아", ["몰라"]),
    ("돕", "아야", ["도와야"]),
    ("돕", "아라", ["도와라"]),
    ("하", "어야", ["해야"]),
    ("듣", "어", ["들어"]),
    ("짓", "어", ["지어"]),
    ("노랗", "아야", ["노래야"]),
    ("가", "아", ["가"]),
    ("이르", "어", ["이르러", "일러"]),
    ("굽", "어", ["굽어", "구워"]),
])
def test_irregular_pairs(lexicon, verb, ending, texts):
    forms = cj.conjugate_pair(lexicon, verb, ending)
    assert [f.text for f in forms] == texts


def test_identity_column_concatenates_for_every_verb(lexicon):
    for verb in lexicon.verbs:
        for ending_entry in lexicon.endings_of_class(1):
            forms = cj.conjugate_pair(lexicon, verb, ending_entry.surface)
            assert [f.text for f in forms] == [verb + ending_entry.surface]


def test_blank_cell_yields_no_forms(lexicon):
    assert cj.conjugate_pair(lexicon, "있", "네") == []
    # 돕's class combines with the 아야/아라 groups but not bare 아.
    assert cj.conjugate_pair(lexicon, "돕", "아") == []
    paradigm = cj.conjugate(lexicon, "있")
    assert all(entry.surface != "네" for entry, _ in paradigm.entries)


def test_dual_class_verb_keeps_distinct_forms_apart(lexicon):
    forms = cj.conjugate_pair(lexicon, "굽", "어")
    assert [f.text for f in forms] == ["굽어", "구워"]
    assert [f.provenance[0][0] for f in forms] == [18, 22]
    assert all(len(f.provenance) == 1 for f in forms)


def test_dual_class_verb_collapses_identical_texts(lexicon):
    forms = cj.conjugate_pair(lexicon, "부르", "고")
    assert len(forms) == 1
    form = forms[0]
    assert form.text == "부르고"
    assert [vc for vc, _ in form.provenance] == [26, 46]
    assert all(rule == IDENTITY_RULE for _, rule in form.provenance)


def test_paradigm_ordering(lexicon):
    paradigm = cj.conjugate(lexicon, "가")
    class_ids = [entry.class_id for entry, _ in paradigm.entries]
    assert class_ids == sorted(class_ids)
    by_class = {}
    for entry, _ in paradigm.entries:
        by_class.setdefault(entry.class_id, []).append(entry.surface)
    file_order = [e.surface for e in lexicon.endings]
    for surfaces in by_class.values():
        positions = [file_order.index(s) for s in surfaces]
        assert positions == sorted(positions)


def test_paradigm_is_deterministic(lexicon):
    assert cj.conjugate(lexicon, "돕") == cj.conjugate(lexicon, "돕")


def test_unknown_verb(lexicon):
    with pytest.raises(NotFound) as exc:
        cj.conjugate(lexicon, "뛰")
    assert exc.value.query == "뛰"


def test_pair_unknown_parts(lexicon):
    with pytest.raises(NotFound) as exc:
        cj.conjugate_pair(lexicon, "뛰", "고")
    assert exc.value.query == "뛰"
    with pytest.raises(NotFound) as exc:
        cj.conjugate_pair(lexicon, "가", "뷁")
    assert exc.value.query == "뷁"


def test_stem_shorter_than_its_plan_slices():
    # The stem has 2 letters, and its class's one rule drops the last 3: a
    # hand-built Lexicon refuses it as load does, so no plan ever slices past it.
    template = Template({(1, 1): Rule(-3, (), None)})
    with pytest.raises(ParseError) as exc:
        Lexicon([EndingEntry("고", 1)], [VerbEntry("가", (1,))], template)
    assert exc.value.source == "stem '가'"
    assert str(exc.value) == "stem '가': stem '가' has 2 letters but class 1 rules slice 3"
    # One letter more and the same lexicon builds and conjugates.
    long_enough = Lexicon([EndingEntry("고", 1)], [VerbEntry("각", (1,))], template)
    assert [f.text for f in cj.conjugate_pair(long_enough, "각", "고")] == ["고"]


def test_stops_from_the_stem_head_set_no_syllables_aside():
    # parse_rule takes only negative stops, but a hand-built Template may
    # hold 0 or 1, which keep letters from the stem's head: each form is
    # still apply_rule's, from conjugate, conjugate_pair and build_index
    # alike. The two stems end in the same 가다; one build_index indexes both.
    rules = {1: Rule(0, (), None), 2: Rule(1, ("ㅏ",), None), 3: Rule(-1, (), None)}
    template = Template({(c, 1): rule for c, rule in rules.items()})
    stems = ("다가다", "라가다")
    lex = Lexicon([EndingEntry("고", 1)], [VerbEntry(s, (1, 2, 3)) for s in stems], template)
    for verb in stems:
        expected = {cj.apply_rule(decompose(verb), decompose("고"), r) for r in rules.values()}
        [(_, forms)] = cj.conjugate(lex, verb).entries
        assert {f.text for f in forms} == expected
        assert {f.text for f in cj.conjugate_pair(lex, verb, "고")} == expected
    assert {text for text, _ in build_index(lex).items()} == {"고", "다고", "라고", "다갇고", "라갇고"}


def test_uncomposable_names_its_source(lexicon):
    # 가나 loads in verb class 4 (slice depth is fine), but class 4 keeps
    # the stem whole, and 가나 + 아야 under rule None,,1 packs as
    # ㄱㅏㄴㅏ + ㅏㅇㅑ: a vowel with no onset.
    bad = Lexicon(lexicon.endings, [VerbEntry("가나", (4,))], lexicon.template)
    with pytest.raises(Uncomposable) as exc:
        cj.conjugate(bad, "가나")
    for part in ("'가나'", "verb class 4", "'아야'", "ending class 6", "rule None,,1",
                 "stuck at letter 4"):
        assert part in str(exc.value)
    assert exc.value.position == 4


def test_the_plan_packs_each_ending_side_once():
    # A step's tail is cut at its first consonant+vowel pair, and the letters
    # from there are packed when the plan compiles; a tail with no such pair,
    # or whose letters from it cannot pack, stays whole.
    tails = {"고": ((), "고"), "ㄴ다": (("ㄴ",), "다"), "ㅏ다": (("ㅏ",), "다"), "ㄴ": (("ㄴ",), ""),
             "다ㅏ": (("ㄷ", "ㅏ", "ㅏ"), ""), "ㅏ다ㅏ고": (("ㅏ", "ㄷ", "ㅏ", "ㅏ", "ㄱ", "ㅗ"), "")}
    template = Template({(1, 1): IDENTITY_RULE, (2, 1): Rule(-1, ("ㅓ",), 1)})
    lex = Lexicon([EndingEntry(e, 1) for e in tails], [], template)
    junctions, steps = cj._plan(lex, (1, 2))

    def head_and_rest(step):
        slot, rest, *_ = step
        return junctions[slot][1], rest

    # Each ending has two steps, class 1's first, and only the first names its entry.
    assert [step[5] for step in steps] == [e for entry in lex.endings for e in (entry, None)]
    assert [(step[2], head_and_rest(step)) for step in steps[::2]] == list(tails.items())
    # Class 2's tail is its postfix ㅓ and the ending's letters after the first.
    assert [head_and_rest(step) for step in steps[1::2]] == [
        (("ㅓ", "ㅗ"), ""), (("ㅓ",), "다"), (("ㅓ",), "다"), (("ㅓ",), ""), (("ㅓ", "ㅏ", "ㅏ"), ""),
        (("ㅓ", "ㄷ", "ㅏ", "ㅏ", "ㄱ", "ㅗ"), "")]


@pytest.mark.parametrize("ending", ["다ㅏ", "ㅏ다"])
@pytest.mark.parametrize("stem", ["가", "나가", "ㄴ가"])
def test_an_ending_side_that_cannot_pack_fails_as_apply_rule_does(stem, ending):
    # 다ㅏ's letters from its consonant+vowel pair cannot pack, so the step keeps
    # them all as its head; ㅏ다 packs 다 at compile time, and the form gets stuck
    # on the stem + ㅏ before it. Either way the error is apply_rule's on the
    # whole letters, for a stem of one syllable, of two, or led by a lone jamo.
    lex = Lexicon([EndingEntry(ending, 1)], [VerbEntry(stem, (1,))],
                  Template({(1, 1): IDENTITY_RULE}))
    with pytest.raises(Uncomposable) as direct:
        cj.apply_rule(decompose(stem), decompose(ending), IDENTITY_RULE)
    for call in (lambda: cj.conjugate(lex, stem), lambda: cj.conjugate_pair(lex, stem, ending),
                 lambda: build_index(lex)):
        with pytest.raises(Uncomposable) as exc:
            call()
        assert (exc.value.letters, exc.value.position) == (direct.value.letters,
                                                           direct.value.position)
        assert str(exc.value) == f"{exc.value.source}: {direct.value}"
        assert f"stem {stem!r} (verb class 1) + ending {ending!r}" in exc.value.source


def test_a_failing_tail_fails_again_for_the_next_stem(lexicon):
    # 다가나 and 라가나 both end in 가나, which verb class 4 cannot conjugate
    # (see above). The second stem's error is its own, and build_index stops
    # at the first stem in scope.
    both = Lexicon(lexicon.endings, [VerbEntry(s, (4,)) for s in ("다가나", "라가나")],
                   lexicon.template)
    alone = Lexicon(lexicon.endings, [VerbEntry("라가나", (4,))], lexicon.template)
    with pytest.raises(Uncomposable):
        cj.conjugate(both, "다가나")
    with pytest.raises(Uncomposable) as shared:
        cj.conjugate(both, "라가나")
    with pytest.raises(Uncomposable) as single:
        cj.conjugate(alone, "라가나")
    assert "'라가나'" in str(shared.value)
    assert str(shared.value) == str(single.value)
    assert (shared.value.letters, shared.value.position) == (single.value.letters,
                                                             single.value.position)
    with pytest.raises(Uncomposable) as indexed:
        build_index(both, verbs=("라가나", "다가나"))
    assert str(indexed.value) == str(single.value)


def test_a_run_of_stems_over_many_tails_indexes_as_the_oracle_does():
    # 512 one-syllable tails, each behind three leading syllables in a row,
    # then one more tail: 1,537 stems over 513 tails, indexed in one run.
    template = Template({(1, 1): IDENTITY_RULE})
    stems = [head + chr(SYLLABLE_BASE + 7 * k) for k in range(512) for head in "가나다"]
    stems.append("가" + chr(SYLLABLE_BASE + 7 * 512))
    lex = Lexicon([EndingEntry("고", 1)], [VerbEntry(s, (1,)) for s in stems], template)
    assert [(text, tuple(map(astuple, candidates))) for text, candidates in build_index(lex).items()] \
        == list(index_by_hand(lex).items())


def test_surface_form_acts_as_a_frozen_dataclass(lexicon):
    # The package fills its records in place, not through __init__. 모르 has two
    # classes, so some of its forms hold merged provenance; 굽's later steps build
    # their forms in an ending's scan. 갈 in classes (1, 3, 2) merges a later step
    # into its ending's first form at run time: 갈고, classes [1, 2].
    forms = [form for verb in ("그렇", "모르", "가", "굽") for _, entry_forms in
             cj.conjugate(lexicon, verb).entries for form in entry_forms]
    assert any(len(form.provenance) > 1 for form in forms)
    assert {"굽어", "구워"} <= {form.text for form in forms}
    template = Template({(1, 1): IDENTITY_RULE, (2, 1): Rule(-1, ("ㄹ",), None),
                         (3, 1): Rule(-1, (), None)})
    lex = Lexicon([EndingEntry("고", 1)], [VerbEntry("갈", (1, 3, 2))], template)
    (_, merged), = cj.conjugate(lex, "갈").entries
    assert (merged[0].text, [c for c, _ in merged[0].provenance]) == ("갈고", [1, 2])
    assert_acts_as_frozen_dataclass(cj.SurfaceForm, forms + list(merged))


def test_paradigm_acts_as_a_frozen_dataclass(lexicon):
    # conjugate fills each Paradigm in place; its generated __init__ stays for
    # callers. 그렇 has five junctions, 굽 and 이르 later steps.
    paradigms = [cj.conjugate(lexicon, verb) for verb in ("그렇", "굽", "이르")]
    assert_acts_as_frozen_dataclass(cj.Paradigm, paradigms)


# ---------------------------------------------------------------- oracle spots

def test_merge_by_hand_agrees_on_traces():
    for trace in HAND_TRACES:
        assert merge_by_hand(trace["verb"], trace["ending"], trace["rule"]) == trace["text"]


@pytest.mark.parametrize("verb", ["그렇", "모르", "돕", "하", "있", "부르", "이"])
def test_conjugate_matches_brute_force(lexicon, verb):
    assert flatten_paradigm(cj.conjugate(lexicon, verb)) == brute_force(lexicon, verb)


# ------------------------------------------------- fast path against the oracle

SHIPPED = load_lexicon(*shipped_paths())
# The shipped endings, and a variant whose lines are not sorted by class
# and where some surfaces recur under a second class, so ending-class
# order and file order differ (conjugate promises the first, conjugate_pair
# the second).
RECURRING = [EndingEntry(e.surface, e.class_id % ENDING_CLASS_COUNT + 1)
             for e in SHIPPED.endings[::6]]
SHUFFLED = list(SHIPPED.endings) + RECURRING
random.Random(7).shuffle(SHUFFLED)

random_stems = st.tuples(
    st.lists(st.integers(SYLLABLE_BASE, SYLLABLE_LAST).map(chr), max_size=2).map("".join),
    st.sampled_from(sorted(SHIPPED.verbs)),
).map("".join)
class_tuples = st.lists(st.sampled_from(sorted({c for v in SHIPPED.verbs.values()
                                                for c in v.class_ids})),
                        min_size=1, max_size=3, unique=True).map(tuple)
ending_files = st.sampled_from([tuple(SHIPPED.endings), tuple(SHUFFLED)])


def outcome(call):
    """A call's result, or the type of the exception it raised."""
    try:
        return call()
    except Exception as err:
        return type(err)


@settings(max_examples=300, deadline=None)
@given(verb=random_stems, classes=class_tuples, endings=ending_files)
def test_conjugate_matches_oracle_on_random_stems(verb, classes, endings):
    lex = Lexicon(endings, [VerbEntry(verb, classes)], SHIPPED.template)
    assert (outcome(lambda: flatten_paradigm(cj.conjugate(lex, verb)))
            == outcome(lambda: brute_force(lex, verb)))


@settings(max_examples=300, deadline=None)
@given(verb=random_stems, classes=class_tuples, endings=ending_files,
       ending=st.sampled_from(sorted({e.surface for e in SHIPPED.endings})))
def test_conjugate_pair_matches_oracle_in_file_order(verb, classes, endings, ending):
    lex = Lexicon(endings, [VerbEntry(verb, classes)], SHIPPED.template)
    # The oracle over just this ending's lines, put back into file order.
    only = Lexicon([e for e in endings if e.surface == ending], lex.verbs.values(), lex.template)
    line = {(e.surface, e.class_id): i for i, e in enumerate(only.endings)}

    def expected():
        rows = sorted(brute_force(only, verb), key=lambda row: line[row[:2]])
        return [(text, ending_class, classes)
                for _, ending_class, forms in rows for text, classes in forms]

    def got():
        return [(f.text, f.ending_class, tuple(c for c, _ in f.provenance))
                for f in cj.conjugate_pair(lex, verb, ending)]

    assert outcome(got) == outcome(expected)


@pytest.mark.parametrize("endings", [SHIPPED.endings, SHUFFLED], ids=["shipped", "shuffled"])
def test_a_pair_is_its_paradigm_lines_in_file_order(endings):
    # Every shipped stem x surface: conjugate_pair gives the very SurfaceForms,
    # provenance and merged classes included, of conjugate's entries for that
    # surface's lines, put back into file order.
    lex = Lexicon(endings, SHIPPED.verbs.values(), SHIPPED.template)
    for verb in lex.verbs:
        entries = cj.conjugate(lex, verb).entries
        for surface in {e.surface for e in endings}:
            lines = sorted((pair for pair in entries if pair[0].surface == surface),
                           key=lambda pair: lex.endings.index(pair[0]))
            assert cj.conjugate_pair(lex, verb, surface) == [f for _, forms in lines for f in forms]


syllables = st.integers(SYLLABLE_BASE, SYLLABLE_LAST).map(chr)
lone_jamo = st.sampled_from(sorted(LETTERS | set(CLUSTER_FINALS)))
leading_characters = st.one_of(st.lists(syllables, max_size=3),
                               st.lists(st.one_of(syllables, lone_jamo), max_size=3)).map("".join)


@settings(max_examples=200, deadline=None)
@given(tail=st.one_of(st.sampled_from(sorted(SHIPPED.verbs)),
                      st.lists(syllables, min_size=1, max_size=2).map("".join)),
       heads=st.lists(leading_characters, min_size=2, max_size=5, unique=True),
       classes=class_tuples)
def test_stems_sharing_a_tail_match_the_oracle(tail, heads, classes):
    # One lexicon per example, its stems ending in the same syllables: each
    # conjugates as the oracle does, again on a second pass, and one
    # build_index over all of them indexes as the oracle does.
    stems = [head + tail for head in heads]
    lex = Lexicon(SHIPPED.endings, [VerbEntry(verb, classes) for verb in stems], SHIPPED.template)
    first = {}
    for verb in stems:
        first[verb] = outcome(lambda: flatten_paradigm(cj.conjugate(lex, verb)))
        assert first[verb] == outcome(lambda: brute_force(lex, verb))
    for verb in stems:
        assert outcome(lambda: flatten_paradigm(cj.conjugate(lex, verb))) == first[verb]
    assert outcome(lambda: {text: tuple(map(astuple, candidates))
                            for text, candidates in build_index(lex).items()}) \
        == outcome(lambda: index_by_hand(lex))


# ------------------------------------------ the flat plan on hand-built lexicons

def stuck(lexicon, verb, endings):
    """apply_rule's error and a source naming its step, for the first step, over
    `endings` in order and then the stem's classes, whose form cannot pack; None
    when every form packs."""
    for entry in endings:
        for verb_class in lexicon.verbs[verb].class_ids:
            rule = lexicon.template.lookup(verb_class, entry.class_id)
            if rule is None:
                continue
            try:
                cj.apply_rule(decompose(verb), decompose(entry.surface), rule)
            except Uncomposable as err:
                return err, (f"stem {verb!r} (verb class {verb_class}) + ending {entry.surface!r} "
                             f"(ending class {entry.class_id}), rule {serialize_rule(rule)}")
    return None


def refused(endings, stems, classes, cells):
    """load's reason for the first of `endings`, then of `stems` (each in `classes`), that
    has fewer letters than a rule of one of its classes in `cells` slices, with the entry
    as its source; None when every entry is long enough."""
    entries = [("ending", e.surface, (e.class_id,)) for e in endings]
    entries += [("stem", stem, classes) for stem in stems]
    for kind, surface, class_ids in entries:
        length = len(decompose(surface))
        for class_id in class_ids:
            depths = [(rule.ending_start or 0) if kind == "ending" else -(rule.verb_stop or 0)
                      for (verb_class, ending_class), rule in cells.items()
                      if class_id == (ending_class if kind == "ending" else verb_class)]
            if length < max(depths, default=0):
                return (f"{kind} {surface!r}: {kind} {surface!r} has {length} letters but "
                        f"class {class_id} rules slice {max(depths)}")
    return None


def assert_refused(build, reason):
    with pytest.raises(ParseError) as exc:
        build()
    assert str(exc.value) == reason


def assert_fails_as(call, failure):
    err, source = failure
    with pytest.raises(type(err)) as exc:
        call()
    assert vars(exc.value) == {**vars(err), "source": source}
    assert str(exc.value) == f"{source}: {err}"
    # Raised from None, with no chained error to show or keep.
    assert (exc.value.__cause__, exc.value.__context__, exc.value.__suppress_context__) == \
        (None, None, True)


def test_a_pair_names_its_own_step_when_another_ending_first_uses_its_junction():
    # Under the identity rule 고 and 다 splice the stem's whole letters before a
    # packed rest, so they share one junction, which 고 uses first. The lone
    # jamo ㄱ cannot pack: the pair with 다 fails on ㄱ + 다, not on ㄱ + 고.
    lex = Lexicon([EndingEntry("고", 1), EndingEntry("다", 1)], [VerbEntry("ㄱ", (1,))],
                  Template({(1, 1): IDENTITY_RULE}))
    junctions, steps = cj._plan(lex, (1,))
    assert len(junctions) == 1 and [slot for slot, *_ in steps] == [0, 0]
    for ending in ("고", "다"):
        assert_fails_as(lambda: cj.conjugate_pair(lex, "ㄱ", ending),
                        stuck(lex, "ㄱ", [EndingEntry(ending, 1)]))


def test_a_stem_with_a_lone_jamo_packs_its_identity_junction():
    # A stem of syllables alone is the text of its identity junction, which keeps every
    # letter and adds none. A stem holding a lone jamo is packed as any junction is:
    # 가ㅅ + 고 gives 갓고, and ㄴ가 + 고 gets stuck as apply_rule does.
    lex = Lexicon([EndingEntry("고", 1)], [VerbEntry(s, (1,)) for s in ("가ㅅ", "ㄴ가")],
                  Template({(1, 1): IDENTITY_RULE}))
    [(_, (form,))] = cj.conjugate(lex, "가ㅅ").entries
    assert form.text == cj.apply_rule(decompose("가ㅅ"), decompose("고"), IDENTITY_RULE) == "갓고"
    assert [f.text for f in cj.conjugate_pair(lex, "가ㅅ", "고")] == ["갓고"]
    assert [text for text, _ in build_index(lex, verbs=("가ㅅ",)).items()] == ["갓고"]
    for call in (lambda: cj.conjugate(lex, "ㄴ가"), lambda: cj.conjugate_pair(lex, "ㄴ가", "고"),
                 lambda: build_index(lex, verbs=("ㄴ가",))):
        assert_fails_as(call, stuck(lex, "ㄴ가", lex.endings))


# Ending sides that share heads across endings (고 and 다 cut before their
# first letter, ㄴ다 and ㄴ가 after ㄴ, ㅏ다 after ㅏ), and some that get stuck
# (다ㅏ, whose letters from 다 cannot pack, or a postfix vowel after the stem's
# vowel). Endings have 2 letters or more and stems 3 or more, and verb stops
# of -4 and ending starts of 3 slice past the shortest of them: such a lexicon
# is refused, as load refuses it.
HAND_ENDINGS = ("고", "다", "ㄴ다", "ㄴ가", "아서", "어", "ㄹ까", "ㅂ니다", "ㅏ다", "다ㅏ")
hand_rules = st.builds(Rule, st.one_of(st.none(), st.integers(-4, 1)),
                       st.lists(st.sampled_from("ㅏㅓㄴㄹㅇㅎ"), max_size=2).map(tuple),
                       st.one_of(st.none(), st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(tail=st.one_of(st.sampled_from(sorted(v for v in SHIPPED.verbs if len(decompose(v)) >= 3)),
                      st.lists(syllables, min_size=2, max_size=2).map("".join)),
       heads=st.lists(leading_characters, min_size=1, max_size=4, unique=True),
       classes=st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True).map(tuple),
       cells=st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 2)), hand_rules),
       endings=st.lists(st.builds(EndingEntry, st.sampled_from(HAND_ENDINGS), st.integers(1, 2)),
                        min_size=1, max_size=5, unique=True))
def test_the_flat_plan_matches_the_oracle_on_hand_built_lexicons(tail, heads, classes, cells,
                                                                 endings):
    # Stems share a tail behind 0-3 leading syllables or lone jamo, on a
    # template with verb stops -4..1 and ending starts 1..3; conjugate, every
    # pair and build_index give the oracle's forms, or apply_rule's error for
    # the first stuck step. A lexicon with an entry that a rule of its classes
    # slices past is refused, and names the first such entry.
    stems = [head + tail for head in heads]
    verbs = [VerbEntry(verb, classes) for verb in stems]
    reason = refused(endings, stems, classes, cells)
    if reason:
        assert_refused(lambda: Lexicon(endings, verbs, Template(cells)), reason)
        return
    lex = Lexicon(endings, verbs, Template(cells))
    in_plan_order = sorted(endings, key=lambda e: e.class_id)
    for verb in stems:
        failure = stuck(lex, verb, in_plan_order)
        if failure:
            assert_fails_as(lambda: cj.conjugate(lex, verb), failure)
        else:
            assert flatten_paradigm(cj.conjugate(lex, verb)) == brute_force(lex, verb)
        for ending in {e.surface for e in endings}:
            lines = [e for e in endings if e.surface == ending]
            failure = stuck(lex, verb, lines)
            if failure:
                assert_fails_as(lambda: cj.conjugate_pair(lex, verb, ending), failure)
                continue
            only = Lexicon(lines, lex.verbs.values(), lex.template)
            rows = {(surface, ending_class): forms
                    for surface, ending_class, forms in brute_force(only, verb)}
            expected = [(text, entry.class_id, classes) for entry in lines
                        for text, classes in rows.get(astuple(entry), ())]
            assert [(f.text, f.ending_class, tuple(c for c, _ in f.provenance))
                    for f in cj.conjugate_pair(lex, verb, ending)] == expected
    failure = next(filter(None, (stuck(lex, verb, in_plan_order) for verb in stems)), None)
    if failure:
        assert_fails_as(lambda: build_index(lex), failure)
    else:
        assert [(text, tuple(map(astuple, candidates))) for text, candidates
                in build_index(lex).items()] == list(index_by_hand(lex).items())


def test_every_plan_shares_each_ending_side(monkeypatch):
    # Compiling every shipped class tuple decomposes each distinct
    # (postfix, start, ending) side once, however many plans use it.
    lex = load_lexicon(*shipped_paths())
    calls, original = [], hangul_codec.decompose
    monkeypatch.setattr(hangul_codec, "decompose", lambda text: calls.append(text) or original(text))
    plans = [cj._plan(lex, v.class_ids) for v in lex.verbs.values()]
    sides = {(rule.postfix, rule.ending_start, ending) for _, steps in plans
             for _, _, ending, _, provenance, _ in steps for _, rule in provenance}
    assert len(calls) == len(sides)


def test_a_warm_lexicon_packs_every_junction_but_the_identity_one(monkeypatch):
    # Each shipped plan holds one identity junction (no verb stop, no head), whose text is
    # the stem itself: with every plan and ending side compiled, build_index packs 166 of
    # the 261 junctions, conjugate(그렇) 4 of its 5 and a pair of 그렇 none, each through
    # the module's compose.
    lex = load_lexicon(*shipped_paths())
    build_index(lex)
    plans = [cj._plan(lex, v.class_ids)[0] for v in lex.verbs.values()]
    assert (sum(map(len, plans)), sum(plan.count((None, ())) for plan in plans)) == (261, 95)
    calls, original = [], hangul_codec.compose
    monkeypatch.setattr(hangul_codec, "compose", lambda seq: calls.append(seq) or original(seq))
    counts = []
    for call in (lambda: build_index(lex), lambda: cj.conjugate(lex, "그렇"),
                 lambda: cj.conjugate_pair(lex, "그렇", "고")):
        calls.clear()
        call()
        counts.append(len(calls))
    assert counts == [166, 4, 0]
    assert len(cj._plan(lex, lex.verbs["그렇"].class_ids)[0]) == 5


def test_the_shipped_plans_merge_coinciding_steps():
    # Classes of one stem whose rules share a junction and a packed rest make
    # the same text for any stem: the plan holds them as one step. build_index
    # reads each class tuple's steps from its one cached plan; the lexicon
    # caches the ending sides apart from the plans.
    lex = load_lexicon(*shipped_paths())
    build_index(lex)
    assert lex._plans.keys() == {v.class_ids for v in lex.verbs.values()}
    assert (len(lex._plans), len(lex._sides)) == (46, 130)
    plans = {classes: steps for classes, (_, steps) in lex._plans.items()}
    steps = [step for plan in plans.values() for step in plan]
    assert len(steps) == 1069
    assert sum(len(provenance) > 1 for _, _, _, _, provenance, _ in steps) == 96
    assert sum(entry is None for *_, entry in steps) == 13
    # Within an ending (a first step and the later ones after it), no two
    # steps share a junction and a rest.
    for plan in plans.values():
        endings = accumulate(entry is not None for *_, entry in plan)
        assert len({(at, slot, rest) for at, (slot, rest, *_) in zip(endings, plan)}) == len(plan)
    # A merged step lists its classes in the stem's order.
    assert all([c for c, _ in step[4]] == [c for c in classes if c in dict(step[4])]
               for classes, plan in plans.items() for step in plan)


def test_an_ending_listed_twice_makes_two_entries():
    # Each line of the endings makes its own entry, even the same EndingEntry
    # object twice: an ending's first step names it, whatever came before.
    ending = EndingEntry("고", 1)
    lex = Lexicon([ending, ending], [VerbEntry("가", (1,))], Template({(1, 1): IDENTITY_RULE}))
    entries = cj.conjugate(lex, "가").entries
    assert [(entry, [f.text for f in forms]) for entry, forms in entries] == \
        [(ending, ["가고"]), (ending, ["가고"])]
    assert [f.text for f in cj.conjugate_pair(lex, "가", "고")] == ["가고", "가고"]


def test_distinct_steps_that_collide_keep_their_classes_in_order():
    # Classes 1 and 3 keep 갈 whole and share one step; class 2 drops its ㄹ
    # and puts it back, another step with the same text, 갈고. When class 3
    # drops the ㄹ instead (가고) and comes before class 2, class 2's later
    # step merges into the first form, not the last one.
    cases = [(IDENTITY_RULE, (1, 2, 3), [("갈고", [1, 2, 3])]),
             (Rule(-1, (), None), (1, 3, 2), [("갈고", [1, 2]), ("가고", [3])])]
    for third, classes, expected in cases:
        template = Template({(1, 1): IDENTITY_RULE, (2, 1): Rule(-1, ("ㄹ",), None), (3, 1): third})
        lex = Lexicon([EndingEntry("고", 1)], [VerbEntry("갈", classes)], template)
        (_, forms), = cj.conjugate(lex, "갈").entries
        assert list(forms) == cj.conjugate_pair(lex, "갈", "고")
        assert [(f.text, [c for c, _ in f.provenance]) for f in forms] == expected
        assert [c.verb_class for c in build_index(lex).candidates("갈고")] == expected[0][1]


@pytest.mark.parametrize("classes", [(1, 2), (2, 1)])
def test_a_shared_stuck_junction_names_the_first_class(classes):
    # Both classes keep 가나 whole before the ending's ㅏㅇㅑ, one step whose
    # junction cannot pack; the error names the stem's first class.
    template = Template({(1, 1): Rule(None, (), 1), (2, 1): Rule(None, (), 1)})
    lex = Lexicon([EndingEntry("아야", 1)], [VerbEntry("가나", classes)], template)
    source = f"stem '가나' (verb class {classes[0]}) + ending '아야' (ending class 1), rule None,,1"
    for call in (lambda: cj.conjugate(lex, "가나"), lambda: cj.conjugate_pair(lex, "가나", "아야"),
                 lambda: build_index(lex)):
        with pytest.raises(Uncomposable) as exc:
            call()
        assert vars(exc.value) == {"source": source, "position": 4,
                                   "letters": ("ㄱ", "ㅏ", "ㄴ", "ㅏ", "ㅏ", "ㅇ", "ㅑ")}
        assert str(exc.value) == f"{source}: cannot compose 'ㄱㅏㄴㅏㅏㅇㅑ': stuck at letter 4"


def test_a_stuck_junction_raises_its_own_error_without_apply_rule(monkeypatch):
    # The engine names a stuck junction's first row from the junction's letters,
    # not by replaying rows with apply_rule: with apply_rule broken, 가나 in verb
    # class 4 (as in test_uncomposable_names_its_source) and a junction two
    # classes share fail as before.
    def broken(*args):
        raise AssertionError("the engine called apply_rule")

    monkeypatch.setattr(cj, "apply_rule", broken)
    letters = ("ㄱ", "ㅏ", "ㄴ", "ㅏ", "ㅏ", "ㅇ", "ㅑ")
    shared = Template({(1, 1): Rule(None, (), 1), (2, 1): Rule(None, (), 1)})
    cases = [(Lexicon(SHIPPED.endings, [VerbEntry("가나", (4,))], SHIPPED.template),
              "stem '가나' (verb class 4) + ending '아야' (ending class 6), rule None,,1"),
             (Lexicon([EndingEntry("아야", 1)], [VerbEntry("가나", (2, 1))], shared),
              "stem '가나' (verb class 2) + ending '아야' (ending class 1), rule None,,1")]
    for lex, source in cases:
        for call in (lambda: cj.conjugate(lex, "가나"), lambda: cj.conjugate_pair(lex, "가나", "아야"),
                     lambda: build_index(lex)):
            with pytest.raises(Uncomposable) as exc:
                call()
            assert type(exc.value) is Uncomposable
            assert vars(exc.value) == {"source": source, "position": 4, "letters": letters}
            assert str(exc.value) == f"{source}: cannot compose 'ㄱㅏㄴㅏㅏㅇㅑ': stuck at letter 4"
            assert (exc.value.__cause__, exc.value.__context__, exc.value.__suppress_context__) \
                == (None, None, True)


@settings(max_examples=200, deadline=None)
@given(first=st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True).map(tuple),
       second=st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True).map(tuple),
       cells=st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 2)), hand_rules),
       endings=st.lists(st.builds(EndingEntry, st.sampled_from(HAND_ENDINGS), st.integers(1, 2)),
                        min_size=1, max_size=5, unique=True))
def test_a_plan_does_not_depend_on_the_plans_compiled_before_it(first, second, cells, endings):
    # Plans of one lexicon share its cached ending sides: compiling one class
    # tuple first leaves the next one's plan as a fresh lexicon compiles it.
    reason = refused(endings, [], (), cells)
    if reason:
        assert_refused(lambda: Lexicon(endings, [], Template(cells)), reason)
        return
    lex = Lexicon(endings, [], Template(cells))
    before = cj._plan(lex, first)
    plan = cj._plan(lex, second)
    assert plan == cj._plan(Lexicon(endings, [], Template(cells)), second)
    assert before == cj._plan(Lexicon(endings, [], Template(cells)), first)
