import gc
import random
from dataclasses import astuple

import pytest

from koverbs import conjugate, lemmatizer as lm
from koverbs.errors import NotFound, Uncomposable
from koverbs.hangul_codec import SYLLABLE_BASE, SYLLABLE_LAST
from koverbs.lexicon import Lexicon, VerbEntry

from conftest import assert_acts_as_frozen_dataclass
from oracle import index_by_hand


@pytest.fixture(scope="module")
def index(lexicon):
    return lm.build_index(lexicon)


def test_scoped_index(lexicon):
    index = lm.build_index(lexicon, verbs=["그렇"])
    assert index.scope == ("그렇",)
    assert lm.lemmatize(index, "그래야") == [lm.LemmaCandidate("그렇", "어야", 8, 3)]
    assert "몰라" not in index


def test_worked_example(index):
    candidates = lm.lemmatize(index, "그래야")
    assert lm.LemmaCandidate("그렇", "어야", 8, 3) in candidates


def test_irregular_recovery(index):
    candidates = lm.lemmatize(index, "몰라")
    assert lm.LemmaCandidate("모르", "아", 25, 15) in candidates
    # The stem's other class reaches the same text through 어.
    assert lm.LemmaCandidate("모르", "어", 45, 3) in candidates


def test_ambiguous_form_lists_every_source(index):
    pairs = {(c.verb, c.ending) for c in lm.lemmatize(index, "물어")}
    assert pairs == {("묻", "어"), ("물", "어")}


def test_contracted_form_is_ambiguous(index):
    assert lm.lemmatize(index, "가") == [
        lm.LemmaCandidate("가", "아", 29, 15),
        lm.LemmaCandidate("가", "어", 29, 3),
    ]


def test_unknown_form_is_empty(index):
    assert lm.lemmatize(index, "뷁뷁") == []
    assert lm.lemmatize(index, "") == []
    assert lm.lemmatize(index, "xyz") == []


def test_candidates_are_sorted_tuples(lexicon, index):
    # A text with one candidate is stored bare; every reader still sees a tuple.
    for built in (index, lm.build_index(with_leading_syllables(lexicon))):
        for text, candidates in built.items():
            assert type(candidates) is tuple
            assert list(candidates) == sorted(candidates)
            assert type(built.candidates(text)) is tuple and built.candidates(text) == candidates
            found = lm.lemmatize(built, text)
            assert type(found) is list and found == list(candidates)
        assert built.candidates("뷁뷁") == () and lm.lemmatize(built, "뷁뷁") == []


def test_build_index_leaves_the_collector_as_it_found_it(lexicon):
    # build_index pauses the cyclic collector while it fills the index.
    assert gc.isenabled()
    lm.build_index(lexicon)
    assert gc.isenabled()
    gc.disable()
    try:
        lm.build_index(lexicon)
        assert not gc.isenabled()
    finally:
        gc.enable()
    bad = Lexicon(lexicon.endings, [VerbEntry("가나", (4,))], lexicon.template)
    with pytest.raises(Uncomposable):
        lm.build_index(bad)
    assert gc.isenabled()


def test_lemma_candidate_acts_as_an_ordered_frozen_dataclass(index):
    # Each of the last four built by hand differs from the first in one field,
    # so every field decides some comparison.
    built = [lm.LemmaCandidate("가", "아", 29, 15), lm.LemmaCandidate("가", "아", 29, 3),
             lm.LemmaCandidate("가", "아", 30, 15), lm.LemmaCandidate("가", "어", 29, 15),
             lm.LemmaCandidate("갈", "아", 29, 15)]
    # build_index fills its candidates in place: 그래야's is stored bare, 가's in a
    # merged tuple.
    assert type(index._index["그래야"]) is lm.LemmaCandidate
    assert type(index._index["가"]) is tuple
    found = [c for form in ("가", "물어", "몰라", "그래야") for c in lm.lemmatize(index, form)]
    assert_acts_as_frozen_dataclass(lm.LemmaCandidate, built + found, order=True)


def test_unknown_scope_member(lexicon):
    with pytest.raises(NotFound) as exc:
        lm.build_index(lexicon, verbs=["그렇", "뛰"])
    assert exc.value.query == "뛰"


def test_empty_scope(lexicon):
    index = lm.build_index(lexicon, verbs=[])
    assert len(index) == 0
    assert lm.lemmatize(index, "그래야") == []


def test_index_covers_exactly_the_generated_texts(lexicon, index):
    texts = set()
    for verb in lexicon.verbs:
        for _, forms in conjugate(lexicon, verb).entries:
            texts.update(f.text for f in forms)
    assert set(t for t, _ in index.items()) == texts
    assert len(index) == 2116


def with_leading_syllables(lexicon):
    """The shipped stems, each three times behind one seeded random
    syllable, as the benchmark builds its lexicons: stems that differ
    only in their first syllable share everything after it."""
    rng = random.Random(1)
    verbs = [VerbEntry(chr(code) + entry.surface, entry.class_ids)
             for entry in lexicon.verbs.values()
             for code in rng.sample(range(SYLLABLE_BASE, SYLLABLE_LAST + 1), 3)]
    return Lexicon(lexicon.endings, verbs, lexicon.template)


def with_ending_repeated(lexicon):
    """The shipped lexicon with one ending line listed twice: each text
    it makes arrives twice and must keep one copy of each candidate."""
    endings = list(lexicon.endings)
    endings.insert(3, endings[2])
    return Lexicon(endings, lexicon.verbs.values(), lexicon.template)


@pytest.mark.parametrize("kind", ["shipped", "leading syllables", "scoped",
                                  "stem repeated", "ending repeated"])
def test_build_index_matches_generate_and_index(lexicon, kind):
    lex = {"leading syllables": with_leading_syllables,
           "ending repeated": with_ending_repeated}.get(kind, lambda lex: lex)(lexicon)
    verbs = {"scoped": sorted(lexicon.verbs)[::4],
             "stem repeated": ["모르", "그렇", "모르"]}.get(kind)
    got = lm.build_index(lex, verbs=verbs)
    # In order: both insert each text where it is first generated.
    assert [(text, tuple(map(astuple, candidates))) for text, candidates in got.items()] \
        == list(index_by_hand(lex, verbs).items())
