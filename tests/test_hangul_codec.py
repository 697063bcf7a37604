import os
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from koverbs import hangul_codec as hc
from koverbs.errors import NonHangulInput, Uncomposable

from oracle import compose_by_hand

syllables = st.integers(min_value=hc.SYLLABLE_BASE, max_value=hc.SYLLABLE_LAST).map(chr)
syllable_text = st.text(alphabet=st.integers(
    min_value=hc.SYLLABLE_BASE, max_value=hc.SYLLABLE_LAST).map(chr), max_size=6)


def test_decompose_keeps_letter_order():
    assert hc.decompose("그렇") == ("ㄱ", "ㅡ", "ㄹ", "ㅓ", "ㅎ")
    assert hc.decompose("어야") == ("ㅇ", "ㅓ", "ㅇ", "ㅑ")


def test_decompose_splits_cluster_finals_only():
    assert hc.decompose("없") == ("ㅇ", "ㅓ", "ㅂ", "ㅅ")
    assert hc.decompose("앉") == ("ㅇ", "ㅏ", "ㄴ", "ㅈ")
    # doubled consonants and compound vowels stay whole
    assert hc.decompose("있") == ("ㅇ", "ㅣ", "ㅆ")
    assert hc.decompose("왜") == ("ㅇ", "ㅙ")


def test_decompose_lone_jamo():
    assert hc.decompose("ㅂ니다") == ("ㅂ", "ㄴ", "ㅣ", "ㄷ", "ㅏ")
    assert hc.decompose("ㄱ") == ("ㄱ",)
    assert hc.decompose("ㅏ") == ("ㅏ",)
    # a lone cluster jamo splits like a final would
    assert hc.decompose("ㅄ") == ("ㅂ", "ㅅ")


@pytest.mark.parametrize("text,position", [
    ("a", 0),
    ("그a", 1),
    ("그 렇", 1),
    ("가", 0),  # conjoining jamo are rejected, not normalized
])
def test_decompose_rejects_non_hangul(text, position):
    with pytest.raises(NonHangulInput) as exc:
        hc.decompose(text)
    assert exc.value.position == position


def test_compose_packs_greedily():
    assert hc.compose(("ㄱ", "ㅡ", "ㄹ", "ㅐ", "ㅇ", "ㅑ")) == "그래야"
    # the first ㄹ becomes a final because the second ㄹ is not pre-vowel
    assert hc.compose(("ㅁ", "ㅗ", "ㄹ", "ㄹ", "ㅏ")) == "몰라"
    assert hc.compose(("ㅇ", "ㅜ", "ㄹ", "ㅇ", "ㅓ")) == "울어"
    assert hc.compose(("ㅇ", "ㅏ", "ㄴ", "ㅈ", "ㄱ", "ㅓ")) == "앉거"
    assert hc.compose(("ㅇ", "ㅏ", "ㄴ", "ㅈ", "ㅏ")) == "안자"


@pytest.mark.parametrize("letters,position", [
    (("ㅏ", "ㄱ"), 0),                      # leading vowel
    (("ㅁ", "ㅓ", "ㄱ", "ㄴ", "ㄷ", "ㅏ"), 3),  # ㄱㄴ is no cluster, ㄴㄷ no syllable
    (("ㅁ", "ㅓ", "ㄸ"), 2),               # ㄸ cannot be a final
    (("ㄱ", "ㅏ", "ㅏ"), 2),               # adjacent vowels
    ((), None),
])
def test_compose_rejects_impossible_sequences(letters, position):
    if letters == ():
        assert hc.compose(letters) == ""
        return
    with pytest.raises(Uncomposable) as exc:
        hc.compose(letters)
    assert exc.value.position == position


def test_cluster_split_and_merge_are_inverse():
    for cluster, (a, b) in hc.CLUSTER_FINALS.items():
        syllable = hc.compose(("ㄱ", "ㅏ", a, b))
        assert hc.decompose(syllable) == ("ㄱ", "ㅏ", a, b)
        rel = ord(syllable) - hc.SYLLABLE_BASE
        assert hc.FINALS[rel % 28] == cluster


def test_classify():
    assert hc.classify("ㅏ") == "vowel(light)"
    assert hc.classify("ㅓ") == "vowel(dark)"
    assert hc.classify("ㄹ") == "consonant"
    assert sum(1 for v in hc.VOWELS if hc.classify(v) == "vowel(light)") == 7
    assert all(hc.classify(c) == "consonant" for c in hc.ONSETS)
    with pytest.raises(NonHangulInput):
        hc.classify("x")


def test_letter_alphabet_size():
    assert len(hc.LETTERS) == 40
    assert len(hc.ONSETS) == 19
    assert len(hc.VOWELS) == 21


def letters_by_name(char):
    """The letters of one Hangul character from the Unicode character database alone:
    NFD splits a syllable into conjoining jamo, and each jamo's name gives one compatibility
    letter per hyphen-separated part (HANGUL JONGSEONG RIEUL-SIOS is ㄹ ㅅ)."""
    letters = []
    for jamo in unicodedata.normalize("NFD", char):
        parts = unicodedata.name(jamo).split(" ", 2)[2]  # HANGUL CHOSEONG, JUNGSEONG, LETTER...
        letters += [unicodedata.lookup(f"HANGUL LETTER {part}") for part in parts.split("-")]
    return tuple(letters)


def test_codec_matches_the_unicode_character_database():
    # No letter table of the package is read here, so a wrong entry in one shows even
    # where decompose and compose still invert each other (ㄽ split as ㄹ ㅆ, say).
    syllables = [chr(code) for code in range(0xAC00, 0xD7A4)]
    jamo = [chr(code) for code in range(0x3131, 0x3164)]
    assert (len(syllables), len(jamo)) == (11172, 51)
    for syllable in syllables:
        letters = letters_by_name(syllable)
        assert (hc.decompose(syllable), hc.compose(letters)) == (letters, syllable)
    for char in jamo:
        letters = letters_by_name(char)
        assert hc.decompose(char) == letters
        with pytest.raises(Uncomposable):  # a lone jamo is no syllable
            hc.compose(letters)


def test_a_long_text_round_trips_in_linear_time():
    # The syllable check above covers 11,172 syllables, too few for a quadratic cost to show.
    # Half a million take about a second both ways. They run in a fresh interpreter, where
    # this is compose's first call, as in a one-shot process: there CPython 3.11 has not yet
    # specialized compose's loop, so a compose that grows its text with `out += chr(code)`
    # copies the text for every syllable and takes over ten seconds.
    script = ("import random, time\n"
              "from koverbs import hangul_codec as hc\n"
              "codes = random.Random(0).choices(range(0xAC00, 0xD7A4), k=500_000)\n"
              "text = ''.join(map(chr, codes))\n"
              "start = time.perf_counter()\n"
              "assert hc.compose(hc.decompose(text)) == text\n"
              "print(time.perf_counter() - start)\n")
    found = [str(Path(hc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, found)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert float(done.stdout) < 6


@given(syllables)
def test_round_trip_single_syllable(s):
    assert hc.compose(hc.decompose(s)) == s


@given(syllable_text)
def test_round_trip_text(text):
    assert hc.compose(hc.decompose(text)) == text


@given(syllable_text)
def test_decompose_is_normal_form(text):
    letters = hc.decompose(text)
    assert hc.decompose(hc.compose(letters)) == letters


# Letter sequences shaped like syllables (onset, vowel, 0-2 trailing
# letters), so most pack and the final and cluster lookahead is busy,
# plus free sequences over every letter, a cluster jamo and a non-letter.
LETTERS = sorted(hc.LETTERS)
syllable_shapes = st.lists(st.tuples(
    st.sampled_from(hc.ONSETS), st.sampled_from(hc.VOWELS),
    st.lists(st.sampled_from(LETTERS), max_size=2).map(tuple),
).map(lambda t: (t[0], t[1]) + t[2]), max_size=5).map(lambda parts: sum(parts, ()))
free_letters = st.lists(st.sampled_from(LETTERS + ["ㄳ", "x"]), max_size=10).map(tuple)


def packed(compose, letters):
    try:
        return compose(letters)
    except Uncomposable as err:
        return ("stuck", err.position, err.letters)


@settings(max_examples=500)
@given(st.one_of(syllable_shapes, free_letters))
def test_compose_matches_the_reference_packer(letters):
    assert packed(hc.compose, letters) == packed(compose_by_hand, letters)


# Letters that open with a consonant and a vowel, then anything.
syllable_start = st.tuples(st.sampled_from(hc.ONSETS), st.sampled_from(hc.VOWELS),
                           st.one_of(syllable_shapes, free_letters)).map(lambda t: t[:2] + t[2])


@pytest.mark.parametrize("compose", [hc.compose, compose_by_hand], ids=["compose", "by_hand"])
@settings(max_examples=500)
@given(head=st.one_of(syllable_shapes, free_letters), rest=syllable_start)
def test_packing_splits_before_a_consonant_and_vowel(compose, head, rest):
    # A consonant right before a vowel always starts a syllable, so the plan
    # packs an ending's letters from there once and a form packs only the
    # letters before them: the whole packs as its two parts, or gets stuck
    # where the first part does, or else where the second part does.
    first, second = packed(compose, head), packed(compose, rest)
    if isinstance(first, tuple):
        expected = ("stuck", first[1], head + rest)
    elif isinstance(second, tuple):
        expected = ("stuck", len(head) + second[1], head + rest)
    else:
        expected = first + second
    assert packed(compose, head + rest) == expected
