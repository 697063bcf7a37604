"""Lossless conversion between Hangul syllables and flat letter sequences.

A "letter" here is a single compatibility jamo: one of the 19 onset
consonants or the 21 medial vowels. The same letter value is used
whether it appears as an onset or as a final, so the alphabet has 40
members. Compound vowels (ㅘ, ㅢ, ...) and the doubled consonants
ㄲ/ㅆ count as one letter each; syllable-final clusters (ㄳ, ㄵ, ...)
are one code point in Unicode but two letters here.
"""

from .errors import NonHangulInput, Uncomposable

SYLLABLE_BASE = 0xAC00
SYLLABLE_LAST = 0xD7A3

ONSETS = (
    "ㄱ", "ㄲ", "ㄴ", "ㄷ", "ㄸ", "ㄹ", "ㅁ", "ㅂ", "ㅃ", "ㅅ",
    "ㅆ", "ㅇ", "ㅈ", "ㅉ", "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ",
)

VOWELS = (
    "ㅏ", "ㅐ", "ㅑ", "ㅒ", "ㅓ", "ㅔ", "ㅕ", "ㅖ", "ㅗ", "ㅘ",
    "ㅙ", "ㅚ", "ㅛ", "ㅜ", "ㅝ", "ㅞ", "ㅟ", "ㅠ", "ㅡ", "ㅢ",
    "ㅣ",
)

# Index 0 is "no final"; the empty string keeps the arithmetic simple.
FINALS = (
    "", "ㄱ", "ㄲ", "ㄳ", "ㄴ", "ㄵ", "ㄶ", "ㄷ", "ㄹ", "ㄺ",
    "ㄻ", "ㄼ", "ㄽ", "ㄾ", "ㄿ", "ㅀ", "ㅁ", "ㅂ", "ㅄ", "ㅅ",
    "ㅆ", "ㅇ", "ㅈ", "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ",
)

# Final clusters split into two letters on decomposition and merge back
# on composition. Compound vowels never split.
CLUSTER_FINALS = {
    "ㄳ": ("ㄱ", "ㅅ"),
    "ㄵ": ("ㄴ", "ㅈ"),
    "ㄶ": ("ㄴ", "ㅎ"),
    "ㄺ": ("ㄹ", "ㄱ"),
    "ㄻ": ("ㄹ", "ㅁ"),
    "ㄼ": ("ㄹ", "ㅂ"),
    "ㄽ": ("ㄹ", "ㅅ"),
    "ㄾ": ("ㄹ", "ㅌ"),
    "ㄿ": ("ㄹ", "ㅍ"),
    "ㅀ": ("ㄹ", "ㅎ"),
    "ㅄ": ("ㅂ", "ㅅ"),
}

LIGHT_VOWELS = frozenset(("ㅏ", "ㅗ", "ㅑ", "ㅛ", "ㅘ", "ㅚ", "ㅐ"))

CONSONANTS = frozenset(ONSETS)
VOWEL_SET = frozenset(VOWELS)
LETTERS = CONSONANTS | VOWEL_SET

# decompose's tables: a syllable's (onset, vowel) by rel // 28 and its final's letters by
# rel % 28 (rel = code - SYLLABLE_BASE), and the letters of each lone compatibility jamo.
_PAIRS = tuple((onset, vowel) for onset in ONSETS for vowel in VOWELS)
_FINAL_LETTERS = tuple(CLUSTER_FINALS.get(final, (final,)) if final else () for final in FINALS)
_LONE = {**{letter: (letter,) for letter in LETTERS}, **CLUSTER_FINALS}

_ONSET_INDEX = {c: i for i, c in enumerate(ONSETS)}
_VOWEL_INDEX = {v: i for i, v in enumerate(VOWELS)}
_FINAL_INDEX = {c: i for i, c in enumerate(FINALS) if c}
_MERGE_FINAL = {pair: cluster for cluster, pair in CLUSTER_FINALS.items()}


def classify(letter):
    """Classify one letter as 'consonant', 'vowel(light)', or 'vowel(dark)'."""
    if letter in VOWEL_SET:
        return "vowel(light)" if letter in LIGHT_VOWELS else "vowel(dark)"
    if letter in CONSONANTS:
        return "consonant"
    raise NonHangulInput(letter, 0)


def decompose(text):
    """Split Hangul text into a tuple of single-jamo letters.

    Accepts precomposed syllables (U+AC00..U+D7A3) and lone
    compatibility jamo. A lone cluster jamo like ㅄ splits just as it
    would in syllable-final position. Anything else raises
    NonHangulInput with the offending position.
    """
    letters = []
    for pos, ch in enumerate(text):
        rel = ord(ch) - SYLLABLE_BASE
        if 0 <= rel <= SYLLABLE_LAST - SYLLABLE_BASE:
            letters += _PAIRS[rel // 28]
            letters += _FINAL_LETTERS[rel % 28]
        elif ch in _LONE:
            letters += _LONE[ch]
        else:
            raise NonHangulInput(ch, pos)
    return tuple(letters)


def compose(letters):
    """Pack a letter sequence into syllable blocks, greedily left to right.

    Each syllable takes an onset plus a vowel, then absorbs one or two
    following consonants as its final. A consonant is only absorbed
    when the letter after it is not a vowel; a consonant right before
    a vowel always starts the next syllable. Cluster finals form under
    the same one-letter lookahead. The result decomposes back to
    exactly the input; impossible inputs raise Uncomposable with the
    position where packing got stuck.
    """
    seq = tuple(letters)
    n = len(seq)
    # Two pads in no table let the lookahead run past the end unchecked.
    padded = seq + (None, None)
    onsets, vowels, finals = _ONSET_INDEX, _VOWEL_INDEX, _FINAL_INDEX
    out = []
    i = 0
    while i < n:
        onset = onsets.get(padded[i])
        if onset is None or padded[i + 1] not in vowels:
            raise Uncomposable(seq, i)
        vowel = vowels[padded[i + 1]]
        i += 2
        final = finals.get(padded[i], 0)
        if final and padded[i + 1] in vowels:
            final = 0
        elif final:
            cluster = _MERGE_FINAL.get(padded[i:i + 2])
            if cluster is not None and padded[i + 2] not in vowels:
                final = finals[cluster]
                i += 2
            else:
                i += 1
        out.append(chr(SYLLABLE_BASE + (onset * 21 + vowel) * 28 + final))
    return "".join(out)
