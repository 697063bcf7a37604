"""Brute-force reference generator, kept independent of the conjugator.

Slicing, merging and packing are written out by hand here (positive
indices, list concatenation, a plain greedy packer) so a bug in the
conjugator or in hangul_codec.compose cannot hide in both
implementations.
"""

from koverbs import hangul_codec
from koverbs.errors import Uncomposable
from koverbs.hangul_codec import SYLLABLE_BASE
from koverbs.ruleset import ENDING_CLASS_COUNT

_ONSET_INDEX = {c: i for i, c in enumerate(hangul_codec.ONSETS)}
_VOWEL_INDEX = {v: i for i, v in enumerate(hangul_codec.VOWELS)}
_FINAL_INDEX = {c: i for i, c in enumerate(hangul_codec.FINALS) if c}
_MERGE_FINAL = {pair: cluster for cluster, pair in hangul_codec.CLUSTER_FINALS.items()}


def _vowel_at(seq, i):
    return i < len(seq) and seq[i] in _VOWEL_INDEX


def compose_by_hand(letters):
    """Reference for hangul_codec.compose: the same greedy packing, written
    plainly with a bounds-checked lookahead, raising Uncomposable at the
    letter where packing got stuck."""
    seq = tuple(letters)
    n = len(seq)
    out = []
    i = 0
    while i < n:
        onset = _ONSET_INDEX.get(seq[i])
        if onset is None or not _vowel_at(seq, i + 1):
            raise Uncomposable(seq, i)
        vowel = _VOWEL_INDEX[seq[i + 1]]
        i += 2
        final = 0
        if i < n and seq[i] in _FINAL_INDEX and not _vowel_at(seq, i + 1):
            pair = seq[i:i + 2]
            if pair in _MERGE_FINAL and not _vowel_at(seq, i + 2):
                final = _FINAL_INDEX[_MERGE_FINAL[pair]]
                i += 2
            else:
                final = _FINAL_INDEX[seq[i]]
                i += 1
        out.append(chr(SYLLABLE_BASE + (onset * 21 + vowel) * 28 + final))
    return "".join(out)


def merge_by_hand(verb, ending, rule):
    verb_letters = list(hangul_codec.decompose(verb))
    ending_letters = list(hangul_codec.decompose(ending))
    if rule.verb_stop is not None:
        # Only a hand-built Template holds a stop of 0 or more: it counts from the head.
        stop = rule.verb_stop
        keep = len(verb_letters) + stop if stop < 0 else min(stop, len(verb_letters))
        assert keep >= 0
        verb_letters = verb_letters[:keep]
    if rule.ending_start is not None:
        ending_letters = ending_letters[rule.ending_start:]
    merged = verb_letters + list(rule.postfix) + ending_letters
    return compose_by_hand(merged)


def brute_force(lexicon, verb):
    """Triple loop over class ids, ending classes, and endings.

    Returns [(ending surface, ending class, [(text, (verb classes...))])]
    in the same order the conjugator promises, for structural diffing.
    """
    entry = lexicon.verbs[verb]
    rows = []
    for ending_class in range(1, ENDING_CLASS_COUNT + 1):
        for ending in lexicon.endings:
            if ending.class_id != ending_class:
                continue
            order = []
            produced = {}
            for verb_class in entry.class_ids:
                rule = lexicon.template.lookup(verb_class, ending_class)
                if rule is None:
                    continue
                text = merge_by_hand(verb, ending.surface, rule)
                if text not in produced:
                    produced[text] = []
                    order.append(text)
                produced[text].append(verb_class)
            if order:
                rows.append(
                    (ending.surface, ending_class,
                     [(text, tuple(produced[text])) for text in order])
                )
    return rows


def flatten_paradigm(paradigm):
    """Project a conjugator Paradigm onto the oracle's output shape."""
    rows = []
    for ending_entry, forms in paradigm.entries:
        rows.append(
            (ending_entry.surface, ending_entry.class_id,
             [(f.text, tuple(c for c, _ in f.provenance)) for f in forms])
        )
    return rows


def index_by_hand(lexicon, verbs=None):
    """Reference for lemmatizer.build_index, from brute_force alone: each
    text generated over the stems (default: all) mapped to its sorted
    (verb, ending, verb class, ending class) candidates."""
    index = {}
    for verb in lexicon.verbs if verbs is None else verbs:
        for ending, ending_class, forms in brute_force(lexicon, verb):
            for text, classes in forms:
                index.setdefault(text, set()).update((verb, ending, c, ending_class) for c in classes)
    return {text: tuple(sorted(candidates)) for text, candidates in index.items()}
