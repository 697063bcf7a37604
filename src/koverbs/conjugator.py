"""Rule application and paradigm generation.

apply_rule is the whole combination algorithm: slice the verb's
letters from the tail, append the rule's postfix, append the ending's
letters sliced from the head, and pack the result back into syllables.
conjugate and conjugate_pair do the same arithmetic from the lexicon's
plan for the stem's classes, whose steps hold each ending side packed,
on the stem's tail after its leading syllables, repacking only the
junction; _stem_forms shares each tail's forms across a run of stems.
"""

from dataclasses import dataclass

from . import hangul_codec, ruleset
from .errors import IndexOutOfBounds, NotFound, Uncomposable


@dataclass(frozen=True)
class SurfaceForm:
    text: str
    verb: str
    ending: str
    ending_class: int
    # Every (verb class, rule) pair that produced this text, in class order.
    # Distinct classes can yield the same text; those collapse to one form.
    provenance: tuple

    @property
    def verb_class(self):
        return self.provenance[0][0]

    @property
    def rule(self):
        return self.provenance[0][1]


@dataclass(frozen=True)
class Paradigm:
    verb: str
    # (EndingEntry, (SurfaceForm, ...)) pairs, ordered by ending class
    # id and then by position in the endings file. Endings whose cells
    # are all blank for this verb do not appear.
    entries: tuple


def apply_rule(verb_letters, ending_letters, rule):
    """Combine verb letters with ending letters under one rule."""
    verb_letters = tuple(verb_letters)
    ending_letters = tuple(ending_letters)
    stop = rule.verb_stop
    if stop is not None and -stop > len(verb_letters):
        raise IndexOutOfBounds("verb", stop, len(verb_letters))
    start = rule.ending_start
    if start is not None and start > len(ending_letters):
        raise IndexOutOfBounds("ending", start, len(ending_letters))
    return hangul_codec.compose(verb_letters[:stop] + rule.postfix + ending_letters[start:])


# Letters behind each syllable-final index: none, one, or a cluster's two.
_FINAL_LETTERS = tuple(len(hangul_codec.CLUSTER_FINALS.get(f, f)) for f in hangul_codec.FINALS)


def _split(stem, reach):
    """Leading syllables of `stem` before its shortest tail of `reach` letters or more,
    which pack alike whatever a plan step does to that tail; 0 unless all are syllables."""
    cut, count = len(stem), 0
    while cut and count < reach:
        cut -= 1
        count += 2 + _FINAL_LETTERS[(ord(stem[cut]) - hangul_codec.SYLLABLE_BASE) % 28]
    return cut if all(hangul_codec.SYLLABLE_BASE <= ord(ch) <= hangul_codec.SYLLABLE_LAST
                      for ch in stem) else 0


def _forms(verb_entry, prefix, letters, ending_entry, steps, junctions):
    """One plan entry's (text, provenance) forms from the letters of a stem after
    `prefix`; `junctions` keeps this stem's packed letters[:stop] + head by (stop, head)."""
    sources = {}
    for verb_class, rule, verb_stop, head, rest in steps:
        junction = junctions.get((verb_stop, head))
        if junction is None:
            try:
                junction = junctions[verb_stop, head] = hangul_codec.compose(letters[:verb_stop] + head)
            except Uncomposable as err:  # the whole tail gets stuck where its head does
                lead = hangul_codec.decompose(prefix)
                raise Uncomposable(
                    lead + err.letters + hangul_codec.decompose(rest), len(lead) + err.position,
                    f"stem {verb_entry.surface!r} (verb class {verb_class}) + ending "
                    f"{ending_entry.surface!r} (ending class {ending_entry.class_id}), "
                    f"rule {ruleset.serialize_rule(rule)}",
                ) from None
        text = junction + rest
        sources[text] = sources.get(text, ()) + ((verb_class, rule),)
    return tuple(sources.items())


def _planned(lexicon, verb):
    """A stem's entry and plan."""
    verb_entry = lexicon.verbs.get(verb)
    if verb_entry is None:
        raise NotFound(verb)
    return verb_entry, lexicon._plan(verb_entry.class_ids)


def _stem_letters(text, depth):
    """A stem's letters, or its tail's, checked against the plan's slice depth."""
    letters = hangul_codec.decompose(text)
    if depth > len(letters):
        raise IndexOutOfBounds("verb", -depth, len(letters))
    return letters


_TAILS_KEPT = 256  # (class tuple, tail text) keys; 256 tail paradigms are about 2 MB


def _tail_forms(lexicon, verb, tails):
    """(prefix, ((EndingEntry, forms), ...)): a stem's paradigm with its leading
    syllables left off. `tails` notes the last _TAILS_KEPT keys asked for, and
    keeps a tail's forms from its second stem on, for the stems after."""
    verb_entry, (depth, reach, plan) = _planned(lexicon, verb)
    cut = _split(verb, reach)
    prefix, key = verb[:cut], (verb_entry.class_ids, verb[cut:])
    seen = cut and key in tails  # a whole-stem key serves only that stem
    tail_forms = tails.pop(key) if seen else None
    if tail_forms is None:
        letters, junctions = _stem_letters(verb[cut:], depth), {}
        tail_forms = tuple((entry, _forms(verb_entry, prefix, letters, entry, steps, junctions))
                           for entry, steps in plan)
    if cut:
        tails[key] = tail_forms if seen else None  # the key asked for last goes last
        if len(tails) > _TAILS_KEPT:
            del tails[next(iter(tails))]
    return prefix, tail_forms


def _stem_forms(lexicon, verb, tails):
    """(text, EndingEntry, provenance) for each form of one stem, sharing its tail's
    forms with the other stems of its class tuple and tail passed the same `tails`."""
    prefix, tail_forms = _tail_forms(lexicon, verb, tails)
    for entry, forms in tail_forms:
        for text, provenance in forms:
            yield prefix + text, entry, provenance


def conjugate(lexicon, verb):
    """Generate the full paradigm of one stem."""
    prefix, tail_forms = _tail_forms(lexicon, verb, {})
    return Paradigm(verb=verb, entries=tuple(
        (entry, tuple(SurfaceForm(prefix + text, verb, entry.surface, entry.class_id, provenance)
                      for text, provenance in forms))
        for entry, forms in tail_forms
    ))


def conjugate_pair(lexicon, verb, ending):
    """Forms for one (stem, ending) pair; empty when all cells are blank."""
    verb_entry, (depth, _, plan) = _planned(lexicon, verb)
    letters, junctions = _stem_letters(verb, depth), {}
    found = [(entry, steps) for entry, steps in plan if entry.surface == ending]
    if not found and all(e.surface != ending for e in lexicon.endings):
        raise NotFound(ending)
    if len(found) > 1:  # the plan runs by ending class; a pair keeps file order
        found.sort(key=lambda item: lexicon.endings.index(item[0]))
    return [SurfaceForm(text, verb, entry.surface, entry.class_id, provenance)
            for entry, steps in found
            for text, provenance in _forms(verb_entry, "", letters, entry, steps, junctions)]
