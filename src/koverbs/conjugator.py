"""Rule application and paradigm generation.

apply_rule is the whole combination algorithm: slice the verb's
letters from the tail, append the rule's postfix, append the ending's
letters sliced from the head, and pack the result back into syllables.
conjugate and conjugate_pair do the same arithmetic from the lexicon's
plan for the stem's classes, which holds each ending's part precomputed.
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


def _forms(verb_entry, verb_letters, ending_entry, steps):
    """One plan entry's forms, each with the (verb class, rule) pairs behind it."""
    sources = {}
    for verb_class, rule, verb_stop, tail in steps:
        try:
            text = hangul_codec.compose(verb_letters[:verb_stop] + tail)
        except Uncomposable as err:
            raise Uncomposable(
                err.letters, err.position,
                f"stem {verb_entry.surface!r} (verb class {verb_class}) + ending "
                f"{ending_entry.surface!r} (ending class {ending_entry.class_id}), "
                f"rule {ruleset.serialize_rule(rule)}",
            ) from None
        sources.setdefault(text, []).append((verb_class, rule))
    return tuple(SurfaceForm(text, verb_entry.surface, ending_entry.surface, ending_entry.class_id,
                             tuple(provenance)) for text, provenance in sources.items())


def _planned(lexicon, verb):
    """A stem's entry, letters and plan, its slice depth checked once."""
    verb_entry = lexicon.verbs.get(verb)
    if verb_entry is None:
        raise NotFound(verb)
    verb_letters = hangul_codec.decompose(verb)
    depth, plan = lexicon._plan(verb_entry.class_ids)
    if depth > len(verb_letters):
        raise IndexOutOfBounds("verb", -depth, len(verb_letters))
    return verb_entry, verb_letters, plan


def conjugate(lexicon, verb):
    """Generate the full paradigm of one stem."""
    verb_entry, verb_letters, plan = _planned(lexicon, verb)
    return Paradigm(verb=verb, entries=tuple(
        (ending_entry, _forms(verb_entry, verb_letters, ending_entry, steps))
        for ending_entry, steps in plan
    ))


def conjugate_pair(lexicon, verb, ending):
    """Forms for one (stem, ending) pair; empty when all cells are blank."""
    verb_entry, verb_letters, plan = _planned(lexicon, verb)
    found = [(entry, steps) for entry, steps in plan if entry.surface == ending]
    if not found and all(e.surface != ending for e in lexicon.endings):
        raise NotFound(ending)
    if len(found) > 1:  # the plan runs by ending class; a pair keeps file order
        found.sort(key=lambda item: lexicon.endings.index(item[0]))
    return [form for entry, steps in found
            for form in _forms(verb_entry, verb_letters, entry, steps)]
