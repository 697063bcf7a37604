"""Rule application and paradigm generation.

apply_rule is the whole combination algorithm: slice the verb's
letters from the tail, append the rule's postfix, append the ending's
letters sliced from the head, and pack the result back into syllables.
conjugate and conjugate_pair do the same arithmetic from the lexicon's
plan for the stem's classes: each distinct junction (the stem's kept
letters plus the unpacked head of a rule's ending side) is packed once
per stem, and a form is its junction's text plus the step's pre-packed
rest.
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


def _planned(lexicon, verb):
    """A stem's letters and plan, checked against the plan's slice depth."""
    verb_entry = lexicon.verbs.get(verb)
    if verb_entry is None:
        raise NotFound(verb)
    depth, junctions, plan = lexicon._plan(verb_entry.class_ids)
    letters = hangul_codec.decompose(verb)
    if depth > len(letters):
        _, _, verb_class, rule, *_ = next(j for j in junctions if j[0] == -depth)
        raise IndexOutOfBounds("verb", -depth, len(letters), f"stem {verb!r} (verb class "
                               f"{verb_class}), rule {ruleset.serialize_rule(rule)}")
    return letters, junctions, plan


def _pack(verb, letters, junctions):
    """Each junction's text, compose(letters[:stop] + head), in order; a junction
    that gets stuck fails as apply_rule does on its step's whole letters."""
    texts = []
    for stop, head, verb_class, rule, ending_entry, rest in junctions:
        try:
            texts.append(hangul_codec.compose(letters[:stop] + head))
        except Uncomposable as err:
            raise Uncomposable(
                err.letters + hangul_codec.decompose(rest), err.position,
                f"stem {verb!r} (verb class {verb_class}) + ending {ending_entry.surface!r} "
                f"(ending class {ending_entry.class_id}), rule {ruleset.serialize_rule(rule)}",
            ) from None
    return texts


def _merged(verb, entry, steps, texts):
    """One plan entry's forms, each text that several classes make merged into one."""
    sources = {}
    for verb_class, rule, slot, _, rest in steps:
        text = texts[slot] + rest
        sources[text] = sources.get(text, ()) + ((verb_class, rule),)
    return tuple(SurfaceForm(text, verb, entry.surface, entry.class_id, provenance)
                 for text, provenance in sources.items())


def conjugate(lexicon, verb):
    """Generate the full paradigm of one stem."""
    letters, junctions, plan = _planned(lexicon, verb)
    texts = _pack(verb, letters, junctions)
    entries = []
    for entry, steps in plan:
        if len(steps) == 1:  # nearly every entry: one form, nothing to merge
            (verb_class, rule, slot, _, rest), = steps
            entries.append((entry, (SurfaceForm(texts[slot] + rest, verb, entry.surface,
                                                entry.class_id, ((verb_class, rule),)),)))
        else:
            entries.append((entry, _merged(verb, entry, steps, texts)))
    return Paradigm(verb=verb, entries=tuple(entries))


def conjugate_pair(lexicon, verb, ending):
    """Forms for one (stem, ending) pair; empty when all cells are blank."""
    letters, junctions, plan = _planned(lexicon, verb)
    found = [(entry, steps) for entry, steps in plan if entry.surface == ending]
    if not found and all(e.surface != ending for e in lexicon.endings):
        raise NotFound(ending)
    if len(found) > 1:  # the plan runs by ending class; a pair keeps file order
        found.sort(key=lambda item: lexicon.endings.index(item[0]))
    own = {}  # the junctions this pair uses, each with its first step here
    for entry, steps in found:
        for verb_class, rule, slot, head, rest in steps:
            own.setdefault(slot, (junctions[slot][0], head, verb_class, rule, entry, rest))
    texts = dict(zip(own, _pack(verb, letters, own.values())))
    return [form for entry, steps in found for form in _merged(verb, entry, steps, texts)]
