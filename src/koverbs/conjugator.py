"""Rule application and paradigm generation.

apply_rule is the whole combination algorithm: slice the verb's
letters from the tail, append the rule's postfix, append the ending's
letters sliced from the head, and pack the result back into syllables.
conjugate runs it across every (verb class, ending class) cell the
lexicon's template populates for a stem.
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
    kept = verb_letters if stop is None else verb_letters[:stop]
    tail = ending_letters if start is None else ending_letters[start:]
    return hangul_codec.compose(kept + rule.postfix + tail)


def _forms_for(lexicon, verb_entry, verb_letters, ending_entry):
    ending_letters = hangul_codec.decompose(ending_entry.surface)
    order = []
    sources = {}
    for verb_class in verb_entry.class_ids:
        rule = lexicon.template.lookup(verb_class, ending_entry.class_id)
        if rule is None:
            continue
        try:
            text = apply_rule(verb_letters, ending_letters, rule)
        except Uncomposable as err:
            raise Uncomposable(
                err.letters, err.position,
                f"stem {verb_entry.surface!r} (verb class {verb_class}) + ending "
                f"{ending_entry.surface!r} (ending class {ending_entry.class_id}), "
                f"rule {ruleset.serialize_rule(rule)}",
            ) from None
        if text not in sources:
            order.append(text)
            sources[text] = []
        sources[text].append((verb_class, rule))
    return tuple(
        SurfaceForm(
            text=text,
            verb=verb_entry.surface,
            ending=ending_entry.surface,
            ending_class=ending_entry.class_id,
            provenance=tuple(sources[text]),
        )
        for text in order
    )


def conjugate(lexicon, verb):
    """Generate the full paradigm of one stem."""
    verb_entry = lexicon.verbs.get(verb)
    if verb_entry is None:
        raise NotFound(verb)
    verb_letters = hangul_codec.decompose(verb)
    entries = []
    for ending_class in range(1, ruleset.ENDING_CLASS_COUNT + 1):
        for ending_entry in lexicon.endings_of_class(ending_class):
            forms = _forms_for(lexicon, verb_entry, verb_letters, ending_entry)
            if forms:
                entries.append((ending_entry, forms))
    return Paradigm(verb=verb, entries=tuple(entries))


def conjugate_pair(lexicon, verb, ending):
    """Forms for one (stem, ending) pair; empty when all cells are blank."""
    verb_entry = lexicon.verbs.get(verb)
    if verb_entry is None:
        raise NotFound(verb)
    matches = [e for e in lexicon.endings if e.surface == ending]
    if not matches:
        raise NotFound(ending)
    verb_letters = hangul_codec.decompose(verb)
    forms = []
    for ending_entry in matches:
        forms.extend(_forms_for(lexicon, verb_entry, verb_letters, ending_entry))
    return forms
