"""Rule application, the conjugation plan, and paradigm generation.

apply_rule is the whole combination algorithm: slice the verb's letters from the tail,
append the rule's postfix, append the ending's letters sliced from the head, and pack the
result back into syllables. Every call takes one path (_packed): the plan of the stem's
classes over the call's endings (_plan; every ending, cached per class tuple on the
lexicon, or a pair's own ending lines) packs its distinct junctions once, a stem of
syllables alone being its identity junction's text, and a form is its junction's text plus
the step's pre-packed rest (_side). The plan is one flat list of steps, read whole by
_entries (the forms of conjugate and conjugate_pair) and by build_index. A junction that
cannot pack raises apply_rule's error on the first step that uses it, by _side's cut; no
slice reaches past its letters, as a Lexicon checks every entry against its classes' deepest
slice. The package fills its forms, paradigms and candidates in place (object.__new__, then
__dict__), without a frozen __init__'s object.__setattr__ per field; callers build them by
keyword through the generated __init__, and both give the same frozen dataclass record.
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


def _plan(lexicon, class_ids, endings=None):
    """The conjugation plan of these verb classes over `endings`, in their order; by default
    every ending, by ending class, then file order, compiled on first use and cached on the
    lexicon: (junctions, steps), without all-blank endings. A step is (slot, rest, ending,
    ending class, provenance, entry), its form texts[slot] + rest: a rule's side of the
    ending (_side) gives the head of junction `slot`, each distinct (verb stop, head) once,
    and the rest. The classes whose rules give one (slot, rest) make one step, in order of
    first use, its provenance ((verb class, rule), ...) in class order. `entry` is the
    EndingEntry on an ending's first step and None on its later steps."""
    if endings is None:
        plan = lexicon._plans.get(class_ids)
        if plan is None:
            every = sorted(lexicon.endings, key=lambda e: e.class_id)
            lexicon._plans[class_ids] = plan = _plan(lexicon, class_ids, every)
        return plan
    slots, steps = {}, []
    for entry in endings:
        merged = {}  # (slot, rest): provenance; classes that coincide make one step
        for c in class_ids:
            rule = lexicon.template.lookup(c, entry.class_id)
            if rule is not None:
                head, rest = _side(lexicon, rule, entry.surface)
                key = slots.setdefault((rule.verb_stop, head), len(slots)), rest
                merged[key] = merged.get(key, ()) + ((c, rule),)
        steps += ((*key, entry.surface, entry.class_id, provenance, entry if i == 0 else None)
                  for i, (key, provenance) in enumerate(merged.items()))
    return tuple(slots), tuple(steps)


def _side(lexicon, rule, surface):
    """(head, rest) for a rule's side of an ending, cached on the lexicon: its tail (the
    postfix plus the ending's letters from the rule's start) cut at its first consonant+
    vowel pair, the letters from there packed as text; (tail, "") when there is no such
    pair or they cannot pack. A consonant right before a vowel always starts a syllable,
    so for any letters, compose(letters + tail) is compose(letters + head) + rest, and gets
    stuck where compose(letters + head) does, on letters + head + decompose(rest)."""
    key = rule.postfix, rule.ending_start, surface
    side = lexicon._sides.get(key)
    if side is None:
        letters = hangul_codec.decompose(surface)
        tail = rule.postfix + letters[rule.ending_start:]
        cut = next((i for i in range(len(tail) - 1) if tail[i] in hangul_codec.CONSONANTS
                    and tail[i + 1] in hangul_codec.VOWEL_SET), len(tail))
        try:
            side = tail[:cut], hangul_codec.compose(tail[cut:])
        except Uncomposable:
            side = tail, ""
        lexicon._sides[key] = side
    return side


def _packed(lexicon, verb, endings=None):
    """A stem's plan over `endings` (see _plan): its steps and its junctions' texts; a stem
    of syllables alone is the text of its identity junction, (None, ()). A stuck junction
    raises apply_rule's error on the first step that uses it, named by the step's first class
    (_side); that is the first stuck step too, as steps take up slots in order."""
    verb_entry = lexicon.verbs.get(verb)
    if verb_entry is None:
        raise NotFound(verb)
    junctions, steps = _plan(lexicon, verb_entry.class_ids, endings)
    letters = hangul_codec.decompose(verb)
    whole = "\uac00" <= min(verb)  # syllables alone: compatibility jamo sort below U+AC00
    try:
        return steps, [verb if whole and stop is None and not head else
                       hangul_codec.compose(letters[:stop] + head) for stop, head in junctions]
    except Uncomposable as err:
        stuck = err  # raised outside this block, so no context is kept
    for slot, rest, ending, ending_class, ((verb_class, rule), *_), _ in steps:
        stop, head = junctions[slot]
        if letters[:stop] + head == stuck.letters:  # no junction before the stuck one has them
            raise Uncomposable(stuck.letters + hangul_codec.decompose(rest), stuck.position, (
                f"stem {verb!r} (verb class {verb_class}) + ending {ending!r} "
                f"(ending class {ending_class}), rule {ruleset.serialize_rule(rule)}")) from None


def _entries(lexicon, verb, endings=None):
    """[(EndingEntry, (SurfaceForm, ...)), ...] for a stem's plan over `endings` (see _plan),
    one form per step, filled in place; a later step scans its ending's forms and takes the
    place of one with its text, their classes merged back in the stem's order."""
    steps, texts = _packed(lexicon, verb, endings)
    entries, new = [], object.__new__
    for slot, rest, ending, ending_class, provenance, entry in steps:
        form = new(SurfaceForm)
        d = form.__dict__  # its five fields, without the class call or object.__setattr__
        d["text"] = text = texts[slot] + rest
        d["verb"] = verb
        d["ending"] = ending
        d["ending_class"] = ending_class
        d["provenance"] = provenance
        if entry is not None:  # nearly every ending: one step, one form
            entries.append((entry, (form,)))
            continue
        first, forms = entries[-1]
        for at, made in enumerate(forms):
            if made.text == text:  # distinct steps, one text: a merged form keeps its place
                order = lexicon.verbs[verb].class_ids.index
                d["provenance"] = tuple(sorted(made.provenance + provenance,
                                               key=lambda p: order(p[0])))
                entries[-1] = first, forms[:at] + (form,) + forms[at + 1:]
                break
        else:
            entries[-1] = first, forms + (form,)
    return entries


def conjugate(lexicon, verb):
    """Generate the full paradigm of one stem."""
    paradigm = object.__new__(Paradigm)  # in place: a frozen __init__ pays object.__setattr__
    d = paradigm.__dict__
    d["verb"], d["entries"] = verb, tuple(_entries(lexicon, verb))
    return paradigm


def conjugate_pair(lexicon, verb, ending):
    """Forms for one (stem, ending) pair, in file order; empty when all cells are blank.
    The plan covers only the pair's own ending lines, so only their steps are packed."""
    lines = [e for e in lexicon.endings if e.surface == ending]
    entries = _entries(lexicon, verb, lines)
    if not lines:
        raise NotFound(ending)
    return [form for _, forms in entries for form in forms]
