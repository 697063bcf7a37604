"""Rule application, the conjugation plan, and paradigm generation.

apply_rule is the whole combination algorithm: slice the verb's
letters from the tail, append the rule's postfix, append the ending's
letters sliced from the head, and pack the result back into syllables.
The plan of a class tuple, compiled here once and cached on the
lexicon, lets conjugate, conjugate_pair and build_index pack each
distinct junction (the stem's kept letters plus the unpacked head of a
rule's ending side) once per stem; a form is its junction's text plus
the step's pre-packed rest. Every error is apply_rule's on one of the
call's own steps, and names that step: the first one that slices past
a short stem deepest, else the first one whose form cannot pack.
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


def _apply_step(verb, entry, verb_class, rule):
    """apply_rule on one step of a plan, its error re-raised naming the step: the stem
    and verb class, the ending and ending class, and the rule. With verb None, as a plan
    compiles before any stem, only the rule's ending side is applied."""
    stem = f"stem {verb!r} (verb class {verb_class})"
    ending = f"ending {entry.surface!r} (ending class {entry.class_id})"
    rule_text = f", rule {ruleset.serialize_rule(rule)}"
    if verb is None:
        verb_letters, rule_part = (), ruleset.Rule(None, rule.postfix, rule.ending_start)
    else:
        verb_letters, rule_part = hangul_codec.decompose(verb), rule
    try:
        return apply_rule(verb_letters, hangul_codec.decompose(entry.surface), rule_part)
    except IndexOutOfBounds as err:
        source = stem if err.which == "verb" else f"verb class {verb_class} + {ending}"
        raise IndexOutOfBounds(err.which, err.index, err.length, source + rule_text) from None
    except Uncomposable as err:
        raise Uncomposable(err.letters, err.position, f"{stem} + {ending}{rule_text}") from None


def _plan(lexicon, class_ids):
    """The conjugation plan shared by all stems of these verb classes, compiled on
    first use and cached on the lexicon: (deepest verb slice, junctions, ((EndingEntry,
    steps), ...)) by ending class, then file order, without all-blank endings. A step
    (verb class, rule, slot, rest) makes compose(stem letters[:verb stop] + head) +
    rest, which is compose(stem letters[:verb stop] + tail) for its tail of postfix +
    ending letters from the rule's start (see _pack_rest). Its slot indexes junctions,
    which hold each distinct (verb stop, head) once, in order of first use."""
    plan = lexicon._plans.get(class_ids)
    if plan is not None:
        return plan
    depth, slots, junctions, entries = 0, {}, [], []
    for ending_class, endings in lexicon._by_class.items():
        cells = [(c, lexicon.template.lookup(c, ending_class)) for c in class_ids if endings]
        rules = [(c, rule) for c, rule in cells if rule is not None]
        if not rules:
            continue
        depth = max([depth] + [-rule.verb_stop for _, rule in rules if rule.verb_stop])
        start = max([0] + [rule.ending_start for _, rule in rules if rule.ending_start])
        for entry in endings:
            letters = hangul_codec.decompose(entry.surface)
            if start > len(letters):  # fails for every stem: fail now, on the first such rule
                _apply_step(None, entry, *next(r for r in rules if r[1].ending_start == start))
            steps = []
            for c, rule in rules:
                head, rest = _pack_rest(rule.postfix + letters[rule.ending_start:])
                slot = slots.setdefault((rule.verb_stop, head), len(junctions))
                if slot == len(junctions):
                    junctions.append((rule.verb_stop, head))
                steps.append((c, rule, slot, rest))
            entries.append((entry, tuple(steps)))
    lexicon._plans[class_ids] = plan = depth, tuple(junctions), tuple(entries)
    return plan


def _pack_rest(tail):
    """(head, rest): `tail` cut at its first consonant+vowel pair, the letters from
    there packed as text; (tail, "") when there is no such pair or they cannot pack.
    A consonant right before a vowel always starts a syllable, so for any letters,
    compose(letters + tail) is compose(letters + head) + rest, and gets stuck
    where compose(letters + head) does."""
    cut = next((i for i in range(len(tail) - 1) if hangul_codec.is_consonant(tail[i])
                and hangul_codec.is_vowel(tail[i + 1])), len(tail))
    try:
        return tail[:cut], hangul_codec.compose(tail[cut:])
    except Uncomposable:
        return tail, ""


def _stem(lexicon, verb):
    """The plan for a stem's classes, and the stem's letters."""
    verb_entry = lexicon.verbs.get(verb)
    if verb_entry is None:
        raise NotFound(verb)
    return _plan(lexicon, verb_entry.class_ids), hangul_codec.decompose(verb)


def _pack(verb, letters, depth, junctions, entries):
    """Each junction's text, compose(letters[:stop] + head), in order. A stem shorter
    than `depth` fails on the first step of `entries` that slices that deep; when a
    junction gets stuck, the first step of `entries` that fails raises: apply_rule's."""
    if depth > len(letters):
        _apply_step(verb, *next((entry, c, rule) for entry, steps in entries
                                for c, rule, *_ in steps if rule.verb_stop == -depth))
    try:
        return [hangul_codec.compose(letters[:stop] + head) for stop, head in junctions]
    except Uncomposable:
        for entry, steps in entries:
            for verb_class, rule, *_ in steps:
                _apply_step(verb, entry, verb_class, rule)
        raise  # not reached: a step gets stuck wherever its junction does


def _forms(lexicon, verb):
    """(text, EndingEntry, verb class) for each step of a stem's plan, in order."""
    (depth, junctions, plan), letters = _stem(lexicon, verb)
    texts = _pack(verb, letters, depth, junctions, plan)
    return [(texts[slot] + rest, entry, verb_class)
            for entry, steps in plan for verb_class, _, slot, rest in steps]


def _merged(verb, entry, steps, texts):
    """One plan entry's forms, each text that several classes make merged into one."""
    sources = {}
    for verb_class, rule, slot, rest in steps:
        text = texts[slot] + rest
        sources[text] = sources.get(text, ()) + ((verb_class, rule),)
    return tuple(SurfaceForm(text, verb, entry.surface, entry.class_id, provenance)
                 for text, provenance in sources.items())


def conjugate(lexicon, verb):
    """Generate the full paradigm of one stem."""
    (depth, junctions, plan), letters = _stem(lexicon, verb)
    texts = _pack(verb, letters, depth, junctions, plan)
    entries = []
    for entry, steps in plan:
        if len(steps) == 1:  # nearly every entry: one form, nothing to merge
            (verb_class, rule, slot, rest), = steps
            entries.append((entry, (SurfaceForm(texts[slot] + rest, verb, entry.surface,
                                                entry.class_id, ((verb_class, rule),)),)))
        else:
            entries.append((entry, _merged(verb, entry, steps, texts)))
    return Paradigm(verb=verb, entries=tuple(entries))


def conjugate_pair(lexicon, verb, ending):
    """Forms for one (stem, ending) pair; empty when all cells are blank. Only the
    pair's own steps are packed and checked, in file order."""
    (_, junctions, plan), letters = _stem(lexicon, verb)
    found = [(entry, steps) for entry, steps in plan if entry.surface == ending]
    if not found and all(e.surface != ending for e in lexicon.endings):
        raise NotFound(ending)
    if len(found) > 1:  # the plan runs by ending class; a pair keeps file order
        found.sort(key=lambda item: lexicon.endings.index(item[0]))
    own = {slot: junctions[slot] for _, steps in found for _, _, slot, _ in steps}
    depth = max([0] + [-stop for stop, _ in own.values() if stop])
    texts = dict(zip(own, _pack(verb, letters, depth, own.values(), found)))
    return [form for entry, steps in found for form in _merged(verb, entry, steps, texts)]
