"""Every admitted stem shape conjugates as apply_rule does, row by row.

For each verb class, every Hangul syllable that the class's verb checks in
expectations.tsv admit is a stem's last syllable, behind each of the heads none,
가, 각 and 갉: 312,312 one-class stems on the shipped data. Each stem's paradigm
must equal apply_rule's forms on the rows of its plan, in plan order (ending
class, then file order). A stem that cannot conjugate must raise apply_rule's
error on its first stuck row: the same letters, position and source. Stuck stems
are facts of the data, not mismatches: they are counted by (class, final shape)
and listed. Exits 1 on any mismatch, the first 20 printed. Run with

    PYTHONPATH=src python tests/shapes.py
"""

import sys

from koverbs import conjugator, lexicon, load_expectations, load_lexicon
from koverbs.errors import Uncomposable
from koverbs.hangul_codec import FINALS, SYLLABLE_BASE, SYLLABLE_LAST, decompose
from koverbs.lexicon import Lexicon, VerbEntry
from koverbs.ruleset import VERB_CLASSES, serialize_rule

HEADS = ("", "가", "각", "갉")
DATA = lexicon.default_data_dir()


def admitted(expectations, verb_class):
    """Every syllable that each verb check of `verb_class` admits, in code point order."""
    checks = [(e.check, e.expected) for e in expectations
              if e.scope == "verb" and e.class_id == verb_class]
    return [s for s in map(chr, range(SYLLABLE_BASE, SYLLABLE_LAST + 1))
            if all(lexicon.run_check(check, s) == want for check, want in checks)]


def by_apply_rule(verb, verb_class, rows):
    """apply_rule's forms of a one-class stem over its rows, (ending, ending letters, rule)
    in plan order, as (ending, ending class, text, provenance); or (letters, position,
    source) of its error on the first stuck row."""
    letters, forms = decompose(verb), []
    for entry, ending_letters, rule in rows:
        try:
            text = conjugator.apply_rule(letters, ending_letters, rule)
        except Uncomposable as err:
            return err.letters, err.position, (
                f"stem {verb!r} (verb class {verb_class}) + ending {entry.surface!r} "
                f"(ending class {entry.class_id}), rule {serialize_rule(rule)}")
        forms.append((entry.surface, entry.class_id, text, ((verb_class, rule),)))
    return forms


def by_conjugate(lex, verb):
    """conjugate's forms of a stem, in the shape by_apply_rule gives, or its error's."""
    try:
        paradigm = conjugator.conjugate(lex, verb)
    except Uncomposable as err:
        return err.letters, err.position, err.source
    return [(entry.surface, entry.class_id, form.text, form.provenance)
            for entry, forms in paradigm.entries for form in forms]


def shape(verb):
    """The last syllable's final letters, or the syllable itself when it has none."""
    return FINALS[(ord(verb[-1]) - SYLLABLE_BASE) % 28] or verb[-1]


def main():
    shipped = load_lexicon(DATA / lexicon.ENDINGS_FILE, DATA / lexicon.VERBS_FILE,
                           DATA / lexicon.TEMPLATE_FILE)
    expectations = load_expectations(DATA / lexicon.EXPECTATIONS_FILE)
    in_plan_order = sorted(shipped.endings, key=lambda e: e.class_id)
    stems, mismatches, stuck = 0, 0, {}
    for verb_class in VERB_CLASSES:
        rows = [(entry, decompose(entry.surface), rule) for entry in in_plan_order
                if (rule := shipped.template.lookup(verb_class, entry.class_id)) is not None]
        verbs = [head + last for last in admitted(expectations, verb_class) for head in HEADS]
        # One class per stem: no stem is refused, so one lexicon holds them all.
        lex = Lexicon(shipped.endings, [VerbEntry(verb, (verb_class,)) for verb in verbs],
                      shipped.template)
        for verb in verbs:
            expected, got = by_apply_rule(verb, verb_class, rows), by_conjugate(lex, verb)
            if got != expected:
                mismatches += 1
                if mismatches <= 20:
                    print(f"mismatch: stem {verb!r} (verb class {verb_class}): conjugate gives "
                          f"{got!r}, apply_rule {expected!r}")
            elif type(expected) is tuple:
                stuck.setdefault((verb_class, shape(verb)), []).append(verb)
        stems += len(verbs)
    for (verb_class, final), verbs in sorted(stuck.items()):
        print(f"stuck: verb class {verb_class}, final {final}: {len(verbs)} stems "
              f"({' '.join(verbs[:3])}{' ...' if len(verbs) > 3 else ''})")
    print(f"{stems} stems, {sum(map(len, stuck.values()))} stuck, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
