"""Seeded inputs: a synthetic lexicon, a lemmatizer query stream, a CLI mix.

The synthetic lexicon is class-consistent by construction. Stems are
the shipped stems taken round-robin, each behind one random syllable.
A prefix leaves a stem's tail, its slice depth and every expectation
of its classes as they were, and it mirrors the shipped class mix.
Prefixes are drawn without replacement per shipped stem, so surfaces
are unique without filtering anything afterwards.
"""

from reference import SYLLABLE_BASE, SYLLABLE_COUNT, lemmatize_payload, read_rows


def shipped_verbs(data_dir):
    return [(s, tuple(int(c) for c in cs.split(","))) for s, cs in read_rows(data_dir / "verbs.tsv")]


def lexicon(rng, data_dir, count):
    """`count` stems as (surface, class ids), in round-robin order."""
    base = shipped_verbs(data_dir)
    prefixes = [
        rng.sample(range(SYLLABLE_COUNT), len(range(i, count, len(base))))
        for i in range(len(base))
    ]
    stems = []
    for i in range(count):
        surface, classes = base[i % len(base)]
        prefix = chr(SYLLABLE_BASE + prefixes[i % len(base)][i // len(base)])
        stems.append((prefix + surface, classes))
    return stems


def write_verbs(path, stems):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\t{','.join(map(str, cs))}\n" for s, cs in stems)


def random_word(rng, low=1, high=4):
    return "".join(chr(SYLLABLE_BASE + rng.randrange(SYLLABLE_COUNT))
                   for _ in range(rng.randint(low, high)))


def queries(rng, texts, count):
    """Lemmatizer queries: 60% generated texts, 20% random 1-4 syllable
    words, 20% generated texts with the last syllable replaced. Whether
    a query hits is decided by the reference, not by its kind."""
    out = []
    for _ in range(count):
        roll = rng.random()
        text = rng.choice(texts)
        if roll < 0.6:
            out.append(text)
        elif roll < 0.8:
            out.append(random_word(rng))
        else:
            out.append(text[:-1] + random_word(rng, 1, 1))
    return out


FORMATS = ("table", "tsv", "json")


def cli_mix(rng, ref, index):
    """A fixed mix of 20 CLI requests: (argv, expected exit code, expected
    JSON payload or None). Arguments and formats are seeded; the mix of
    subcommands is the same for every seed, so the latency distribution
    keeps its shape. lemmatize, which rebuilds the index on every call,
    is the slow group: 8 of 20 requests, so that the median falls inside
    the 12 fast requests and p95 inside the lemmatize group, each away
    from the gap between the groups."""
    verbs = list(ref.verbs)
    forms = sorted(index)
    endings = sorted({e for e, _ in ref.endings})
    plans = []
    for _ in range(3):
        verb = rng.choice(verbs)
        plans.append((["conjugate", verb], 0, ref.conjugate_payload(verb)))
    for _ in range(3):
        verb = rng.choice(verbs)
        ending = rng.choice([e for e in endings if ref.pair_payload(verb, e)["forms"]])
        plans.append((["pair", verb, ending], 0, ref.pair_payload(verb, ending)))
    for _ in range(8):
        form = rng.choice(forms)
        plans.append((["lemmatize", form], 0, lemmatize_payload(form, index[form])))
    violations = ref.violations()
    plans += [(["validate"], 1 if violations else 0, {"violations": violations})] * 2
    for flag, with_verbs, with_endings in (([], True, True), (["--verbs"], True, False),
                                           (["--endings"], False, True)):
        plans.append((["classes", *flag], 0, ref.classes_payload(with_verbs, with_endings)))
    plans.append((["conjugate", random_word(rng, 5, 5)], 1, None))
    rng.shuffle(plans)
    mix = []
    for argv, code, payload in plans:
        fmt = rng.choice(FORMATS)
        mix.append((["--format", fmt, *argv], code, payload if fmt == "json" and code == 0 else None))
    return mix

