"""Reverse lookup from a conjugated form to its (stem, ending) sources.

The index is built eagerly by conjugating every stem in scope and
recording each generated text. Lookup is exact text matching; there is
no fuzzy matching and no normalization.
"""

from dataclasses import dataclass

from . import conjugator
from .errors import NotFound, ParseError
from .lexicon import _rows


@dataclass(frozen=True, order=True)
class LemmaCandidate:
    verb: str
    ending: str
    verb_class: int
    ending_class: int


class FormIndex:
    """Immutable mapping from generated text to its sorted candidates."""

    __slots__ = ("_index", "scope")

    def __init__(self, index, scope):
        self._index = dict(index)
        self.scope = tuple(scope)

    def candidates(self, form):
        return self._index.get(form, ())

    def items(self):
        return self._index.items()

    def __len__(self):
        return len(self._index)

    def __contains__(self, form):
        return form in self._index


def build_index(lexicon, verbs=None):
    """Index every form generated over the given stems (default: all)."""
    if verbs is None:
        scope = tuple(lexicon.verbs)
    else:
        scope = tuple(verbs)
        for verb in scope:
            if verb not in lexicon.verbs:
                raise NotFound(verb)
    collected = {}
    for verb in scope:
        paradigm = conjugator.conjugate(lexicon, verb)
        for ending_entry, forms in paradigm.entries:
            for form in forms:
                bucket = collected.setdefault(form.text, set())
                for verb_class, _rule in form.provenance:
                    bucket.add(
                        LemmaCandidate(
                            verb=verb,
                            ending=ending_entry.surface,
                            verb_class=verb_class,
                            ending_class=ending_entry.class_id,
                        )
                    )
    index = {text: tuple(sorted(bucket)) for text, bucket in collected.items()}
    return FormIndex(index, scope)


def lemmatize(index, form):
    """All candidates whose regeneration yields `form`; [] when unknown."""
    return list(index.candidates(form))


def save_index(index, path):
    """Persist an index as sorted TSV, one candidate per line."""
    rows = []
    for text, candidates in index.items():
        for cand in candidates:
            rows.append((text, cand.verb, cand.ending, cand.verb_class, cand.ending_class))
    rows.sort()
    with open(path, "w", encoding="utf-8") as fh:
        for text, verb, ending, verb_class, ending_class in rows:
            fh.write(f"{text}\t{verb}\t{ending}\t{verb_class}\t{ending_class}\n")


def load_index(path):
    """Rebuild a FormIndex from a file written by save_index."""
    collected = {}
    for line_no, (text, verb, ending, verb_class, ending_class) in _rows(path, 5):
        try:
            classes = int(verb_class), int(ending_class)
        except ValueError:
            raise ParseError(path, line_no, f"class ids {verb_class!r}, {ending_class!r} "
                                            "are not both integers") from None
        collected.setdefault(text, set()).add(LemmaCandidate(verb, ending, *classes))
    index = {text: tuple(sorted(bucket)) for text, bucket in collected.items()}
    scope = sorted({cand.verb for bucket in index.values() for cand in bucket})
    return FormIndex(index, scope)
