"""Reverse lookup from a conjugated form to its (stem, ending) sources.

The index is built eagerly from the forms of every stem in scope, as
the conjugator makes them from each stem's plan.
Lookup is exact text matching; there is no fuzzy matching and no
normalization.
"""

from dataclasses import dataclass

from . import conjugator
from .errors import NotFound


@dataclass(frozen=True, order=True, init=False)
class LemmaCandidate:
    verb: str
    ending: str
    verb_class: int
    ending_class: int

    def __init__(self, verb, ending, verb_class, ending_class):
        d = self.__dict__  # a frozen __init__ pays object.__setattr__ per field
        d["verb"] = verb
        d["ending"] = ending
        d["verb_class"] = verb_class
        d["ending_class"] = ending_class


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
    scope = tuple(lexicon.verbs if verbs is None else verbs)
    for verb in scope:
        if verb not in lexicon.verbs:
            raise NotFound(verb)
    index = {}
    for verb in scope:
        for text, entry, verb_class in conjugator._forms(lexicon, verb):
            found = LemmaCandidate(verb, entry.surface, verb_class, entry.class_id)
            known = index.get(text)  # nearly every text: its one candidate stored as found
            index[text] = (found,) if known is None else tuple(sorted({*known, found}))
    return FormIndex(index, scope)


def lemmatize(index, form):
    """All candidates whose regeneration yields `form`; [] when unknown."""
    return list(index.candidates(form))
