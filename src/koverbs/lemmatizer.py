"""Reverse lookup from a conjugated form to its (stem, ending) sources.

The index is built eagerly in one pass over each stem's texts and its class tuple's plan
steps (conjugator._packed), one candidate per class of a step, into the returned index's
own dict, the cyclic collector paused: the index holds no cycles, and other threads' cyclic
garbage waits for the next collection. A lone candidate is stored bare. Lookup is exact
text matching, with no fuzzy matching or normalization.
"""

import gc
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
    """Immutable mapping from generated text to its sorted candidates, read as a tuple."""

    __slots__ = ("_index", "scope")

    def __init__(self, index, scope):
        self._index = dict(index)
        self.scope = tuple(scope)

    def candidates(self, form):
        found = self._index.get(form, ())
        return found if type(found) is tuple else (found,)

    def items(self):
        for text, found in self._index.items():
            yield text, found if type(found) is tuple else (found,)

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
    index, built = {}, FormIndex.__new__(FormIndex)  # filled in place: FormIndex() copies
    built._index, built.scope = index, scope
    enabled = gc.isenabled()
    gc.disable()  # the index holds no reference cycles: collecting while it grows finds nothing
    try:
        for verb in scope:
            steps, texts = conjugator._packed(lexicon, verb)
            for slot, rest, ending, ending_class, provenance, _ in steps:
                text = texts[slot] + rest
                for verb_class, _ in provenance:
                    found = LemmaCandidate(verb, ending, verb_class, ending_class)
                    known = index.setdefault(text, found)
                    if known is not found:  # a text made twice: its candidates merged, sorted
                        index[text] = tuple(sorted(
                            {*known, found} if type(known) is tuple else {known, found}))
    finally:
        if enabled:
            gc.enable()
    return built


def lemmatize(index, form):
    """All candidates whose regeneration yields `form`; [] when unknown."""
    found = index._index.get(form, ())
    return list(found) if type(found) is tuple else [found]
