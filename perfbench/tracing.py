"""Outside-in spans around the package's public functions.

Each layer function is replaced, through the module attribute the
package itself calls it by, with a wrapper that records one span:
span id, layer, start and end (ns), parent span, request id, whether
it raised, and one number taken from the result (see LAYERS). Spans
stay in one flat array until the run ends. Nothing in src/ changes.
"""

import functools
import json
import time
from array import array

from koverbs import cli, conjugator, hangul_codec, lemmatizer, lexicon, ruleset

FIELDS = ("span", "layer", "start_ns", "end_ns", "parent", "request", "failed",
          "value", "detail")

# (layer name, owner, attribute, result -> recorded value and detail)
LAYERS = (
    ("hangul_codec.decompose", hangul_codec, "decompose", None),
    ("hangul_codec.compose", hangul_codec, "compose", None),
    ("ruleset.lookup", ruleset.Template, "lookup", lambda rule: (rule is None, 0)),
    ("conjugator.apply_rule", conjugator, "apply_rule", None),
    ("conjugator.conjugate", conjugator, "conjugate",
     lambda paradigm: (sum(len(forms) for _, forms in paradigm.entries), 0)),
    ("lexicon.load", lexicon, "load", lambda lex: (len(lex.verbs), 0)),
    ("lexicon.validate", lexicon, "validate", lambda violations: (len(violations), 0)),
    ("lemmatizer.build_index", lemmatizer, "build_index",
     lambda index: (len(index), sum(len(c) for _, c in index.items()))),
    ("lemmatizer.lemmatize", lemmatizer, "lemmatize", lambda found: (bool(found), 0)),
    ("cli.main", cli, "main", None),
)
NAMES = tuple(name for name, *_ in LAYERS)


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.stack = [-1]
        self.next_span = 0
        self.request = -1
        self._saved = []

    def install(self):
        for layer, (_, owner, attr, value) in enumerate(LAYERS):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, layer, fn, value):
        tracer, spans, stack, clock = self, self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.next_span
            tracer.next_span = span + 1
            parent = stack[-1]
            stack.append(span)
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                end = clock()
                stack.pop()
                recorded, detail = value(result) if value is not None and not failed else (0, 0)
                spans.extend((span, layer, start, end, parent, tracer.request, failed,
                              recorded, detail))

        return traced

    def write(self, path, summary):
        """Spans as native int64 rows, FIELDS wide, and a JSON header
        that names the fields and layers and holds the summary."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "layers": NAMES, "summary": summary}, fh)

    def summary(self, requests=None):
        """Per layer: calls, failed, inclusive ns, self ns, summed value and detail.

        Self time is a span's duration minus its direct children's.
        Children end before their parent, so one pass in end order
        has every child counted by the time its parent is read.
        `requests`, when given, keeps only spans of those request ids.
        """
        stats = {name: [0] * 6 for name in NAMES}
        child_ns = array("q", bytes(8 * self.next_span))
        spans = self.spans
        width = len(FIELDS)
        for k in range(0, len(spans), width):
            span, layer, start, end, parent, request, failed, value, detail = spans[k:k + width]
            duration = end - start
            if parent >= 0:
                child_ns[parent] += duration
            if requests is not None and request not in requests:
                continue
            row = stats[NAMES[layer]]
            row[0] += 1
            row[1] += failed
            row[2] += duration
            row[3] += duration - child_ns[span]
            row[4] += value
            row[5] += detail
        return stats
