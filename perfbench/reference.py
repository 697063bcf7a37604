"""Independent reference for the benchmark's correctness checks.

Nothing here imports koverbs. The jamo arithmetic, the template
reading and the brute-force merge are written out again from the
data files' documented formats, so a defect in the package cannot hide
in both the program and the check. The brute force follows
tests/oracle.py: a triple loop over ending classes, endings and the
stem's verb classes.
"""

import hashlib
import json

SYLLABLE_BASE = 0xAC00
SYLLABLE_COUNT = 11172
ONSETS = "ㄱㄲㄴㄷㄸㄹㅁㅂㅃㅅㅆㅇㅈㅉㅊㅋㅌㅍㅎ"
VOWELS = "ㅏㅐㅑㅒㅓㅔㅕㅖㅗㅘㅙㅚㅛㅜㅝㅞㅟㅠㅡㅢㅣ"
FINALS = ("", "ㄱ", "ㄲ", "ㄳ", "ㄴ", "ㄵ", "ㄶ", "ㄷ", "ㄹ", "ㄺ", "ㄻ", "ㄼ",
          "ㄽ", "ㄾ", "ㄿ", "ㅀ", "ㅁ", "ㅂ", "ㅄ", "ㅅ", "ㅆ", "ㅇ", "ㅈ", "ㅊ",
          "ㅋ", "ㅌ", "ㅍ", "ㅎ")
CLUSTERS = {"ㄳ": "ㄱㅅ", "ㄵ": "ㄴㅈ", "ㄶ": "ㄴㅎ", "ㄺ": "ㄹㄱ", "ㄻ": "ㄹㅁ",
            "ㄼ": "ㄹㅂ", "ㄽ": "ㄹㅅ", "ㄾ": "ㄹㅌ", "ㄿ": "ㄹㅍ", "ㅀ": "ㄹㅎ",
            "ㅄ": "ㅂㅅ"}
LIGHT = set("ㅏㅗㅑㅛㅘㅚㅐ")
ENDING_CLASSES = 24
VERB_CLASSES = 46


def letters(text):
    """Hangul text as a string of single-jamo letters."""
    out = []
    for ch in text:
        rel = ord(ch) - SYLLABLE_BASE
        if 0 <= rel < SYLLABLE_COUNT:
            final = FINALS[rel % 28]
            out.append(ONSETS[rel // 588] + VOWELS[rel // 28 % 21] + CLUSTERS.get(final, final))
        elif ch in CLUSTERS:
            out.append(CLUSTERS[ch])
        elif ch in ONSETS or ch in VOWELS:
            out.append(ch)
        else:
            raise ValueError(f"not Hangul: {ch!r}")
    return "".join(out)


def pack(seq):
    """Greedy left-to-right packing; None when the letters cannot pack.

    A consonant becomes a final only when no vowel follows it, and two
    consonants merge into a cluster final only when no vowel follows
    the pair.
    """
    merge = {pair: cluster for cluster, pair in CLUSTERS.items()}
    out = []
    i, n = 0, len(seq)

    def vowel(k):
        return k < n and seq[k] in VOWELS

    while i < n:
        if seq[i] not in ONSETS or not vowel(i + 1):
            return None
        code = (ONSETS.index(seq[i]) * 21 + VOWELS.index(seq[i + 1])) * 28
        i += 2
        if i < n and seq[i] in FINALS and not vowel(i + 1):
            if seq[i:i + 2] in merge and not vowel(i + 2):
                code += FINALS.index(merge[seq[i:i + 2]])
                i += 2
            else:
                code += FINALS.index(seq[i])
                i += 1
        out.append(chr(SYLLABLE_BASE + code))
    return "".join(out)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip("\n")]


class Reference:
    """The shipped endings and template plus a verbs list, read from TSV."""

    def __init__(self, data_dir, verbs):
        self.data_dir = data_dir
        self.endings = [(s, int(c)) for s, c in read_rows(data_dir / "endings.tsv")]
        self.verbs = {surface: tuple(classes) for surface, classes in verbs}
        self.cells = {}
        for row in read_rows(data_dir / "template.tsv")[1:]:
            for ending_class, cell in enumerate(row[1:], start=1):
                if cell:
                    self.cells[(int(row[0]), ending_class)] = cell

    def merge(self, verb, ending, cell):
        stop, postfix, start = cell.split(",")
        head = letters(verb)
        tail = letters(ending)
        if stop != "None":
            head = head[:len(head) + int(stop)]
        if start != "None":
            tail = tail[int(start):]
        return pack(head + postfix + tail)

    def paradigm(self, verb):
        """[(ending, ending class, [(text, [(verb class, rule)])])]."""
        rows = []
        for ending_class in range(1, ENDING_CLASSES + 1):
            for ending, cls in self.endings:
                if cls == ending_class:
                    forms = self.pair_forms(verb, ending, ending_class)
                    if forms:
                        rows.append((ending, ending_class, forms))
        return rows

    def pair_forms(self, verb, ending, ending_class):
        produced = {}
        for verb_class in self.verbs[verb]:
            cell = self.cells.get((verb_class, ending_class))
            if cell is not None:
                text = self.merge(verb, ending, cell)
                produced.setdefault(text, []).append((verb_class, cell))
        return list(produced.items())

    def candidates(self):
        """Generated text -> sorted (verb, ending, verb class, ending class)."""
        index = {}
        for verb in self.verbs:
            for ending, ending_class, forms in self.paradigm(verb):
                for text, sources in forms:
                    bucket = index.setdefault(text, set())
                    for verb_class, _ in sources:
                        bucket.add((verb, ending, verb_class, ending_class))
        return {text: sorted(bucket) for text, bucket in index.items()}

    # -- CLI payloads, in the shape `koverbs --format json` prints ------

    def conjugate_payload(self, verb):
        return {
            "verb": verb,
            "classes": list(self.verbs[verb]),
            "paradigm": [
                {"ending": ending, "ending_class": cls,
                 "forms": [form_payload(text, sources) for text, sources in forms]}
                for ending, cls, forms in self.paradigm(verb)
            ],
        }

    def pair_payload(self, verb, ending):
        forms = []
        for surface, cls in self.endings:
            if surface == ending:
                forms += [dict(form_payload(text, sources), ending_class=cls)
                          for text, sources in self.pair_forms(verb, ending, cls)]
        return {"verb": verb, "ending": ending, "forms": forms}

    def classes_payload(self, verbs=True, endings=True):
        payload = {}
        if verbs:
            payload["verb_classes"] = [
                {"id": c, "members": [v for v, cs in self.verbs.items() if c in cs]}
                for c in range(1, VERB_CLASSES + 1)
            ]
        if endings:
            payload["ending_classes"] = [
                {"id": c, "members": [e for e, cls in self.endings if cls == c]}
                for c in range(1, ENDING_CLASSES + 1)
            ]
        return payload

    def violations(self):
        """expectations.tsv checked against every entry of its class."""
        found = []
        for scope, raw_class, check, expected in read_rows(self.data_dir / "expectations.tsv"):
            cls = int(raw_class)
            if scope == "verb":
                surfaces = [v for v, cs in self.verbs.items() if cls in cs]
            else:
                surfaces = [e for e, c in self.endings if c == cls]
            for surface in surfaces:
                if holds(check, surface) != (expected == "true"):
                    found.append({"scope": scope, "surface": surface, "class": cls,
                                  "check": check, "expected": expected == "true"})
        return found


def form_payload(text, sources):
    return {"text": text,
            "sources": [{"verb_class": c, "rule": cell} for c, cell in sources]}


def lemmatize_payload(form, candidates):
    keys = ("verb", "ending", "verb_class", "ending_class")
    return {"form": form, "candidates": [dict(zip(keys, c)) for c in candidates]}


def holds(check, surface):
    seq = letters(surface)
    vowels = [l for l in seq if l in VOWELS]
    if check == "ends-with-consonant":
        return seq[-1] in ONSETS
    if check == "last-vowel-is-light":
        return bool(vowels) and vowels[-1] in LIGHT
    if check == "starts-with-vowel":
        return seq[0] == "ㅇ" and len(seq) > 1 and seq[1] in VOWELS
    tail = check[len("ends-with-"):]
    return seq[-1] == tail if tail in ONSETS or tail in VOWELS else surface.endswith(tail)


# -- digests: one canonical encoding shared by the program's side and
# the reference's side, so outputs compare exactly without being stored.

def digest(value):
    blob = json.dumps(value, ensure_ascii=False, separators=(",", ":"))
    return int.from_bytes(hashlib.blake2b(blob.encode(), digest_size=8).digest(), "big")

