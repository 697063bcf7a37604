"""Output parity on the shipped data: one sha256 per unit, against parity_digests.tsv.

A unit is one shipped stem's paradigm (its repr), one shipped stem's pairs with
every shipped ending surface (each pair's forms or error), the shipped
build_index items, or one `koverbs` run (stdout, stderr and exit code). A
refactor that keeps every output passes unchanged; a change of output names the
units that moved. When a change of output is meant, rewrite the file with

    PYTHONPATH=src python tests/test_parity.py
"""

import contextlib
import hashlib
import io
from pathlib import Path

from koverbs import cli, conjugator, lemmatizer, lexicon
from koverbs.errors import KoverbsError

DIGESTS = Path(__file__).resolve().parent / "parity_digests.tsv"
DATA_DIR = lexicon.default_data_dir()
COMMANDS = [["conjugate", "그렇"], ["pair", "그렇", "어야"], ["lemmatize", "몰라"], ["validate"],
            ["classes"]]


def _outcome(call):
    try:
        return repr(call())
    except KoverbsError as err:
        return f"{type(err).__name__}: {err}"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--data-dir", str(DATA_DIR), *argv])
    return f"{out.getvalue()}\0{err.getvalue()}\0{code}"


def units():
    """{unit name: output text} for every unit, in a fixed order."""
    lex = lexicon.load(*(DATA_DIR / name for name in
                         (lexicon.ENDINGS_FILE, lexicon.VERBS_FILE, lexicon.TEMPLATE_FILE)))
    surfaces = list(dict.fromkeys(e.surface for e in lex.endings))
    found = {}
    for verb in lex.verbs:
        found[f"paradigm {verb}"] = _outcome(lambda: conjugator.conjugate(lex, verb))
        found[f"pairs {verb}"] = "\n".join(
            _outcome(lambda: conjugator.conjugate_pair(lex, verb, surface)) for surface in surfaces)
    found["build_index"] = repr(list(lemmatizer.build_index(lex).items()))
    for fmt in ("table", "json", "tsv"):
        for argv in COMMANDS:
            found[" ".join(["koverbs --format", fmt, *argv])] = _run(["--format", fmt, *argv])
    found["koverbs conjugate 뛰"] = _run(["conjugate", "뛰"])
    return found


def digests():
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in units().items()}


def test_outputs_match_the_committed_digests():
    committed = dict(line.split("\t") for line in DIGESTS.read_text(encoding="utf-8").splitlines())
    found = digests()
    moved = [name for name in committed.keys() | found.keys() if committed.get(name) != found.get(name)]
    assert not moved, f"{len(moved)} units moved: {sorted(moved)}"


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{name}\t{digest}\n" for name, digest in digests().items()),
                       encoding="utf-8")
