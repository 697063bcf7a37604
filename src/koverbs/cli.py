"""Command-line front end.

Shared options pick the output format and the data files; they are
accepted before or after the subcommand:

    koverbs [--format F] [--data-dir D | --endings/--verbs/--template P]
            {conjugate,pair,lemmatize,validate,classes} ...

(`classes` is the one exception: its own --verbs/--endings select which
listing to print, so its file overrides go before the subcommand.)

Exit codes: 0 success, 1 empty result or not found, 2 data or usage
errors. The KOVERBS_DATA environment variable names a directory that
replaces the installed sample data; explicit path flags win over it.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import conjugator, lemmatizer, lexicon, ruleset
from .errors import KoverbsError, NotFound

DATA_ENV = "KOVERBS_DATA"

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_DATA = 2


def _add_common_options(parser, suppress=False, paths=True):
    """Attach the shared options. They live on the top-level parser and
    again on each subparser (with SUPPRESS defaults, so a subparser never
    overwrites a value that was given before the subcommand)."""
    absent = argparse.SUPPRESS if suppress else None
    parser.add_argument("--format", choices=("table", "json", "tsv"),
                        default=argparse.SUPPRESS if suppress else "table",
                        help="output format (default: table)")
    parser.add_argument("--data-dir", metavar="DIR", default=absent,
                        help=f"directory with the data TSVs (default: ${DATA_ENV} "
                             "or the installed sample data)")
    for name in ("endings", "verbs", "template") if paths else ():
        parser.add_argument(f"--{name}", metavar="PATH", default=absent,
                            help=f"{name} file override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="koverbs",
        description="Conjugate Korean verb stems, probe stem/ending pairs, "
                    "lemmatize surface forms, and validate lexicon data.",
    )
    _add_common_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, *positionals in (
        ("conjugate", cmd_conjugate, "print every surface form of a stem", "stem"),
        ("pair", cmd_pair, "combine one stem with one ending", "stem", "ending"),
        ("lemmatize", cmd_lemmatize, "find the stems behind a conjugated form", "form"),
        ("validate", cmd_validate, "check lexicon entries against class expectations"),
        ("classes", cmd_classes, "list class members"),
    ):
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)
    sub.choices["lemmatize"].add_argument(
        "--scope", action="append", metavar="STEM",
        help="index only these stems (repeatable; default: all)")
    sub.choices["validate"].add_argument(
        "--expectations", metavar="PATH", help="expectations file override")
    # --verbs/--endings mean "select that listing" here, so the file
    # override flags for classes go before the subcommand.
    group = sub.choices["classes"].add_mutually_exclusive_group()
    group.add_argument("--verbs", dest="verbs_only", action="store_true",
                       help="verb classes only")
    group.add_argument("--endings", dest="endings_only", action="store_true",
                       help="ending classes only")

    # After each subcommand's own arguments, so --help lists them first.
    for name, p in sub.choices.items():
        _add_common_options(p, suppress=True, paths=name != "classes")
    return parser


def _data_file(args, override, name):
    """Path of the data file `name`: its own path flag (`override`), else
    --data-dir, else $KOVERBS_DATA, else the installed sample data."""
    if override:
        return Path(override)
    base = args.data_dir or os.environ.get(DATA_ENV)
    return (Path(base) if base else lexicon.default_data_dir()) / name


# -- commands: each builds its JSON payload and picks its exit code ---

def _form(form):
    sources = [{"verb_class": verb_class, "rule": ruleset.serialize_rule(rule)}
               for verb_class, rule in form.provenance]
    return {"text": form.text, "sources": sources}


def cmd_conjugate(args, lex):
    paradigm = conjugator.conjugate(lex, args.stem)
    blocks = [{"ending": entry.surface, "ending_class": entry.class_id,
               "forms": [_form(form) for form in forms]}
              for entry, forms in paradigm.entries]
    classes = list(lex.verbs[args.stem].class_ids)
    return {"verb": paradigm.verb, "classes": classes, "paradigm": blocks}, EXIT_OK


def cmd_pair(args, lex):
    forms = [dict(_form(form), ending_class=form.ending_class)
             for form in conjugator.conjugate_pair(lex, args.stem, args.ending)]
    payload = {"verb": args.stem, "ending": args.ending, "forms": forms}
    return payload, EXIT_OK if forms else EXIT_EMPTY


def cmd_lemmatize(args, lex):
    index = lemmatizer.build_index(lex, args.scope)
    candidates = [{"verb": c.verb, "ending": c.ending, "verb_class": c.verb_class,
                   "ending_class": c.ending_class}
                  for c in lemmatizer.lemmatize(index, args.form)]
    payload = {"form": args.form, "candidates": candidates}
    return payload, EXIT_OK if candidates else EXIT_EMPTY


def cmd_validate(args, lex):
    path = _data_file(args, args.expectations, lexicon.EXPECTATIONS_FILE)
    violations = [{"scope": v.scope, "surface": v.surface, "class": v.class_id,
                   "check": v.check, "expected": v.expected}
                  for v in lexicon.validate(lex, lexicon.load_expectations(path))]
    return {"violations": violations}, EXIT_EMPTY if violations else EXIT_OK


def cmd_classes(args, lex):
    payload = {}
    if not args.endings_only:
        members = {c: [] for c in ruleset.VERB_CLASSES}
        for entry in lex.verbs.values():
            for class_id in entry.class_ids:
                members[class_id].append(entry.surface)
        payload["verb_classes"] = [{"id": c, "members": m} for c, m in members.items()]
    if not args.verbs_only:
        payload["ending_classes"] = [
            {"id": c, "members": [e.surface for e in lex.endings_of_class(c)]}
            for c in ruleset.ENDING_CLASSES
        ]
    return payload, EXIT_OK


# -- views: from a payload, its TSV columns and rows and its table lines

_SOURCE_COLUMNS = ("ending_class", "ending", "form", "verb_class", "rule")


def _sources(ending_class, ending, form):
    return [(ending_class, ending, form["text"], source["verb_class"], source["rule"])
            for source in form["sources"]]


def _conjugate_view(p):
    rows = []
    lines = [f"{p['verb']}  (verb class {','.join(map(str, p['classes']))})"]
    current = None
    for block in p["paradigm"]:
        if block["ending_class"] != current:
            current = block["ending_class"]
            lines.append(f"[ending class {current}]")
        for form in block["forms"]:
            rows += _sources(block["ending_class"], block["ending"], form)
            lines.append(f"  {block['ending']}\t{form['text']}")
    return _SOURCE_COLUMNS, rows, lines


def _pair_view(p):
    rows = [row for form in p["forms"]
            for row in _sources(form["ending_class"], p["ending"], form)]
    lines = [f"{p['verb']} + {p['ending']}"]
    lines += [f"  {text}\t(verb class {verb_class}, rule {rule})"
              for _, _, text, verb_class, rule in rows]
    return _SOURCE_COLUMNS, rows, lines


def _lemmatize_view(p):
    rows = [(c["verb"], c["ending"], c["verb_class"], c["ending_class"])
            for c in p["candidates"]]
    lines = [p["form"]]
    lines += [f"  {verb} + {ending}\t(verb class {verb_class}, ending class {ending_class})"
              for verb, ending, verb_class, ending_class in rows]
    return ("verb", "ending", "verb_class", "ending_class"), rows, lines


def _validate_view(p):
    rows = [(v["scope"], v["class"], v["surface"], v["check"],
             "true" if v["expected"] else "false") for v in p["violations"]]
    lines = [f"{len(rows)} violation(s)" if rows else "ok: no violations"]
    lines += [f"  {scope} {surface} (class {class_id}): expected {check}={expected}"
              for scope, class_id, surface, check, expected in rows]
    return ("scope", "class", "surface", "check", "expected"), rows, lines


def _classes_view(p):
    rows, lines = [], []
    for kind in ("verb", "ending"):
        if f"{kind}_classes" in p:
            lines.append(f"{kind} classes")
        for block in p.get(f"{kind}_classes", ()):
            rows.append((kind, block["id"], ",".join(block["members"])))
            lines.append(f"  {block['id']:>2}  {' '.join(block['members']) or '-'}")
    return ("kind", "class", "members"), rows, lines


_VIEWS = dict(conjugate=_conjugate_view, pair=_pair_view, lemmatize=_lemmatize_view,
              validate=_validate_view, classes=_classes_view)


def render(fmt, command, payload):
    """The output text of one command: its payload as JSON, or a view of
    the payload, as TSV (a column header, then rows) or as table lines."""
    if fmt == "json":
        return json.dumps(payload, ensure_ascii=False, indent=2)
    columns, rows, lines = _VIEWS[command](payload)
    if fmt == "tsv":
        lines = ["\t".join(map(str, row)) for row in [columns, *rows]]
    return "\n".join(lines)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        lex = lexicon.load(_data_file(args, args.endings, lexicon.ENDINGS_FILE),
                           _data_file(args, args.verbs, lexicon.VERBS_FILE),
                           _data_file(args, args.template, lexicon.TEMPLATE_FILE))
        payload, code = args.func(args, lex)
        print(render(args.format, args.command, payload), flush=True)
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return code
    except NotFound:
        payload, code = None, EXIT_EMPTY
    except (KoverbsError, OSError, UnicodeEncodeError) as err:
        # UnicodeEncodeError: a non-UTF-8 argument echoed to a strict stdout.
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    if payload is None or code == EXIT_EMPTY and args.command == "lemmatize":
        # A form no stem produces is a failed lookup, like an unknown stem.
        print("Not Found", file=sys.stderr)
        given = [vars(args).get(name) or "" for name in ("stem", "ending", "form")]
        if any("\u1100" <= ch <= "\u11ff" for text in given + (vars(args).get("scope") or [])
               for ch in text):  # decomposed (NFD) text, as a macOS paste gives
            print("note: the input holds conjoining jamo (U+1100-U+11FF), and koverbs matches "
                  "only precomposed (NFC) Hangul", file=sys.stderr)
    return code


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
