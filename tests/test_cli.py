import json
import os
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from koverbs import cli

from conftest import shipped_paths

ENDINGS_PATH, VERBS_PATH, TEMPLATE_PATH = shipped_paths()
EXPECTATIONS_PATH = ENDINGS_PATH.parent / "expectations.tsv"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(cli.DATA_ENV, raising=False)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seed_dir(tmp_path, endings=None, verbs=None, template=None, expectations=None):
    """A data directory cloned from the shipped files, with overrides."""
    for name, text, shipped in [
        ("endings.tsv", endings, ENDINGS_PATH),
        ("verbs.tsv", verbs, VERBS_PATH),
        ("template.tsv", template, TEMPLATE_PATH),
        ("expectations.tsv", expectations, EXPECTATIONS_PATH),
    ]:
        if text is None:
            text = shipped.read_text(encoding="utf-8")
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


# ---------------------------------------------------------------- conjugate

def test_conjugate_table(capsys):
    code, out, err = run_cli(["conjugate", "그렇"], capsys)
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == "그렇  (verb class 8)"
    assert "그래야" in out
    assert "[ending class 3]" in out


def test_conjugate_unknown_stem(capsys):
    code, out, err = run_cli(["conjugate", "뛰"], capsys)
    assert code == 1
    assert err.strip() == "Not Found"


def test_conjugate_json_is_stable(capsys):
    _, first, _ = run_cli(["--format", "json", "conjugate", "그렇"], capsys)
    _, second, _ = run_cli(["--format", "json", "conjugate", "그렇"], capsys)
    assert first == second
    payload = json.loads(first)
    assert payload["verb"] == "그렇"
    assert payload["classes"] == [8]
    texts = [f["text"] for block in payload["paradigm"] for f in block["forms"]]
    assert "그래야" in texts


def test_format_flag_position_is_free(capsys):
    _, before, _ = run_cli(["--format", "json", "conjugate", "그렇"], capsys)
    _, after, _ = run_cli(["conjugate", "그렇", "--format", "json"], capsys)
    assert before == after


def test_conjugate_json_tsv_round_trip(capsys):
    _, json_out, _ = run_cli(["--format", "json", "conjugate", "모르"], capsys)
    _, tsv_out, _ = run_cli(["--format", "tsv", "conjugate", "모르"], capsys)
    assert cli.render("tsv", "conjugate", json.loads(json_out)) + "\n" == tsv_out


# ---------------------------------------------------------------- pair

def test_pair_found(capsys):
    code, out, err = run_cli(["--format", "tsv", "pair", "모르", "아"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "ending_class\tending\tform\tverb_class\trule",
        "15\t아\t몰라\t25\t-2,ㄹㄹㅏ,2",
    ]


def test_pair_blank_cell_is_empty(capsys):
    code, out, err = run_cli(["pair", "있", "네"], capsys)
    assert code == 1
    assert "있 + 네" in out


def test_pair_table(capsys):
    code, out, err = run_cli(["pair", "굽", "어"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "굽 + 어",
        "  굽어\t(verb class 18, rule None,,None)",
        "  구워\t(verb class 22, rule -1,ㅇㅝ,2)",
    ]


def test_pair_unknown_ending(capsys):
    code, out, err = run_cli(["pair", "있", "뷁"], capsys)
    assert code == 1
    assert err.strip() == "Not Found"


def test_pair_json_tsv_round_trip(capsys):
    _, json_out, _ = run_cli(["--format", "json", "pair", "굽", "어"], capsys)
    _, tsv_out, _ = run_cli(["--format", "tsv", "pair", "굽", "어"], capsys)
    assert cli.render("tsv", "pair", json.loads(json_out)) + "\n" == tsv_out


# ---------------------------------------------------------------- lemmatize

def test_lemmatize_found(capsys):
    code, out, err = run_cli(["--format", "json", "lemmatize", "그래야"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert {
        "verb": "그렇", "ending": "어야", "verb_class": 8, "ending_class": 3,
    } in payload["candidates"]


def test_lemmatize_tsv(capsys):
    code, out, err = run_cli(["--format", "tsv", "lemmatize", "몰라"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "verb\tending\tverb_class\tending_class",
        "모르\t아\t25\t15",
        "모르\t어\t45\t3",
    ]


def test_lemmatize_table(capsys):
    code, out, err = run_cli(["lemmatize", "몰라"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "몰라",
        "  모르 + 아\t(verb class 25, ending class 15)",
        "  모르 + 어\t(verb class 45, ending class 3)",
    ]


def test_lemmatize_unknown_form(capsys):
    code, out, err = run_cli(["lemmatize", "zzz"], capsys)
    assert code == 1
    assert err.strip() == "Not Found"


def test_lemmatize_scope(capsys):
    code, out, err = run_cli(
        ["--format", "json", "lemmatize", "물어", "--scope", "물"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [c["verb"] for c in payload["candidates"]] == ["물"]

    code, _, err = run_cli(["lemmatize", "물어", "--scope", "가"], capsys)
    assert code == 1
    assert err.strip() == "Not Found"


def test_lemmatize_unknown_scope_member(capsys):
    code, out, err = run_cli(["lemmatize", "물어", "--scope", "뛰"], capsys)
    assert code == 1
    assert err.strip() == "Not Found"


def nfd(text):
    return unicodedata.normalize("NFD", text)


# Decomposed (NFD) Hangul, as a macOS paste gives, is conjoining jamo: matching
# stays exact, so it is not found, and one more stderr line says why. stdout and
# the exit code are those of the same miss in NFC.
@pytest.mark.parametrize("argv,out", [
    (["conjugate", nfd("모르")], ""),
    (["pair", nfd("모르"), "아"], ""),
    (["pair", "모르", nfd("아")], ""),
    (["lemmatize", nfd("몰라")], nfd("몰라") + "\n"),
    (["--format", "json", "lemmatize", nfd("몰라")],
     json.dumps({"form": nfd("몰라"), "candidates": []}, ensure_ascii=False, indent=2) + "\n"),
    (["lemmatize", "몰라", "--scope", nfd("모르")], ""),
], ids=["conjugate", "pair stem", "pair ending", "lemmatize", "lemmatize json", "scope"])
def test_decomposed_input_is_not_found_and_says_why(capsys, argv, out):
    assert run_cli(argv, capsys) == (1, out, (
        "Not Found\nnote: the input holds conjoining jamo (U+1100-U+11FF), and koverbs "
        "matches only precomposed (NFC) Hangul\n"))


# ---------------------------------------------------------------- validate

def test_validate_shipped_data(capsys):
    code, out, err = run_cli(["validate"], capsys)
    assert code == 0
    assert out.strip() == "ok: no violations"


def test_validate_misfiled_verb(tmp_path, capsys):
    verbs = VERBS_PATH.read_text(encoding="utf-8").replace("먹\t18\n", "먹\t18,16\n")
    data = seed_dir(tmp_path, verbs=verbs)
    code, out, err = run_cli(
        ["--format", "json", "--data-dir", str(data), "validate"], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == [{
        "scope": "verb", "surface": "먹", "class": 16,
        "check": "ends-with-ㄹ", "expected": True,
    }]


def test_validate_misfiled_ending(tmp_path, capsys):
    endings = ENDINGS_PATH.read_text(encoding="utf-8") + "어야\t1\n"
    data = seed_dir(tmp_path, endings=endings)
    code, out, err = run_cli(
        ["--format", "json", "--data-dir", str(data), "validate"], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == [{
        "scope": "ending", "surface": "어야", "class": 1,
        "check": "starts-with-vowel", "expected": False,
    }]


def misfiled_dir(tmp_path):
    verbs = VERBS_PATH.read_text(encoding="utf-8").replace("먹\t18\n", "먹\t18,16\n")
    endings = ENDINGS_PATH.read_text(encoding="utf-8") + "어야\t1\n"
    return seed_dir(tmp_path, verbs=verbs, endings=endings)


def test_validate_violations_tsv(tmp_path, capsys):
    data = misfiled_dir(tmp_path)
    code, out, err = run_cli(["--format", "tsv", "--data-dir", str(data), "validate"], capsys)
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "scope\tclass\tsurface\tcheck\texpected",
        "verb\t16\t먹\tends-with-ㄹ\ttrue",
        "ending\t1\t어야\tstarts-with-vowel\tfalse",
    ]


def test_validate_violations_table(tmp_path, capsys):
    data = misfiled_dir(tmp_path)
    code, out, err = run_cli(["--data-dir", str(data), "validate"], capsys)
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "2 violation(s)",
        "  verb 먹 (class 16): expected ends-with-ㄹ=true",
        "  ending 어야 (class 1): expected starts-with-vowel=false",
    ]


def test_validate_malformed_template_cell(tmp_path, capsys):
    template = TEMPLATE_PATH.read_text(encoding="utf-8").replace("-2,ㅐ,2", "-2,ㅐ", 1)
    data = seed_dir(tmp_path, template=template)
    code, out, err = run_cli(["--data-dir", str(data), "validate"], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {data / 'template.tsv'}:9: bad rule '-2,ㅐ': "
                   "expected 3 comma-separated fields, got 2\n")


@pytest.mark.parametrize("name,argv", [
    ("verbs.tsv", ["--verbs", "{}", "classes"]),
    ("template.tsv", ["--template", "{}", "conjugate", "그렇"]),
    ("expectations.tsv", ["validate", "--expectations", "{}"]),
], ids=["verb class", "rule stop", "expected class"])
def test_overlong_integer_is_a_data_error(tmp_path, capsys, name, argv):
    # More digits than int() converts by default: the loader's error, not a ValueError.
    digits = "9" * 5000
    text = {
        "verbs.tsv": f"가\t{digits}\n",
        "template.tsv": TEMPLATE_PATH.read_text(encoding="utf-8").replace(
            "-2,ㅐ,2", f"-{digits},ㅐ,2", 1),
        "expectations.tsv": f"verb\t{digits}\tends-with-ㅎ\ttrue\n",
    }[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli([arg.format(path) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_class_id_out_of_range_names_its_file_and_line(tmp_path, capsys):
    verbs = tmp_path / "verbs.tsv"
    verbs.write_text("가\t99\n", encoding="utf-8")
    code, out, err = run_cli(["--verbs", str(verbs), "conjugate", "가"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {verbs}:1: class id 99 out of range 1..46\n"


def test_validate_empty_surface(tmp_path, capsys):
    endings = ENDINGS_PATH.read_text(encoding="utf-8") + "\t1\n"
    data = seed_dir(tmp_path, endings=endings)
    code, out, err = run_cli(["--data-dir", str(data), "validate"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {data / 'endings.tsv'}:{len(endings.splitlines())}: empty surface\n"


def test_missing_data_dir(tmp_path, capsys):
    code, out, err = run_cli(
        ["--data-dir", str(tmp_path / "nowhere"), "conjugate", "가"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_verbs_file_not_utf8(tmp_path, capsys):
    verbs = tmp_path / "verbs.tsv"
    verbs.write_bytes("가\t29\n".encode("utf-8") + "나\t29\n".encode("euc-kr"))
    code, out, err = run_cli(["--verbs", str(verbs), "conjugate", "가"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {verbs}:2: not UTF-8: byte 0xb3 at offset 7 (invalid start byte)\n"


def test_template_file_not_utf8(tmp_path, capsys):
    template = tmp_path / "template.tsv"
    template.write_bytes(b"\xff\xfe" + TEMPLATE_PATH.read_bytes())
    code, out, err = run_cli(["--template", str(template), "conjugate", "가"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {template}:1: not UTF-8: byte 0xff at offset 0")


# ---------------------------------------------------------------- data paths

def test_env_var_selects_data_dir(tmp_path, monkeypatch, capsys):
    verbs = VERBS_PATH.read_text(encoding="utf-8").replace("가\t29\n", "")
    data = seed_dir(tmp_path, verbs=verbs)
    monkeypatch.setenv(cli.DATA_ENV, str(data))
    code, out, err = run_cli(["conjugate", "가"], capsys)
    assert code == 1
    assert err.strip() == "Not Found"


def test_data_dir_flag_beats_env_var(tmp_path, monkeypatch, capsys):
    verbs = VERBS_PATH.read_text(encoding="utf-8").replace("가\t29\n", "")
    data = seed_dir(tmp_path, verbs=verbs)
    monkeypatch.setenv(cli.DATA_ENV, str(data))
    code, out, err = run_cli(
        ["--data-dir", str(ENDINGS_PATH.parent), "conjugate", "가"], capsys)
    assert code == 0


def test_single_file_flag_overrides(tmp_path, capsys):
    verbs = VERBS_PATH.read_text(encoding="utf-8").replace("가\t29\n", "")
    override = tmp_path / "verbs.tsv"
    override.write_text(verbs, encoding="utf-8")
    code, out, err = run_cli(["--verbs", str(override), "conjugate", "가"], capsys)
    assert code == 1


# ---------------------------------------------------------------- classes

def test_classes_listing(capsys):
    code, out, err = run_cli(["classes"], capsys)
    assert code == 0
    assert "verb classes" in out
    assert "ending classes" in out

    code, out, err = run_cli(["classes", "--verbs"], capsys)
    assert "verb classes" in out
    assert "ending classes" not in out

    code, out, err = run_cli(["--format", "tsv", "classes", "--endings"], capsys)
    lines = out.splitlines()
    assert lines[0] == "kind\tclass\tmembers"
    assert lines[1] == "ending\t1\t고,지만,기,지요"
    assert len(lines) == 25


def test_classes_table(capsys):
    code, out, err = run_cli(["classes", "--endings"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == [
        "ending classes",
        "   1  고 지만 기 지요",
        "   2  네 냐",
        "   3  어야 어 었다 어도",
    ]
    assert lines[-1] == "  24  ㄴ대요"
    assert len(lines) == 25


def test_classes_table_marks_empty_classes(tmp_path, capsys):
    data = seed_dir(tmp_path, verbs="있\t1\n")
    code, out, err = run_cli(["--data-dir", str(data), "classes", "--verbs"], capsys)
    assert code == 0
    assert out.splitlines() == ["verb classes", "   1  있"] + [
        f"  {c:>2}  -" for c in range(2, 47)
    ]


def test_classes_selectors_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classes", "--verbs", "--endings"])
    assert exc.value.code == 2


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["conjugate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- views

@pytest.mark.parametrize("fmt", ["tsv", "table"])
@pytest.mark.parametrize("argv", [
    ["conjugate", "굽"],
    ["pair", "이르", "어"],
    ["lemmatize", "몰라"],
    ["lemmatize", "zzz"],
    ["validate"],
    ["classes"],
    ["classes", "--verbs"],
], ids=" ".join)
def test_views_render_from_the_json_payload(tmp_path, capsys, argv, fmt):
    # The misfiled data dir gives validate two violations to show.
    data = ["--data-dir", str(misfiled_dir(tmp_path))]
    _, json_out, _ = run_cli([*data, "--format", "json", *argv], capsys)
    _, direct, _ = run_cli([*data, "--format", fmt, *argv], capsys)
    assert cli.render(fmt, argv[0], json.loads(json_out)) + "\n" == direct


# ---------------------------------------------------------------- fuzz

# Arbitrary Unicode in every free-text argument, in every format. The
# only allowed outcomes are exit codes 0, 1 and 2, never a traceback.
# The function-scoped fixtures (env cleanup, output capture) hold no
# state that one example could leave for the next.
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fmt=st.sampled_from(["table", "json", "tsv"]),
       command=st.sampled_from(["conjugate", "pair", "lemmatize"]),
       first=st.text(), second=st.text(), scope=st.lists(st.text(), max_size=2))
def test_cli_fuzz_exits_cleanly(capsys, fmt, command, first, second, scope):
    argv = ["--format", fmt, command, first]
    if command == "pair":
        argv.append(second)
    if command == "lemmatize":
        for stem in scope:
            argv += ["--scope", stem]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2)


# Copies of the shipped data files, one of them with a line dropped,
# duplicated or swapped, a byte flipped, or a character or a tab inserted.
# Every subcommand must exit 0, 1 or 2 without a traceback; exit 2 says
# `error:` on stderr, and exit 1 says `Not Found` unless it is an empty pair
# or a validate that lists violations.
SHIPPED_DATA = {path.name: path.read_bytes()
                for path in (ENDINGS_PATH, VERBS_PATH, TEMPLATE_PATH, EXPECTATIONS_PATH)}


@st.composite
def mutated_data_file(draw):
    name = draw(st.sampled_from(sorted(SHIPPED_DATA)))
    data = SHIPPED_DATA[name]
    lines = data.splitlines(keepends=True)
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "flip", "insert", "tab"]))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return name, data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    else:
        text = data.decode("utf-8")
        at = draw(st.integers(0, len(text)))
        char = "\t" if kind == "tab" else draw(st.characters(codec="utf-8"))
        return name, (text[:at] + char + text[at:]).encode("utf-8")
    return name, b"".join(lines)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated=mutated_data_file())
def test_mutated_data_files_fail_cleanly(tmp_path, capsys, mutated):
    for name, data in {**SHIPPED_DATA, mutated[0]: mutated[1]}.items():
        (tmp_path / name).write_bytes(data)
    for argv in (["conjugate", "그렇"], ["pair", "그렇", "어야"],
                 ["lemmatize", "그래야", "--scope", "그렇"], ["validate"], ["classes"]):
        code, out, err = run_cli(["--data-dir", str(tmp_path), *argv], capsys)
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ")
        elif err:
            assert (code, err) == (1, "Not Found\n")
        elif code == 1:  # a quiet exit 1: an empty pair, or a validate listing violations
            assert argv[0] == "pair" or "violation(s)" in out


# ---------------------------------------------------------------- subprocess

def child_env(**extra):
    """The environment for a `python -m koverbs.cli` child that imports the
    package under test, whether it is installed or found through pythonpath."""
    found = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, found)), **extra)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "koverbs.cli", "--format", "tsv", "pair", "그렇", "어야"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "3\t어야\t그래야\t8\t-2,ㅐ,2"


@pytest.mark.parametrize("argv", [["--format", "json", "classes"], ["conjugate", "그렇"]])
def test_a_reader_that_closes_stdout_ends_the_run_quietly(argv):
    # The read end closes before the child starts, so its first write fails
    # with a broken pipe: no data error, no message, the command's own code.
    proc = subprocess.Popen([sys.executable, "-m", "koverbs.cli", *argv], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    with proc:
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")


def test_argument_not_utf8_under_a_strict_stdout():
    # "\udcff" reaches the child as the byte 0xff, which Python decodes
    # to a lone surrogate; PYTHONIOENCODING=utf-8 makes stdout strict.
    env = child_env(PYTHONIOENCODING="utf-8")
    for fmt in ("table", "json", "tsv"):
        proc = subprocess.run(
            [sys.executable, "-m", "koverbs.cli", "--format", fmt, "lemmatize", "\udcff"],
            capture_output=True, env=env,
        )
        assert proc.returncode in (0, 1, 2)
        assert b"Traceback" not in proc.stderr
    proc = subprocess.run([sys.executable, "-m", "koverbs.cli", "lemmatize", "몰라"],
                          capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.decode("utf-8").splitlines()[0] == "몰라"
