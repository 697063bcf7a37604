"""Smoke tests for the benchmark itself, at toy sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
import timing  # noqa: E402
import worker  # noqa: E402
from koverbs import build_index, conjugate, lemmatize, load_lexicon  # noqa: E402
from koverbs.conjugator import Paradigm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DATA = ROOT / "src" / "koverbs" / "data"
TOY = ["--seed", "7", "--seconds", "0.5", "--stems", "190", "--queries", "2000"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--trace", "0", *TOY)
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec_units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())
    report = proc.stdout.splitlines()
    units, request = run.NAMES[workload]
    for name in (units, f"{request}_p50_us", f"{request}_p{run.TAIL[workload]}_us"):
        assert any(name in line for line in report)
    assert any(line.startswith("# error_rate 0 ") for line in report)


def test_traced_run_prints_every_layer_metric_and_shipped_counts():
    out = result(bench("--workload", "paradigm-sweep", "--trace", "1", *TOY))
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == spec_units("per_layer")
    counts = {k: metrics[f"shipped.{k}"]["value"] for k in (
        "hangul_codec.decompose.calls", "conjugator.apply_rule.calls",
        "ruleset.lookup.calls", "ruleset.lookup.blanks", "lemmatizer.index.texts")}
    assert counts == {"hangul_codec.decompose.calls": 4655, "conjugator.apply_rule.calls": 2241,
                      "ruleset.lookup.calls": 4896, "ruleset.lookup.blanks": 2655,
                      "lemmatizer.index.texts": 2116}
    assert (ROOT / ".perfbench" / "trace-paradigm-sweep" / "workload.spans").stat().st_size > 0


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paradigm-sweep", "--trace", "0", *TOY, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_synthetic_lexicon_is_seeded_unique_and_class_consistent(tmp_path):
    stems = synth.lexicon(random.Random(3), DATA, 400)
    assert stems == synth.lexicon(random.Random(3), DATA, 400)
    assert len({s for s, _ in stems}) == 400
    assert reference.Reference(DATA, stems).violations() == []
    synth.write_verbs(tmp_path / "verbs.tsv", stems)
    lex = load_lexicon(DATA / "endings.tsv", tmp_path / "verbs.tsv", DATA / "template.tsv")
    assert len(lex.verbs) == 400


@pytest.fixture(scope="module")
def shipped():
    lex = load_lexicon(DATA / "endings.tsv", DATA / "verbs.tsv", DATA / "template.tsv")
    ref = reference.Reference(DATA, synth.shipped_verbs(DATA))
    return lex, ref


def test_a_corrupted_form_is_a_failure(shipped):
    lex, ref = shipped
    stream = ["모르", "굽"]
    expected = [reference.digest([s, ref.paradigm(s)]) for s in stream]
    good = [worker.paradigm_output(conjugate(lex, s))[1] for s in stream]
    assert run.check_digests(good, expected, stream, lambda pos: 3) == (0, [])

    paradigm = conjugate(lex, "굽")
    ending, forms = paradigm.entries[3]
    bad_form = dataclasses.replace(forms[0], text=forms[0].text + "다")
    entries = list(paradigm.entries)
    entries[3] = (ending, (bad_form,) + forms[1:])
    corrupted = worker.paradigm_output(Paradigm(paradigm.verb, tuple(entries)))[1]
    failed, shown = run.check_digests([good[0], corrupted], expected, stream, lambda pos: 3)
    assert failed == 3 and len(shown) == 1  # served 3 times, all wrong


def test_a_corrupted_candidate_list_is_a_failure(shipped):
    lex, ref = shipped
    index = ref.candidates()
    text = next(t for t, c in index.items() if len(c) > 1)
    expected = [reference.digest(index[text]), reference.digest([])]
    stream = [text, "없는말"]
    built = build_index(lex)
    got = [worker.lookup_output(lemmatize(built, q))[1] for q in stream]
    assert run.check_digests(got, expected, stream, lambda pos: 1) == (0, [])
    dropped = worker.lookup_output(lemmatize(built, text)[1:])[1]
    assert run.check_digests([dropped, got[1]], expected, stream, lambda pos: 1)[0] == 1


def test_a_changed_repeat_and_a_wrong_exit_code_are_failures():
    outputs = iter([(1, 10), (1, 10), (1, 11)])
    loop = worker.Loop(["a"], 1, lambda q: q, lambda _: next(outputs))
    loop.check(1)
    loop.serve(count=5)
    loop.check(1)
    assert loop.failures == []
    loop.check(1)
    assert loop.failures == ["'a': output changed on repeat"]
    assert (loop.requests, loop.checks) == (5, 3)
    assert run.cli_check((["validate"], 0, None), 1, b"") is not None
    assert run.cli_check((["classes"], 0, {"x": 1}), 0, b'{"x": 2}') is not None
    assert run.cli_check((["classes"], 0, {"x": 1}), 0, b'{"x": 1}') is None


def test_percentile_interpolates_inside_the_nanosecond_bin():
    hist = [(100, 2), (101, 2)]
    assert timing.percentile(hist, 25) == 100.5
    assert timing.percentile(hist, 50) == 101
    assert timing.percentile(hist, 100) == 102


def test_summary_keeps_the_fastest_serving_of_each_request():
    fastest = timing.Fastest(3)
    for pos, ns, units in [(0, 300, 2), (1, 100, 1), (0, 200, 2), (2, 500, 1), (1, 120, 1)]:
        fastest.add(pos, ns, units)
    assert fastest.samples() == [(200, 2), (100, 1), (500, 1)]
    throughput, p50, tail, kept = timing.summarize(fastest.samples(), 90)
    assert kept == 3
    assert 200 <= p50 <= 201 and 500 <= tail <= 501
    assert throughput == 4 / (800 / 1e9)
    assert timing.Fastest(2).samples() == []
