"""koverbs benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload paradigm-sweep --seed 1 --seconds 30 --trace 0

Run it from a source checkout; the package is imported from ./src,
never from an install. Workloads, each a closed loop with one caller:

  paradigm-sweep  conjugate(lex, stem) over a seeded synthetic lexicon,
                  one stem at a time: every stem once, checked, then a
                  timed stream of 11 copies of each shipped stem. Works
                  hangul_codec, ruleset and conjugator; the lemmatizer
                  is idle.
  lemma-lookup    build_index over the same kind of lexicon (~1e5 texts,
                  past CPU caches) as set-up, then a seeded stream of
                  lemmatize queries: hits, random misses, near misses.
  cli-cold        one fresh `python -m koverbs.cli` process per request,
                  over a seeded mix of every subcommand and format.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. Latency and
throughput of the library workloads come from the fastest serving of
each request over three worker processes (timing.py); those of
cli-cold from every call. setup_s is the median set-up time of fresh
processes; peak_rss_mb is the peak resident memory of a process
serving the workload.

--trace 1 prints the per-layer metrics instead, from a separate run of
fixed size (one pass over the request stream untraced and one traced,
whatever --seconds says) plus a fixed probe on the shipped data that
is the same for every workload (worker.probe). Spans and the metrics
are written under .perfbench/trace-WORKLOAD/.

Lines before the last one are a readable report; the last line is
JSON. Every output is checked against perfbench/reference.py; a wrong
output, an exception or an unexpected exit code is a failed operation.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import synth
import timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
# Fresh set-up processes before and after the measured loop, so that
# their median spans more than one phase of the machine's speed; the
# library workloads add the set-up of each of their WORKERS. One
# lemma-lookup set-up takes ~2.5 s, the others ~0.05 s.
SETUPS = {"paradigm-sweep": (6, 6), "lemma-lookup": (0, 1), "cli-cold": (7, 8)}
CLI_PROBE = (["conjugate", "그렇"], ["pair", "모르", "아"], ["lemmatize", "몰라"],
             ["validate"], ["classes"])
# The library loops keep the fastest serving of each request of their
# stream (see timing.py), over at least PASSES passes, and move to the
# next CPU every WINDOW_S.
WINDOW_S, PASSES = 0.25, 3
# The library loops split --seconds over WORKERS fresh processes and
# keep the fastest serving of each request over all of them. Where a
# process's objects land in memory moves lookup times by up to ~15%
# for its whole life (rebuilding the same index in one process showed
# it), and the fastest of three processes rarely draws a bad layout.
WORKERS = 3
# paradigm-sweep times 11 synthetic copies of each of the 95 shipped
# stems: 1,045 requests, few enough that each is served ~100 times in a
# 30 s run, and enough that p99 keeps 10 beyond it.
SWEEP_COPIES = 11
# cli-cold times every call, at least CLI_PASSES passes over its mix.
# A cold process takes ~0.1 s, so a 30 s run serves each request only
# ~12 times, and the fastest of so few tracks the few seconds in which
# the host was quickest: it moved by 12% between runs where the median
# and p95 of every call moved by 6-7%.
CLI_PASSES = 10
# Highest percentile with at least ten samples beyond it: the library
# loops keep over a thousand, cli-cold at least 10 x 20 = 200.
TAIL = {"paradigm-sweep": 99, "lemma-lookup": 99, "cli-cold": 95}
# What throughput_per_s counts, and what the latencies time, per workload.
NAMES = {
    "paradigm-sweep": ("forms_per_s", "paradigm"),
    "lemma-lookup": ("lookups_per_s", "lookup"),
    "cli-cold": ("calls_per_s", "cli"),
}


class Failed(Exception):
    """A worker process that did not finish; the run has no result."""


def child_env():
    """The working tree's package, the shipped data, and a fixed hash seed
    so that dict layouts, and with them timings and memory, follow --seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("KOVERBS_DATA", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, timeout=170):
    proc = subprocess.run(args, capture_output=True, env=child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise Failed(f"{args[1:3]} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return proc.stdout


def run_job(ctx, job, setup=None):
    """Run one worker job. With `setup` (workload, data dir, verbs file)
    the worker sets up first, timed as in setup_times, then serves."""
    job_path, result_path = ctx.work / "job.json", ctx.work / "result.json"
    job_path.write_text(json.dumps(job, ensure_ascii=False), encoding="utf-8")
    mode = ["serve", *map(str, setup)] if setup else ["run"]
    spawn([sys.executable, str(WORKER), *mode, str(job_path), str(result_path)])
    return json.loads(result_path.read_text(encoding="utf-8"))


def setup_times(ctx, workload, verbs, reps):
    """Seconds from start to ready of fresh processes, each on the next
    CPU: import, load and, for lemma-lookup, build_index."""
    times = []
    for rep in range(reps):
        timing.on_cpu(rep)
        times.append(float(spawn([sys.executable, str(WORKER), "setup", workload,
                                  str(ctx.data), str(verbs)])))
    timing.any_cpu()
    return times


def check_digests(first, expected, stream, servings):
    """Failed requests: every serving of a stream position whose checked
    output differs from the reference (later checks matched the first).
    servings(pos) is how many times the position was served."""
    failed, shown = 0, []
    for pos, (got, want) in enumerate(zip(first, expected)):
        if got is not None and got != want:
            failed += servings(pos)
            shown.append(f"{stream[pos]!r}: output differs from the reference")
    return failed, shown


# -- workloads ---------------------------------------------------------

def library_workload(ctx, workload):
    rng = random.Random(ctx.seed)
    stems = synth.lexicon(rng, ctx.data, ctx.stems)
    verbs = ctx.work / "verbs.tsv"
    synth.write_verbs(verbs, stems)
    ref = reference.Reference(ctx.data, stems)
    if workload == "paradigm-sweep":
        # Every stem is conjugated and checked; the timed stream is the
        # first SWEEP_COPIES of each shipped stem, shuffled.
        stream = [surface for surface, _ in stems]
        timed = min(len(stream), SWEEP_COPIES * len(synth.shipped_verbs(ctx.data)))
        head = stream[:timed]
        rng.shuffle(head)
        stream[:timed] = head
        expected = [reference.digest([s, ref.paradigm(s)]) for s in stream]
    else:
        index = ref.candidates()
        stream = synth.queries(rng, sorted(index), ctx.queries)
        timed = len(stream)
        expected = [reference.digest(index.get(q, [])) for q in stream]
    if ctx.trace:
        timed = len(stream)
    job = {"workload": workload, "data_dir": str(ctx.data), "verbs": str(verbs),
           "stream": stream, "timed": timed, "check": len(stream),
           "seconds": ctx.seconds / WORKERS, "min_requests": PASSES * timed,
           "window_s": WINDOW_S, "spans": str(ctx.trace_dir / "workload.spans")}
    if ctx.trace:
        results = [run_job(ctx, job)]
    else:
        setups = setup_times(ctx, workload, verbs, SETUPS[workload][0])
        # Every worker checks the timed stream; the first checks all of it.
        results = [run_job(ctx, dict(job, check=job["check"] if i == 0 else timed),
                           (workload, ctx.data, verbs))
                   for i in range(WORKERS)]
        setups += [result["setup_s"] for result in results]
        setups += setup_times(ctx, workload, verbs, SETUPS[workload][1])
    failed, attempted, shown = 0, 0, []
    violations = len(ref.violations())
    for result in results:
        requests = result["requests"]

        def servings(pos):
            """Checks plus timed servings of one position."""
            if pos >= timed:
                return 1
            return 2 + requests // timed + (pos < requests % timed)

        wrong, wrong_shown = check_digests(result["first"], expected, stream, servings)
        failed += wrong + len(result["failures"])
        shown += result["failures"] + wrong_shown
        attempted += requests + result["checks"] + 1
        if result["violations"] != violations:
            failed += 1
            shown.append(f"validate found {result['violations']} violations")
    outcome = {"attempted": attempted, "failed": failed, "shown": shown}
    if ctx.trace:
        return outcome, results[0]["layers"], (results[0]["traced_ns"], results[0]["untraced_ns"])
    fastest = timing.Fastest(timed)
    for result in results:
        for pos, (ns, units) in enumerate(zip(result["fastest"], result["units"])):
            if ns is not None:
                fastest.add(pos, ns, units)
    rss_mb = max(result["rss_kb"] for result in results) / 1024
    return outcome, fastest.samples(), rss_mb, statistics.median(setups)


def cli_call(ctx, argv, traced=None):
    """(exit code, stdout, wall ns) of one koverbs process."""
    if traced is None:
        args = [sys.executable, "-m", "koverbs.cli", *argv]
    else:
        args = [sys.executable, str(WORKER), "cli", *traced, *argv]
    start = time.perf_counter_ns()
    proc = subprocess.run(args, capture_output=True, env=child_env(), cwd=ROOT, timeout=60)
    return proc.returncode, proc.stdout, time.perf_counter_ns() - start


def cli_check(request, code, stdout):
    argv, want_code, payload = request
    if code != want_code:
        return f"{argv}: exit {code}, expected {want_code}"
    if payload is not None and json.loads(stdout) != payload:
        return f"{argv}: JSON payload differs from the reference"
    return None


def cli_cold(ctx):
    rng = random.Random(ctx.seed)
    ref = reference.Reference(ctx.data, synth.shipped_verbs(ctx.data))
    mix = synth.cli_mix(rng, ref, ref.candidates())
    shown, requests, busy = [], 0, 0
    if ctx.trace:
        # One pass over the mix untraced, then one traced, for the overhead.
        layers, traced = None, 0
        for i, request in enumerate(mix):
            code, out, elapsed = cli_call(ctx, request[0])
            busy += elapsed
            shown.append(cli_check(request, code, out))
            spans = ctx.trace_dir / f"cli-{i}.spans"
            code, out, elapsed = cli_call(ctx, request[0], (str(spans), str(i)))
            traced += elapsed
            shown.append(cli_check(request, code, out))
            summary = json.loads(Path(f"{spans}.json").read_text(encoding="utf-8"))["summary"]
            layers = summary if layers is None else add_layers(layers, summary)
        shown = [s for s in shown if s]
        outcome = {"attempted": 2 * len(mix), "failed": len(shown), "shown": shown}
        return outcome, layers, (traced, busy)
    verbs = ctx.data / "verbs.tsv"
    setups = setup_times(ctx, "cli-cold", verbs, SETUPS["cli-cold"][0])
    samples = []
    deadline = time.perf_counter() + ctx.seconds
    passes = 0
    while time.perf_counter() < deadline or passes < CLI_PASSES:
        timing.on_cpu(passes)
        passes += 1
        for request in mix:
            code, out, elapsed = cli_call(ctx, request[0])
            problem = cli_check(request, code, out)
            if problem:
                shown.append(problem)
            else:
                samples.append((elapsed, 1))
            requests += 1
    timing.any_cpu()
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    outcome = {"attempted": requests, "failed": len(shown), "shown": shown}
    setups += setup_times(ctx, "cli-cold", verbs, SETUPS["cli-cold"][1])
    return outcome, samples, rss_mb, statistics.median(setups)


# -- per-layer metrics ------------------------------------------------

def add_layers(a, b):
    return {name: [x + y for x, y in zip(a[name], b[name])] for name in a}


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(layers, probe, floor_ns, import_ns, overhead_pct):
    """Per-layer metrics from summed summaries: name -> (value, unit).

    A summary row is [calls, failed, inclusive ns, self ns, value, detail].
    """
    dec, comp = layers["hangul_codec.decompose"], layers["hangul_codec.compose"]
    look, apply_ = layers["ruleset.lookup"], layers["conjugator.apply_rule"]
    conj, load = layers["conjugator.conjugate"], layers["lexicon.load"]
    valid, build_idx = layers["lexicon.validate"], layers["lemmatizer.build_index"]
    lemma = layers["lemmatizer.lemmatize"]
    m = {
        "hangul_codec.decompose.calls": (dec[0], "count"),
        "hangul_codec.decompose.self_us": (dec[3] / 1e3, "us"),
        "hangul_codec.compose.calls": (comp[0], "count"),
        "hangul_codec.compose.self_us": (comp[3] / 1e3, "us"),
        "hangul_codec.compose.failed": (comp[1], "count"),
        "ruleset.lookup.calls": (look[0], "count"),
        "ruleset.lookup.self_us": (look[3] / 1e3, "us"),
        "ruleset.lookup.blank_ratio": (ratio(look[4], look[0]), "ratio"),
        "conjugator.apply_rule.calls": (apply_[0], "count"),
        "conjugator.apply_rule.self_us": (apply_[3] / 1e3, "us"),
        "conjugator.conjugate.self_us": (conj[3] / 1e3, "us"),
        "conjugator.decompose_per_apply": (ratio(dec[0], apply_[0]), "ratio"),
        "conjugator.forms_per_apply": (ratio(conj[4], apply_[0]), "ratio"),
        "lexicon.load.ms": (load[2] / 1e6, "ms"),
        "lexicon.load.stems": (load[4], "count"),
        "lexicon.validate.ms": (valid[2] / 1e6, "ms"),
        "lemmatizer.build_index.self_s": (build_idx[3] / 1e9, "s"),
        "lemmatizer.index.texts": (build_idx[4], "count"),
        "lemmatizer.index.candidates": (build_idx[5], "count"),
        "lemmatizer.lemmatize.calls": (lemma[0], "count"),
        "lemmatizer.lemmatize.self_us": (lemma[3] / 1e3, "us"),
        "lemmatizer.lemmatize.hit_ratio": (ratio(lemma[4], lemma[0]), "ratio"),
        "cli.interpreter_ms": (floor_ns / 1e6, "ms"),
        "cli.import_ms": ((import_ns - floor_ns) / 1e6, "ms"),
    }
    for sub, ns in probe["main_ns"].items():
        m[f"cli.main.{sub}_ms"] = (ns / 1e6, "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    build = probe["build"]
    m.update({
        "shipped.hangul_codec.decompose.calls": (build["hangul_codec.decompose"][0], "count"),
        "shipped.conjugator.apply_rule.calls": (build["conjugator.apply_rule"][0], "count"),
        "shipped.ruleset.lookup.calls": (build["ruleset.lookup"][0], "count"),
        "shipped.ruleset.lookup.blanks": (build["ruleset.lookup"][4], "count"),
        "shipped.lemmatizer.index.texts": (build["lemmatizer.build_index"][4], "count"),
        "shipped.lemmatizer.build_index_ms": (probe["build_index_ns"] / 1e6, "ms"),
        "shipped.conjugator.conjugate_pair_us": (probe["conjugate_pair_ns"] / 1e3, "us"),
    })
    return m


def spawn_median_ns(args, reps=5):
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        spawn(args)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def traced_run(ctx, workload):
    if workload == "cli-cold":
        outcome, layers, (traced_ns, untraced_ns) = cli_cold(ctx)
    else:
        outcome, layers, (traced_ns, untraced_ns) = library_workload(ctx, workload)
    probe = run_job(ctx, {"workload": "probe", "data_dir": str(ctx.data), "reps": 5,
                          "cli": list(CLI_PROBE), "spans": str(ctx.trace_dir / "probe.spans")})
    floor = spawn_median_ns([sys.executable, "-c", "pass"])
    imported = spawn_median_ns([sys.executable, "-c", "import koverbs.cli"])
    overhead = 100 * (traced_ns / untraced_ns - 1)
    metrics = layer_metrics(add_layers(layers, probe["layers"]), probe, floor, imported, overhead)
    (ctx.trace_dir / "layers.json").write_text(json.dumps(metrics, indent=1), encoding="utf-8")
    return outcome, metrics, []


def untraced_run(ctx, workload):
    if workload == "cli-cold":
        outcome, samples, rss_mb, setup = cli_cold(ctx)
    else:
        outcome, samples, rss_mb, setup = library_workload(ctx, workload)
    tail = TAIL[workload]
    throughput, p50_ns, tail_ns, kept = timing.summarize(samples, tail)
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_p50_us": (p50_ns / 1e3, "us"),
        "latency_tail_us": (tail_ns / 1e3, "us"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    units, request = NAMES[workload]
    notes = [
        f"{units} = throughput_per_s, {request}_p50_us = latency_p50_us, "
        f"{request}_p{tail}_us = latency_tail_us",
        f"timings over {'every call' if workload == 'cli-cold' else 'the fastest serving of each request'}"
        f": {kept} samples of {outcome['attempted']} servings",
        f"error_rate {outcome['failed'] / outcome['attempted']:.6g} "
        f"({outcome['failed']} of {outcome['attempted']}) [ratio]",
    ]
    return outcome, metrics, notes


class Context:
    def __init__(self, args):
        self.seed, self.seconds, self.trace = args.seed, args.seconds, bool(args.trace)
        self.stems, self.queries = args.stems, args.queries
        self.data = ROOT / "src" / "koverbs" / "data"
        self.work = OUT / f"work-{os.getpid()}"
        self.trace_dir = OUT / f"trace-{args.workload}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stems", type=int, default=5000, help="synthetic lexicon size")
    parser.add_argument("--queries", type=int, default=100000, help="lemma-lookup stream length")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "koverbs" / "__init__.py").is_file():
        print(f"error: no koverbs source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ctx = Context(args)
    ctx.work.mkdir(parents=True, exist_ok=True)
    if ctx.trace:
        shutil.rmtree(ctx.trace_dir, ignore_errors=True)
        ctx.trace_dir.mkdir(parents=True)
    try:
        run = traced_run if ctx.trace else untraced_run
        outcome, metrics, notes = run(ctx, args.workload)
    except (Failed, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# python {platform.python_version()} ({platform.python_implementation()}), "
          f"nproc {len(os.sched_getaffinity(0))}, machine {platform.machine()} {platform.platform()}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40} {value:>16.6g} {unit}")
    for line in notes + [f"FAILED {s}" for s in outcome["shown"][:20]]:
        print(f"# {line}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
