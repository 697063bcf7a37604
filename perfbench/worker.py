"""One measured process: set up the package, then serve requests.

    worker.py setup WORKLOAD DATA_DIR VERBS_TSV
    worker.py serve WORKLOAD DATA_DIR VERBS_TSV JOB_JSON RESULT_JSON
    worker.py run JOB_JSON RESULT_JSON
    worker.py cli SPANS_OUT REQUEST_ID ARGV...

Set-up is timed from the first line, before the package is imported,
so it covers import, lexicon load and, for lemma-lookup, the index
build. `setup` only prints that time. `serve` sets up the same way,
then measures a paradigm or lookup loop and writes its figures, set-up
time included, as JSON; the runner checks the outputs against the
reference. `run` is the traced loop, with the tracer installed before
set-up, or the shipped-data probe. `cli` is one traced `koverbs` call,
the traced counterpart of `python -m koverbs.cli`.
"""

import sys
import time

T0 = time.perf_counter()


def set_up(workload, data_dir, verbs_path):
    if workload == "cli-cold":
        from koverbs import cli  # noqa: F401  (the import is what cli-cold pays)
    from koverbs import lemmatizer, lexicon
    lex = lexicon.load(f"{data_dir}/endings.tsv", verbs_path, f"{data_dir}/template.tsv")
    index = lemmatizer.build_index(lex) if workload == "lemma-lookup" else None
    return lex, index


if __name__ == "__main__" and sys.argv[1] in ("setup", "serve"):
    LOADED = set_up(*sys.argv[2:5])
    READY_S = time.perf_counter() - T0
    if sys.argv[1] == "setup":
        print(READY_S)
        sys.exit(0)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from koverbs.ruleset import serialize_rule  # noqa: E402
from reference import digest  # noqa: E402
from timing import Fastest, on_cpu  # noqa: E402


def paradigm_output(paradigm):
    forms = 0
    rows = []
    for entry, surface_forms in paradigm.entries:
        forms += len(surface_forms)
        rows.append((entry.surface, entry.class_id, [
            (f.text, [(c, serialize_rule(rule)) for c, rule in f.provenance])
            for f in surface_forms
        ]))
    return forms, digest([paradigm.verb, rows])


def lookup_output(candidates):
    return 1, digest([(c.verb, c.ending, c.verb_class, c.ending_class) for c in candidates])


class Loop:
    """Closed loop over a request stream, one request at a time.

    The first `timed` positions of the stream are served over and over,
    each request timed alone, and the fastest serving of each is kept
    (see timing.py). Outputs are checked outside the timed loop:
    `check` serves positions untimed and reduces each output to a
    digest. The first check of a position keeps its digest for the
    reference check and its units of work; every later check of it must
    give the same digest. The timed loop only times, so that it makes
    as many passes as it can.
    """

    def __init__(self, stream, timed, call, output):
        self.stream, self.timed, self.call, self.output = stream, timed, call, output
        self.fastest = Fastest(timed)
        self.units = [0] * len(stream)
        self.first = [None] * len(stream)
        self.requests = 0
        self.checks = 0
        self.failures = []

    def check(self, count):
        """Serve the first `count` positions once, untimed, checking outputs."""
        for pos in range(count):
            self.checks += 1
            try:
                units, key = self.output(self.call(self.stream[pos]))
            except Exception as err:  # one failed request; the loop goes on
                self.failures.append(f"{self.stream[pos]!r}: {type(err).__name__}: {err}")
                continue
            if self.first[pos] is None:
                self.first[pos], self.units[pos] = key, units
            elif self.first[pos] != key:
                self.failures.append(f"{self.stream[pos]!r}: output changed on repeat")

    def serve(self, count=None, seconds=0, min_requests=0, window_s=1, tracer=None):
        """Serve `count` timed requests, or serve for `seconds` and at
        least `min_requests`, moving to the next CPU every `window_s`.
        Returns the time spent inside the calls, in ns."""
        clock = time.perf_counter_ns
        stream, call, units, add = self.stream, self.call, self.units, self.fastest.add
        turn = 0
        now = clock()
        deadline, window_end = now + int(seconds * 1e9), now + int(window_s * 1e9)
        done = busy_ns = 0
        while count is None or done < count:
            pos = self.requests % self.timed
            if tracer is not None:
                tracer.request = self.requests
            start = clock()
            try:
                call(stream[pos])
            except Exception as err:  # one failed request; the loop goes on
                now = clock()
                self.failures.append(f"{stream[pos]!r}: {type(err).__name__}: {err}")
            else:
                now = clock()
                busy_ns += now - start
                add(pos, now - start, units[pos])
            self.requests += 1
            done += 1
            if count is None:
                if now >= window_end:
                    turn += 1
                    on_cpu(turn)
                    window_end = clock() + int(window_s * 1e9)
                if now >= deadline and done >= min_requests:
                    break
        return busy_ns

    def report(self):
        return {"fastest": self.fastest.times, "units": self.units[:self.timed],
                "requests": self.requests, "checks": self.checks,
                "failures": self.failures, "first": self.first}


def measure(job, loaded=None):
    """The untraced loop over `loaded` (lexicon, index), or, with nothing
    loaded, the traced loop, traced from set-up on."""
    import tracing
    from koverbs import conjugator, lemmatizer, lexicon

    data_dir = job["data_dir"]
    tracer = None
    if loaded is None:
        tracer = tracing.Tracer()
        tracer.install()
        loaded = set_up(job["workload"], data_dir, job["verbs"])
    lex, index = loaded
    expectations = lexicon.load_expectations(f"{data_dir}/expectations.tsv")
    violations = len(lexicon.validate(lex, expectations))
    if job["workload"] == "lemma-lookup":
        call, output = (lambda q: lemmatizer.lemmatize(index, q)), lookup_output
    else:
        call, output = (lambda stem: conjugator.conjugate(lex, stem)), paradigm_output
    loop = Loop(job["stream"], job["timed"], call, output)
    out = {"violations": violations}
    if tracer is None:
        loop.check(job["check"])
        loop.serve(seconds=job["seconds"], min_requests=job["min_requests"],
                   window_s=job["window_s"])
        loop.check(job["timed"])
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        tracer.uninstall()
        loop.check(len(job["stream"]))
        out["untraced_ns"] = loop.serve(count=job["timed"])
        tracer.install()
        out["traced_ns"] = loop.serve(count=job["timed"], tracer=tracer)
        tracer.uninstall()
        loop.check(job["timed"])
        out["layers"] = tracer.summary()
        tracer.write(job["spans"], out["layers"])
    out.update(loop.report())
    return out


def probe(job):
    """Fixed work on the shipped data, the same for every workload.

    Traced: load, one build_index (request 0), then a lookup of every indexed
    text and of each with its last syllable dropped, and validate
    (request 1). Untraced: cli.main once per subcommand to warm up and
    then `reps` times more, and the ROADMAP cross-check figures.
    """
    import tracing
    from koverbs import cli, conjugator, lemmatizer, lexicon
    data_dir = job["data_dir"]
    paths = [f"{data_dir}/{name}.tsv" for name in ("endings", "verbs", "template")]

    tracer = tracing.Tracer()
    tracer.install()
    lex = lexicon.load(*paths)
    tracer.request = 0
    index = lemmatizer.build_index(lex)
    tracer.request = 1
    for text, _ in index.items():
        lemmatizer.lemmatize(index, text)
        lemmatizer.lemmatize(index, text[:-1])
    lexicon.validate(lex, lexicon.load_expectations(f"{data_dir}/expectations.tsv"))
    tracer.uninstall()
    out = {"layers": tracer.summary(), "build": tracer.summary(requests={0})}
    tracer.write(job["spans"], out["layers"])

    def quiet_main(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)

    out["main_ns"] = {argv[0]: median_ns(lambda: quiet_main(argv), job["reps"], warm=1)
                      for argv in job["cli"]}
    out["build_index_ns"] = median_ns(lambda: lemmatizer.build_index(lex), 7)
    out["conjugate_pair_ns"] = median_ns(lambda: conjugator.conjugate_pair(lex, "모르", "아"), 2001)
    return out


def median_ns(fn, reps, warm=0):
    clock = time.perf_counter_ns
    times = []
    for rep in range(warm + reps):
        start = clock()
        fn()
        if rep >= warm:
            times.append(clock() - start)
    return sorted(times)[reps // 2]


def traced_cli(spans_out, request, argv):
    import tracing
    from koverbs import cli
    tracer = tracing.Tracer()
    tracer.install()
    tracer.request = int(request)
    code = cli.main(argv)
    tracer.uninstall()
    tracer.write(spans_out, tracer.summary())
    return code


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    job_path, result_path = sys.argv[-2:]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if sys.argv[1] == "serve":
        result = measure(job, LOADED)
        result["setup_s"] = READY_S
    else:
        result = probe(job) if job["workload"] == "probe" else measure(job)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, ensure_ascii=False)
