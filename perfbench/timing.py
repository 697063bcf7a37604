"""Latency bookkeeping shared by the runner and the worker.

A run serves the same fixed request stream over and over, and each
request is timed on its own. Benchmark hosts are often shared virtual
machines: on a two-vCPU Xeon VM a fixed pure-Python loop swung by up
to 50% in phases of seconds. A request's fastest serving is the one
least disturbed by the host, since the host can slow a request but
never speed it up. The summary therefore takes, for every position of
the stream, its fastest serving (`Fastest`), and reports percentiles
and throughput over those. Every request of the stream counts exactly
once, so the figures describe the same population on every run,
whatever the host did while it ran.

A single busy thread stays on one vCPU, and the guest cannot see that
the host is slowing that vCPU, so one run can spend all its time on a
slow one. The loops therefore move themselves to the next allowed CPU
every quarter second (`on_cpu`), which only changes their own affinity.
"""

import os
from collections import Counter

CPUS = sorted(os.sched_getaffinity(0))


def on_cpu(turn):
    """Pin the calling process to the turn-th allowed CPU, round robin."""
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def any_cpu():
    os.sched_setaffinity(0, CPUS)


class Fastest:
    """The fastest serving of each stream position, with the units of
    work that serving did."""

    def __init__(self, positions):
        self.times = [None] * positions
        self.units = [0] * positions

    def add(self, pos, ns, units):
        best = self.times[pos]
        if best is None or ns < best:
            self.times[pos] = ns
        self.units[pos] = units

    def samples(self):
        """(ns, units) of every position served at least once."""
        return [(ns, units) for ns, units in zip(self.times, self.units) if ns is not None]


def percentile(hist, q):
    """q-th percentile of sorted (ns, count) pairs. Clock readings are
    whole ns, so the rank is interpolated inside its 1 ns bin."""
    rank = q / 100 * sum(count for _, count in hist)
    seen = 0
    for ns, count in hist:
        if seen + count >= rank:
            return ns + (rank - seen) / count
        seen += count
    raise ValueError("empty histogram")


def summarize(samples, tail):
    """(units per busy second, p50 ns, tail ns, samples) of (ns, units) samples."""
    hist = sorted(Counter(ns for ns, _ in samples).items())
    busy_ns = sum(ns for ns, _ in samples)
    units = sum(units for _, units in samples)
    return units / (busy_ns / 1e9), percentile(hist, 50), percentile(hist, tail), len(samples)
