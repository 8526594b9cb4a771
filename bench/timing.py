"""The closed loop and the statistics that make its timings steady.

Other tenants of a shared host slow a run down in bursts that last seconds
to minutes, by up to a factor of two.  Two things keep the gated metrics
steady anyway:

- Between repetitions, outside the timed region, the loop times a fixed
  reference computation that does not touch the program, after every
  REFERENCE_EVERY_S of timed work.  Each repetition's time is divided by
  the mean of the two reference samples around it, so it is measured in
  reference units at the host speed of that moment.
- Every piece of work is repeated on fresh objects, and counts at the
  FAST_QUANTILE of its repeated times in reference units.

Over 80 s of heavy interference, with a reference sample after every
repetition, 20 s windows of `verify` read within 1% of each other this way
and `generate` within 3%, against 4% and 16% with one reference quantile
for the whole run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

FAST_QUANTILE = 0.1
REFERENCE_EVERY_S = 0.05  # timed work between two reference samples, at most one repetition more


def reference_sample() -> float:
    """Seconds for a fixed mix of dict, string and small-array work, about
    6 ms on an uncontended 2-core host."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += len(str(k))
    arr = np.arange(512)
    for i in range(50):
        acc += int((arr * i % 7).sum())
    return time.perf_counter() - t0


class StepClock:
    """Times set-ups in steps, each in reference units at the speed around
    it: a set-up calls step() between its phases, and a reference sample is
    taken there, outside the timed steps."""

    def __init__(self):
        self.reference = [reference_sample()]
        self.totals: list[float] = []  # per set-up, reference units
        self.wall: list[float] = []  # per set-up, seconds

    def start(self) -> None:
        self.totals.append(0.0)
        self.wall.append(0.0)
        self.t0 = time.perf_counter()

    def step(self) -> None:
        dt = time.perf_counter() - self.t0
        self.reference.append(reference_sample())
        self.totals[-1] += dt / ((self.reference[-2] + self.reference[-1]) / 2)
        self.wall[-1] += dt
        self.t0 = time.perf_counter()


def fast(values) -> float:
    ordered = sorted(values)
    return ordered[int(FAST_QUANTILE * (len(ordered) - 1))]


@dataclass
class Measurement:
    reps: list
    timed_s: float
    problems: list
    reference_s: list
    bracket: list  # reps[i] ran between reference_s[bracket[i]] and the next sample

    def ops(self) -> list[float]:
        return [t for rep in self.reps for t in rep.op_s]

    def failures(self) -> list[str]:
        return [f for rep in self.reps for f in rep.failures]

    def fast_by_key(self) -> tuple[dict, dict, dict]:
        """In reference units, per repetition key: fast time; per key: work
        units; per (key, op index): fast op time."""
        rep_times, units, op_times = {}, {}, {}
        for rep, b in zip(self.reps, self.bracket):
            ref = (self.reference_s[b] + self.reference_s[b + 1]) / 2
            rep_times.setdefault(rep.key, []).append(rep.timed_s / ref)
            units[rep.key] = rep.units
            for j, t in enumerate(rep.op_s):
                op_times.setdefault((rep.key, j), []).append(t / ref)
        return (
            {k: fast(v) for k, v in rep_times.items()},
            units,
            {k: fast(v) for k, v in op_times.items()},
        )

    def min_repeats(self) -> int:
        counts = {}
        for rep in self.reps:
            counts[rep.key] = counts.get(rep.key, 0) + 1
        return min(counts.values())


def measure(workload, seconds: float, reset, tracer=None) -> Measurement:
    """Closed loop: one repetition at a time until `seconds` of timed work
    are done.  Output checks, reference samples and `reset` run between
    repetitions, outside the timed region."""
    reps, bracket, problems, timed, since_reference, k = [], [], [], 0.0, 0.0, 0
    reset()
    reference = [reference_sample()]
    while timed < seconds:
        if tracer is not None:
            tracer.rep = k
            tracer.install()
        try:
            rep = workload.repetition(k)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.count_caches()
        reps.append(rep)
        bracket.append(len(reference) - 1)
        timed += rep.timed_s
        since_reference += rep.timed_s
        if since_reference >= REFERENCE_EVERY_S:
            reference.append(reference_sample())
            since_reference = 0.0
        problems.extend(rep.check())
        # keep no outputs alive: peak memory must not grow with the number
        # of repetitions a run fits in
        rep.check = None
        reset()
        k += 1
    if since_reference:
        reference.append(reference_sample())
    return Measurement(reps, timed, problems, reference, bracket)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    still has at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10
