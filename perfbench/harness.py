"""Measurement machinery: the closed loop, spans, statistics and the time budget.

Nothing here knows about qzeta; ``workloads.py`` supplies the operations.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# Ten samples beyond the reported tail value, per the metric definition.
TAIL_BEYOND = 10

# The host's speed drifts by up to a quarter within seconds: one fixed batch
# of operations, repeated in one process, took from 2.9 s to 4.4 s.  A fixed
# stdlib kernel timed beside the operations slows down with them, so each
# operation's time is rescaled to a host on which the kernel takes REF_MS.
# Operations longer than BRACKET_S are timed against the kernel both before
# and after them.
REF_MS = 1.0
BRACKET_S = 0.02
# A run stops after this many times its seconds on the wall clock, whatever
# the measured library time, so that a slow host cannot stretch a run far
# past its seconds.
WALL_LIMIT = 1.5


def reference_kernel() -> Fraction:
    """Fixed exact-arithmetic work (stdlib only, no qzeta) of about 1 ms."""
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(k, k * k + 7)
    return total


def reference_ms() -> float:
    """Median time of three runs of the reference kernel, in ms."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


class OpTimeout(Exception):
    """An operation ran past its time budget."""


class Calls:
    """Invokes and times library calls for one operation; records spans when tracing.

    ``busy`` sums the time spent inside the calls of the current operation:
    the operation's latency is library time only, not the benchmark's own
    checks around the calls.  A span is
    ``(span_id, parent_id, instance, name, start, end, failed)``.  The
    instance span (name ``"instance"``) is the parent of every call span
    made while it is open.  Counters hold the layers' work counts.
    """

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.busy = 0.0
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self._parent = None
        self._instance = None

    def __call__(self, name, fn, *args, expected=()):
        failed = False
        start = perf_counter()
        try:
            return fn(*args)
        except expected:
            raise
        except BaseException:
            failed = True
            raise
        finally:
            end = perf_counter()
            self.busy += end - start
            if self.tracing:
                self.spans.append(
                    (len(self.spans), self._parent, self._instance, name, start, end, failed)
                )

    def begin(self, instance: int) -> None:
        self.busy = 0.0
        if self.tracing:
            self._instance = instance
            self._parent = ("instance", instance)
            self._begin = perf_counter()

    def end(self, failed: bool) -> None:
        if self.tracing:
            self.spans.append(
                (("instance", self._instance), None, self._instance, "instance",
                 self._begin, perf_counter(), failed)
            )
            self._parent = None

    def add(self, name: str, value: int) -> None:
        if self.tracing:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        if self.tracing:
            self.counters[name] = max(self.counters.get(name, 0), value)


@dataclass
class Outcome:
    index: int
    latency_s: float  # library time (wall clock)
    scaled_s: float  # library time rescaled to the reference host speed
    op_s: float  # wall clock of the whole operation, checks included
    error: str | None  # None when the operation passed every check
    kind: str | None  # "wrong-output" | "exception" | "timeout"
    info: dict


def _on_alarm(signum, frame):
    raise OpTimeout("operation exceeded its time budget")


@contextmanager
def time_budget(seconds: float):
    """Raise OpTimeout in this (single) thread once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_closed_loop(
    op, inputs, seconds: float, calls: Calls, budget_s: float, check_error, between=None
):
    """One client, one operation at a time, for ``seconds`` of library time
    at reference speed (at most WALL_LIMIT times that on the wall clock).

    An operation's latency is the time spent inside its library calls
    (``calls.busy``); its checks run outside the clock.  Counting
    reference-speed time keeps the number of operations, and so the
    percentile that has ten samples beyond it, independent of the host's
    momentary speed.  ``op(inp, calls, out)`` returns an info dict and raises
    ``check_error`` on a wrong output; each operation runs under
    ``time_budget(budget_s)`` and is scaled by the reference kernel times
    around it.  ``between()``, if given, runs after each operation, outside
    every clock.  Returns the outcomes and the elapsed wall seconds.
    """
    outcomes = []
    start = perf_counter()
    wall_limit = start + WALL_LIMIT * seconds
    measured = 0.0
    i = 0
    while i == 0 or (measured < seconds and perf_counter() < wall_limit):
        before = reference_ms()
        info, error, kind = {}, None, None
        calls.begin(i)
        t0 = perf_counter()
        try:
            with time_budget(budget_s):
                info = op(inputs[i % len(inputs)], calls, [])
        except OpTimeout as exc:
            error, kind = str(exc), "timeout"
        except check_error as exc:
            error, kind = str(exc), "wrong-output"
        except Exception as exc:  # counted as a failed operation, not fatal
            error, kind = f"{type(exc).__name__}: {exc}", "exception"
        op_s = perf_counter() - t0
        latency = calls.busy
        calls.end(error is not None)
        after = reference_ms() if op_s > BRACKET_S else before
        scale = 2 * REF_MS / (before + after)
        outcomes.append(Outcome(i, latency, latency * scale, op_s, error, kind, info))
        measured += latency * scale
        i += 1
        if between is not None:
            between()
    return outcomes, perf_counter() - start


def latency_summary(latencies_s: list[float]) -> dict:
    """Median and tail of a latency sample, in milliseconds.

    The tail is the highest percentile with at least ten samples beyond
    it: the (n-10)-th smallest value, reported as percentile 100*(n-10)/n.
    Below eleven samples the maximum is reported as percentile 100.
    """
    ordered = sorted(latencies_s)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n > TAIL_BEYOND:
        tail = ordered[n - TAIL_BEYOND - 1]
        pct = 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": pct,
        "samples": n,
    }


def self_times(spans: list[tuple]) -> dict:
    """Self time of every span: its duration minus the part its children cover."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    out = {}
    for sid, _parent, _inst, _name, start, end, _failed in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children.get(sid, ()), key=lambda s: s[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out
