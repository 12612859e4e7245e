"""The benchmark's own arithmetic: host calibration, percentiles, spans
and the seeded draw.

Nothing here imports ``repro``: the calibration kernel must not speed
up or slow down when the program under test changes, and the rest is
plain arithmetic that ``perfbench/test_measure.py`` checks.

Host calibration.  The benchmark runs on shared machines whose speed
drifts by tens of percent between runs.  A fixed pure-Python kernel
``K`` (dict and tuple hashing, a JSON round trip, sha256 and a sort; the
same kind of work the compile service does) runs between operations,
every few tens of milliseconds of measured work, on the same pinned CPU.
Each operation's wall time is reported scaled by ``K_NOMINAL_MS / K``,
where ``K`` is the median of the kernel samples adjacent to it.  A
calibrated millisecond is therefore "a millisecond on a host where the
kernel takes ``K_NOMINAL_MS``".
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field

# The calibration constant: the kernel's nominal time.  Changing it
# rescales every calibrated number, so it is fixed for the life of the
# benchmark.
K_NOMINAL_MS = 1.5
# Measured operation time between two kernel samples.
K_EVERY_MS = 25.0
# Kernel samples on each side of an operation that form its adjacent K.
K_WINDOW = 3

_K_RECORDS = [{"id": i, "name": f"item-{i:04d}",
               "vals": [i % 7, (i * 31) % 101, (i * 17) % 13],
               "tag": ["k", i % 17]} for i in range(200)]


def kernel() -> str:
    """The fixed calibration workload: ``K_NOMINAL_MS`` on the nominal
    host."""
    text = json.dumps(_K_RECORDS, sort_keys=True)
    index = {}
    for record in json.loads(text):
        index[(record["name"], tuple(record["vals"]),
               tuple(record["tag"]))] = record["id"]
    digest = hashlib.sha256(text.encode()).hexdigest()
    order = sorted(index.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return f"{digest}:{order[0][1]}"


def time_kernel() -> float:
    """One kernel sample, in milliseconds.

    The cyclic collector is off while it runs, so the sample does not
    depend on how many objects the benchmark process itself holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return (time.perf_counter() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()


def observe_json(value) -> str:
    """Canonical text of an observation, for exact comparison."""
    return json.dumps(value, sort_keys=True)


def scale(raw_ms: float, k_ms: float, nominal_ms: float = K_NOMINAL_MS
          ) -> float:
    """Calibrate one wall time: ``raw * nominal / K``."""
    return raw_ms * nominal_ms / k_ms


class Calibrator:
    """Interleaves kernel samples with measured operations.

    :meth:`record` notes an operation's raw time and runs the kernel
    once :data:`K_EVERY_MS` of measured time has accumulated; the
    calibrated times come out of :meth:`calibrated` after the window,
    when the samples on both sides of every operation are known.
    """

    def __init__(self, nominal_ms: float = K_NOMINAL_MS,
                 every_ms: float = K_EVERY_MS, window: int = K_WINDOW,
                 timer=time_kernel):
        self.nominal_ms = nominal_ms
        self.every_ms = every_ms
        self.window = window
        self.timer = timer
        self.samples: list[float] = []
        self.ops: list[tuple[float, int]] = []  # (raw ms, samples before)
        self._since = 0.0

    def tick(self) -> float:
        sample = self.timer()
        self.samples.append(sample)
        self._since = 0.0
        return sample

    def record(self, raw_ms: float) -> int:
        """Note one operation; returns its index."""
        if not self.samples:
            self.tick()
        self.ops.append((raw_ms, len(self.samples)))
        self._since += raw_ms
        if self._since >= self.every_ms:
            self.tick()
        return len(self.ops) - 1

    def adjacent_k(self, before: int) -> float:
        """Median of the ``window`` samples on each side of a gap.

        ``before`` is the number of samples taken before the operation.
        """
        low = max(0, before - self.window)
        high = min(len(self.samples), before + self.window)
        return statistics.median(self.samples[low:high])

    def finish(self) -> None:
        """Take the closing sample so the last operations have a right
        neighbour."""
        self.tick()

    def calibrated(self) -> list[float]:
        return [scale(raw, self.adjacent_k(before), self.nominal_ms)
                for raw, before in self.ops]

    def raw(self) -> list[float]:
        return [raw for raw, _ in self.ops]

    def burst(self, repeats: int = 3) -> float:
        """Take *repeats* kernel samples; returns their median."""
        samples = [self.timer() for _ in range(repeats)]
        self.samples.extend(samples)
        return statistics.median(samples)

    def timed_step(self, step, *args):
        """Run one long step (a set-up step) between kernel bursts.

        Returns ``(result, raw_s, calibrated_s)``; the step's adjacent K
        is the mean of the burst medians before and after it.
        """
        k_before = self.burst()
        started = time.perf_counter()
        result = step(*args)
        raw_s = time.perf_counter() - started
        k_ms = (k_before + self.burst()) / 2.0
        return result, raw_s, scale(raw_s, k_ms, self.nominal_ms)


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than ten samples beyond it."""


MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the *q*-th percentile."""
    return n - math.ceil(n * q / 100.0)


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The *q*-th percentile, Harrell-Davis estimate.

    A weighted mean of all order statistics, with weights from the Beta
    distribution of the *q*-th sample quantile.  Where the draw leaves
    a gap between two programs' latencies at the percentile's rank, the
    plain order statistic jumps between the gap's edges from run to
    run; this estimate averages the samples around the rank instead.

    Refuses unless at least ``min_beyond`` samples lie beyond it: a
    tail percentile from fewer samples is one or two outliers.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or samples_beyond(n, q) < min_beyond:
        raise TooFewSamples(
            f"p{q:g} needs {min_beyond} samples beyond it; "
            f"{n} samples leave {samples_beyond(n, q) if n else 0}")
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    # Weights beyond twelve standard deviations of the Beta are < 1e-30.
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    low = max(0, math.floor((p - 12 * sd) * n))
    high = min(n, math.ceil((p + 12 * sd) * n))
    total = weight = 0.0
    before = _beta_cdf(a, b, low / n)
    for i in range(low, high):
        after = _beta_cdf(a, b, (i + 1) / n)
        total += (after - before) * ordered[i]
        weight += after - before
        before = after
    return total / weight


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    layer: str
    start: float
    end: float
    request: int
    parent: int | None = None
    index: int = 0
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"layer": self.layer, "start": self.start, "end": self.end,
                "request": self.request, "parent": self.parent,
                "index": self.index}


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span: Span, children) -> float:
    """Duration minus the part of the span its children cover."""
    clipped = [(max(c.start, span.start), min(c.end, span.end))
               for c in children]
    return span.duration - covered([iv for iv in clipped if iv[0] < iv[1]])


class SpanRecorder:
    """Spans kept in memory; written out when the benchmark ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, layer: str, request: int):
        return _SpanContext(self, layer, request)

    def _push(self, layer: str, request: int) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(layer, time.perf_counter(), 0.0, request,
                    parent.index if parent is not None else None,
                    len(self.spans))
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        self._open.append(span)
        return span

    def _pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def self_times(self) -> dict[int, float]:
        return {s.index: self_time(s, s.children) for s in self.spans}


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, layer: str, request: int):
        self.recorder = recorder
        self.layer = layer
        self.request = request
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self.recorder._push(self.layer, self.request)
        return self.span

    def __exit__(self, *exc) -> bool:
        self.recorder._pop(self.span)
        return False


# ---------------------------------------------------------------------------
# the seeded draw
# ---------------------------------------------------------------------------

def draw(seed: int, size: int, passes: int) -> list[int]:
    """Whole passes over a catalogue of *size* entries, each pass in
    seeded order: every run does the same work, the seed only picks
    the order."""
    rng = random.Random(seed)
    out: list[int] = []
    for _ in range(passes):
        order = list(range(size))
        rng.shuffle(order)
        out.extend(order)
    return out
