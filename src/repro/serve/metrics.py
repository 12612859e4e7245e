"""Server-side telemetry: counters, latency histograms, phase timings.

Everything here is plain Python aggregation — the introspection
endpoint (``{"op": "stats"}``) serializes :meth:`Metrics.snapshot`
straight to the wire.  Histograms use power-of-two millisecond buckets
(1ms, 2ms, 4ms, ... 65s, +inf): coarse enough to be cheap, fine enough
to see a cold compile (hundreds of ms) versus a warm cache hit
(sub-millisecond) at a glance.  A server updates its metrics only from
its event loop's thread, so nothing here locks.
"""

from __future__ import annotations

_BUCKET_MS = [2 ** i for i in range(17)]  # 1ms .. 65536ms


class Histogram:
    """Log-bucketed latency histogram over seconds-valued observations."""

    def __init__(self) -> None:
        self.counts = [0] * (len(_BUCKET_MS) + 1)
        self.total = 0
        self.sum_seconds = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        for index, bound in enumerate(_BUCKET_MS):
            if ms <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum_seconds += seconds

    def snapshot(self) -> dict:
        buckets = {f"le_{bound}ms": count
                   for bound, count in zip(_BUCKET_MS, self.counts)
                   if count}
        if self.counts[-1]:
            buckets["le_inf"] = self.counts[-1]
        return {
            "count": self.total,
            "mean_ms": (0.0 if not self.total
                        else round(self.sum_seconds / self.total * 1000, 3)),
            "buckets": buckets,
        }


class Metrics:
    """All serve-side counters of one server."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.latency: dict[str, Histogram] = {}
        # Wall-clock seconds per pipeline phase kind, summed over every
        # compile this server executed (from PipelineStats.timings).
        self.phase_seconds: dict[str, float] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        hist = self.latency.get(name)
        if hist is None:
            hist = self.latency[name] = Histogram()
        hist.observe(seconds)

    def record_compile(self, stats) -> None:
        """Fold one compile's ``stats`` artifact into the totals: phase
        timings, plus the ``pipeline_rollbacks`` and
        ``pipeline_quarantines`` counters, so a compile that recovered
        from a failed pass is visible although its reply is ``ok``.
        PGO artifacts nest one record per optimize round."""
        if not isinstance(stats, dict):
            return  # opt "none" runs no pipeline
        records = ([stats] if "timings" in stats else
                   [sub for sub in stats.values() if isinstance(sub, dict)])
        for record in records:
            for phase, seconds in record.get("timings", {}).items():
                self.phase_seconds[phase] = (
                    self.phase_seconds.get(phase, 0.0) + seconds)
            self.bump("pipeline_rollbacks", record.get("rollbacks", 0))
            self.bump("pipeline_quarantines",
                      len(record.get("quarantined", ())))

    def snapshot(self) -> dict:
        return {
            "counters": dict(self.counters),
            "latency": {name: hist.snapshot()
                        for name, hist in self.latency.items()},
            "pipeline_phase_seconds": {
                phase: round(seconds, 6)
                for phase, seconds in sorted(self.phase_seconds.items())},
        }
