"""S1 — compile-service latency: cold pipeline vs. warm artifact cache.

Boots a real ``python -m repro.serve`` daemon on a fresh cache
directory, then measures per-program request latency twice: the first
request pays the full pipeline in a forked worker (*cold*), repeats are
served from the content-addressed cache (*warm*).  Reported per
program: cold ms, warm ms (best of 3), speedup.  The summary row
asserts the acceptance criterion: warm-path geomean speedup >= 5x.

The point of the experiment is operational, not algorithmic — the same
artifacts (byte-identical, checked in tests/test_serve.py and the CI
smoke) at interactive latency once the cache is hot.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.programs.suite import ALL_PROGRAMS
from repro.serve.smoke import boot

PROGRAMS = ALL_PROGRAMS
WARM_TRIES = 3

_rows: dict[str, dict] = {}
_initialized = False


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    with boot(tmp_path_factory.mktemp("bench-serve")) as service:
        with service.client(timeout=180.0) as client:
            yield client


def _timed_request(client, source):
    started = time.perf_counter()
    reply = client.compile(source, opt="static")
    elapsed = time.perf_counter() - started
    assert reply["ok"], reply
    return elapsed, reply


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_s1_server_latency(program, daemon, report):
    table = report("S1_server")
    global _initialized
    if not _initialized:
        table.columns("program", "cold_ms", "warm_ms", "speedup",
                      "warm_tier")
        table.note(
            "cold = first request (full pipeline in a forked worker); "
            "warm = best of 3 repeats (content-addressed cache). "
            "Acceptance: warm geomean speedup >= 5x cold.")
        _initialized = True

    cold_s, cold = _timed_request(daemon, program.source)
    assert cold["cached"] is False

    warm_s, tier = None, None
    for _ in range(WARM_TRIES):
        elapsed, warm = _timed_request(daemon, program.source)
        assert warm["cached"] in ("memory", "disk")
        assert warm["artifacts"] == cold["artifacts"]
        if warm_s is None or elapsed < warm_s:
            warm_s, tier = elapsed, warm["cached"]

    speedup = cold_s / warm_s
    _rows[program.name] = {"cold_s": cold_s, "warm_s": warm_s,
                           "speedup": speedup}
    table.row(program.name, cold_s * 1000, warm_s * 1000,
              f"{speedup:.1f}x", tier)


def test_s1_summary(daemon, report):
    assert len(_rows) == len(PROGRAMS)
    table = report("S1_server")
    geomean = statistics.geometric_mean(
        row["speedup"] for row in _rows.values())
    stats = daemon.stats()
    table.note(f"geomean warm speedup: {geomean:.1f}x over "
               f"{len(_rows)} programs; server cache stats: "
               f"{stats['cache']}")
    assert stats["cache"]["hit_rate"] > 0
    assert geomean >= 5.0, (
        f"warm cache should be >= 5x cold compile, got {geomean:.2f}x")
