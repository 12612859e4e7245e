"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest -q perfbench/test_measure.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import (Calibrator, Span, SpanRecorder, TooFewSamples,  # noqa: E402
                     draw, percentile, samples_beyond, scale, self_time)
from workloads import WORKLOADS  # noqa: E402


def test_scale_normalises_to_the_nominal_kernel():
    assert scale(10.0, 3.0, nominal_ms=1.5) == pytest.approx(5.0)
    assert scale(10.0, 1.5, nominal_ms=1.5) == pytest.approx(10.0)


def test_calibrator_uses_the_median_of_adjacent_samples():
    samples = iter([1.0, 2.0, 2.0, 4.0, 100.0])
    calib = Calibrator(nominal_ms=2.0, every_ms=10.0, window=1,
                       timer=lambda: next(samples))
    calib.tick()                 # sample 1.0
    calib.record(10.0)           # between 1.0 and 2.0 -> K 1.5
    calib.record(10.0)           # between 2.0 and 2.0 -> K 2.0
    calib.record(5.0)
    calib.record(5.0)            # both between 2.0 and 4.0 -> K 3.0
    calib.finish()               # closing sample 100.0
    assert calib.samples == [1.0, 2.0, 2.0, 4.0, 100.0]
    got = calib.calibrated()
    assert got == pytest.approx([10.0 * 2.0 / 1.5, 10.0, 5.0 * 2.0 / 3.0,
                                 5.0 * 2.0 / 3.0])
    assert calib.raw() == [10.0, 10.0, 5.0, 5.0]
    # With a wider window, one slow sample barely moves the median.
    calib.window = 2
    assert calib.adjacent_k(3) == pytest.approx(3.0)  # of 2, 2, 4, 100


def test_timed_step_scales_by_the_samples_around_it():
    samples = iter([2.0, 2.0, 2.0, 4.0, 4.0, 4.0])
    calib = Calibrator(nominal_ms=1.5, timer=lambda: next(samples))
    result, raw_s, cal_s = calib.timed_step(lambda: "done")
    assert result == "done"
    assert cal_s == pytest.approx(raw_s * 1.5 / 3.0)  # K = (2 + 4) / 2


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 201))
    assert samples_beyond(200, 95) == 10
    # Harrell-Davis reference values (scipy.stats.mstats.hdquantiles).
    assert percentile(values, 95) == pytest.approx(190.5)
    assert percentile(values, 50) == pytest.approx(100.5)
    with pytest.raises(TooFewSamples):
        percentile(values[:-1], 95)
    assert percentile(values[:-1], 90) == pytest.approx(179.6)
    assert percentile([3.0] * 300, 95) == pytest.approx(3.0)


def test_percentile_averages_across_a_gap():
    # 95% of samples at 10, 5% at 20: the order statistic at the p95 rank
    # sits on the gap's edge; the estimate moves smoothly between them.
    low = percentile([10.0] * 380 + [20.0] * 20, 95)
    high = percentile([10.0] * 379 + [20.0] * 21, 95)
    assert 10.0 < low < high < 20.0
    assert high - low < 2.0


def test_self_time_subtracts_the_union_of_children():
    parent = Span("p", 0.0, 10.0, 0)
    children = [Span("a", 1.0, 3.0, 0), Span("b", 2.0, 5.0, 0),
                Span("c", 7.0, 8.0, 0), Span("d", 9.5, 12.0, 0)]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0
                                                        - 0.5)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_recorder_links_parents_and_self_times():
    recorder = SpanRecorder()
    with recorder.span("outer", 7):
        with recorder.span("inner", 7):
            pass
    outer, inner = recorder.spans
    assert inner.parent == outer.index and outer.parent is None
    times = recorder.self_times()
    assert times[outer.index] == pytest.approx(outer.duration
                                               - inner.duration)


def test_draw_is_whole_seeded_passes():
    first = draw(11, 7, 4)
    assert first == draw(11, 7, 4)
    assert first != draw(12, 7, 4)
    for start in range(0, len(first), 7):
        assert sorted(first[start:start + 7]) == list(range(7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_gives_an_identical_workload(name):
    catalogue = json.loads((HERE / "catalogue.json").read_text())["programs"]
    one = WORKLOADS[name](catalogue, 5, 15)
    two = WORKLOADS[name](catalogue, 5, 15)
    assert one.order == two.order
    assert [one.message(i) for i in range(20)] == \
        [two.message(i) for i in range(20)]
    assert len(one.order) >= 200
    assert one.order != WORKLOADS[name](catalogue, 6, 15).order
