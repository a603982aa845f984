"""CKMS targeted-quantile sketches: the documented rank-error bound.

The contract (also stated in DESIGN.md): for every target ``(φ, ε)``
and stream of *n* observations, ``query(φ)`` returns a stream value
whose rank is within ``ε·n`` of ``φ·n``.  The fixture is deterministic
(seeded shuffle), so a regression in the invariant or compression
shows up as a hard failure, not flaky noise.
"""

from __future__ import annotations

import bisect
import random

import pytest

from repro.obs.quantiles import DEFAULT_TARGETS, QuantileFamily, QuantileSketch


def _rank_bounds(ordered, value):
    """The [lo, hi] rank range *value* occupies in the sorted stream."""
    return bisect.bisect_left(ordered, value), bisect.bisect_right(ordered, value)


def _assert_within_bound(sketch, data):
    ordered = sorted(data)
    n = len(data)
    for quantile, epsilon in sketch.targets:
        estimate = sketch.query(quantile)
        lo, hi = _rank_bounds(ordered, estimate)
        target = quantile * n
        assert lo - epsilon * n <= target <= hi + epsilon * n, (
            f"q={quantile}: estimate {estimate} has rank [{lo},{hi}], "
            f"target {target:.0f} ± {epsilon * n:.0f}"
        )


class TestRankErrorBound:
    @pytest.mark.parametrize("seed", [7, 2013, 99])
    def test_uniform_stream_within_bound(self, seed):
        rng = random.Random(seed)
        data = [rng.random() for _ in range(10_000)]
        sketch = QuantileSketch()
        for value in data:
            sketch.observe(value)
        _assert_within_bound(sketch, data)

    def test_adversarial_sorted_and_reversed(self):
        data = [float(i) for i in range(5_000)]
        for stream in (data, list(reversed(data))):
            sketch = QuantileSketch()
            for value in stream:
                sketch.observe(value)
            _assert_within_bound(sketch, data)

    def test_heavy_tail_p99(self):
        # 1% of observations are 100× slower — exactly what the p99
        # target (ε=0.001) must resolve and fixed buckets cannot.
        rng = random.Random(42)
        data = [0.001 + rng.random() * 0.001 for _ in range(9_900)]
        data += [0.1 + rng.random() * 0.1 for _ in range(100)]
        rng.shuffle(data)
        sketch = QuantileSketch()
        for value in data:
            sketch.observe(value)
        _assert_within_bound(sketch, data)
        assert sketch.query(0.5) < 0.01  # body, not tail

    def test_space_stays_sublinear(self):
        rng = random.Random(1)
        sketch = QuantileSketch()
        for _ in range(50_000):
            sketch.observe(rng.random())
        assert sketch.count == 50_000
        assert sketch.sample_count < 500  # vs 50k raw samples

    def test_small_streams_exact_edges(self):
        sketch = QuantileSketch()
        assert sketch.query(0.99) is None
        sketch.observe(3.0)
        assert sketch.query(0.5) == 3.0
        for value in (1.0, 2.0):
            sketch.observe(value)
        assert sketch.query(0.99) == 3.0
        assert sketch.count == 3
        assert sketch.sum == pytest.approx(6.0)

    def test_max_is_exact_however_compressed(self):
        rng = random.Random(3)
        sketch = QuantileSketch()
        assert sketch.max == 0.0
        data = [rng.random() for _ in range(20_000)]
        for value in data:
            sketch.observe(value)
        assert sketch.sample_count < len(data)  # compressed ...
        assert sketch.max == max(data)          # ... and the tail sample kept
        assert sketch.snapshot()["max"] == max(data)

    def test_invalid_targets_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(targets=[(1.5, 0.01)])
        with pytest.raises(ValueError):
            QuantileSketch(targets=[(0.5, 0.0)])


class TestQuantileFamily:
    def test_per_label_sketches_and_render(self):
        family = QuantileFamily("repro_endpoint_request_seconds",
                                "Request latency.", label="route")
        for i in range(1000):
            family.observe("/sparql", i / 1000.0)
        family.observe("/stats", 0.002)
        body = family.render()
        assert "# TYPE repro_endpoint_request_seconds summary" in body
        assert 'route="/sparql",quantile="0.99"' in body
        assert 'repro_endpoint_request_seconds_count{route="/sparql"} 1000' in body
        assert 'repro_endpoint_request_seconds_count{route="/stats"} 1' in body
        p99 = family.quantile("/sparql", 0.99)
        assert 0.985 <= p99 <= 0.995  # ε=0.001 → rank within ±1 of 990

    def test_series_bound_overflows_to_other(self):
        family = QuantileFamily("t_seconds", label="plan_digest", max_series=2)
        family.observe("a", 1.0)
        family.observe("b", 2.0)
        family.observe("c", 3.0)  # past the bound → folded into "other"
        family.observe("d", 4.0)
        assert sorted(family.labels()) == ["a", "b", "other"]
        assert family.quantile("other", 0.5) in (3.0, 4.0)

    def test_empty_family_renders_nothing(self):
        assert QuantileFamily("t_seconds").render() == ""
        assert QuantileFamily("t_seconds").snapshot() == {}

    def test_snapshot_shape(self):
        family = QuantileFamily("t_seconds", targets=DEFAULT_TARGETS)
        for i in range(10):
            family.observe("x", float(i))
        snapshot = family.snapshot()
        assert snapshot["x"]["count"] == 10
        assert set(snapshot["x"]["quantiles"]) == {"0.5", "0.95", "0.99"}
