"""Streaming aggregators: EWMA, Welford, P² sketches, StreamStat.

The P² estimator is approximate by construction; the property tests
bound its error against exact percentiles on random streams rather
than pinning values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.live import Ewma, P2Quantile, StreamStat, Welford


class TestEwma:
    def test_first_update_seeds(self):
        e = Ewma(halflife_s=5.0)
        assert not e.initialized
        assert e.update(10.0, dt_s=1.0) == 10.0
        assert e.initialized

    def test_halflife_semantics(self):
        # One update a full half-life later moves halfway to the target.
        e = Ewma(halflife_s=2.0)
        e.update(0.0)
        e.update(100.0, dt_s=2.0)
        assert e.value == pytest.approx(50.0)

    def test_converges_to_constant(self):
        e = Ewma(halflife_s=1.0)
        for _ in range(60):
            e.update(7.0, dt_s=1.0)
        assert e.value == pytest.approx(7.0, rel=1e-6)

    def test_rejects_bad_halflife(self):
        with pytest.raises(ConfigurationError):
            Ewma(halflife_s=0.0)


class TestWelford:
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=200,
        )
    )
    def test_matches_numpy(self, values):
        w = Welford()
        for v in values:
            w.add(v)
        arr = np.array(values)
        assert w.count == len(values)
        assert w.mean == pytest.approx(float(arr.mean()), rel=1e-9, abs=1e-6)
        assert w.variance == pytest.approx(float(arr.var()), rel=1e-6, abs=1e-6)
        assert w.std == pytest.approx(float(arr.std()), rel=1e-6, abs=1e-6)

    def test_single_sample(self):
        w = Welford()
        w.add(3.5)
        assert w.mean == 3.5
        assert w.variance == 0.0


class TestP2Quantile:
    def test_rejects_degenerate_q(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                P2Quantile(q)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)

    def test_exact_below_five_samples(self):
        sketch = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            sketch.add(v)
        # Nearest-rank median of {1, 3, 5}.
        assert sketch.value == 3.0

    def test_short_tied_stream_is_exact(self):
        # Markers seeded from the first five samples put this at 0.21.
        data = [0.0] * 37 + [1.0] * 3 + [0.0] * 10
        sketch = P2Quantile(0.9)
        for v in data:
            sketch.add(v)
        assert sketch.value == float(np.percentile(data, 90.0))

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=50,
            max_size=500,
        ),
        q=st.sampled_from([0.5, 0.9, 0.95]),
    )
    def test_tracks_exact_percentile(self, data, q):
        sketch = P2Quantile(q)
        for v in data:
            sketch.add(v)
        exact = float(np.percentile(data, q * 100.0))
        spread = max(data) - min(data)
        # P² error is bounded by the local sample spread; on arbitrary
        # streams a 15%-of-range tolerance is a conservative envelope.
        assert abs(sketch.value - exact) <= max(0.15 * spread, 1e-9)
        assert min(data) <= sketch.value <= max(data)
        assert sketch.count == len(data)

    def test_accurate_on_uniform_stream(self):
        rng = np.random.default_rng(42)
        data = rng.uniform(0.0, 1.0, size=5000)
        sketch = P2Quantile(0.95)
        for v in data:
            sketch.add(v)
        assert sketch.value == pytest.approx(
            float(np.percentile(data, 95.0)), abs=0.02
        )


class TestStreamStat:
    def test_aggregates(self):
        stat = StreamStat("rebuffer_s", quantiles=(0.5, 0.95))
        for v in (1.0, 2.0, 3.0, 4.0):
            stat.add(v)
        assert stat.count == 4
        assert stat.aggregate("last") == 4.0
        assert stat.aggregate("min") == 1.0
        assert stat.aggregate("max") == 4.0
        assert stat.aggregate("mean") == pytest.approx(2.5)
        assert stat.aggregate("count") == 4.0
        assert stat.aggregate("p50") == stat.quantile(0.5)

    def test_unknown_aggregate_raises(self):
        with pytest.raises(ConfigurationError):
            StreamStat("x").aggregate("median")

    def test_snapshot_shape(self):
        stat = StreamStat("energy", quantiles=(0.5, 0.95))
        stat.add(10.0)
        snap = stat.snapshot()
        assert snap["count"] == 1
        assert "mean" in snap and "p50" in snap and "p95" in snap
        assert all(isinstance(v, (int, float)) for v in snap.values())

    def test_empty_min_max_are_nan(self):
        stat = StreamStat("x")
        assert math.isnan(stat.aggregate("min"))
        assert math.isnan(stat.aggregate("max"))


class TestBatchedFeeds:
    """The ``add_array`` block paths the engine's batched tick uses.

    ``P2Quantile.add_array`` must be *float-exact* against per-sample
    ``add`` (same marker state, same interpolation operation order) —
    the live plane's observer-effect contract extends to its own
    aggregates.  Welford's Chan merge is exact up to rounding.
    """

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=400,
        ),
        st.sampled_from([0.5, 0.9, 0.95, 0.99]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_p2_add_array_float_exact(self, values, q, rnd):
        ref = P2Quantile(q)
        for v in values:
            ref.add(v)
        batched = P2Quantile(q)
        i = 0
        while i < len(values):
            step = rnd.randint(1, 50)
            batched.add_array([float(v) for v in values[i : i + step]])
            i += step
        assert batched.count == ref.count
        assert batched._heights == ref._heights
        assert batched._pos == ref._pos
        assert batched._desired == ref._desired
        if values:
            assert batched.value == ref.value

    def test_p2_add_array_zero_inflated_stream(self):
        # Rebuffering channels are mostly zeros; the repeated-equal-value
        # paths must stay exact too.
        rng = np.random.default_rng(7)
        data = np.where(rng.random(900) < 0.85, 0.0, rng.random(900))
        ref = P2Quantile(0.95)
        for v in data:
            ref.add(float(v))
        batched = P2Quantile(0.95)
        for start in range(0, 900, 64):
            batched.add_array(data[start : start + 64].tolist())
        assert batched._heights == ref._heights
        assert batched._pos == ref._pos

    def test_p2_add_array_empty_is_noop(self):
        p = P2Quantile(0.5)
        p.add_array([])
        assert p.count == 0
        assert math.isnan(p.value)

    @given(
        st.lists(
            st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_welford_add_array_matches_sequential(self, values):
        seq = Welford()
        for v in values:
            seq.add(v)
        # Feed in two unequal halves to exercise the merge both ways.
        half = len(values) // 2
        merged = Welford()
        merged.add_array(np.asarray(values[:half]))
        merged.add_array(np.asarray(values[half:]))
        assert merged.count == seq.count
        assert merged.mean == pytest.approx(seq.mean, rel=1e-9, abs=1e-9)
        assert merged.variance == pytest.approx(seq.variance, rel=1e-7, abs=1e-7)

    def test_stream_stat_add_array_matches_add(self):
        rng = np.random.default_rng(3)
        data = rng.normal(5.0, 2.0, 512)
        one = StreamStat("x", quantiles=(0.5, 0.95))
        for v in data:
            one.add(float(v))
        batched = StreamStat("x", quantiles=(0.5, 0.95))
        for start in range(0, 512, 64):
            batched.add_array(data[start : start + 64])
        assert batched.count == one.count
        assert batched.last == one.last
        assert batched.min == one.min and batched.max == one.max
        assert batched.welford.mean == pytest.approx(one.welford.mean, rel=1e-12)
        assert batched.quantile(0.95) == one.quantile(0.95)
        assert batched.quantile(0.5) == one.quantile(0.5)

    def test_stream_stat_add_array_empty_is_noop(self):
        s = StreamStat("x")
        s.add_array(np.array([]))
        assert s.count == 0
