"""Allocation-light online statistics for the live telemetry plane.

Everything here is O(1) memory per stream — the engine feeds these from
its slot loop without retaining history, which is what makes watching a
2000-user run affordable:

* :class:`Ewma` — exponentially weighted moving average (rates, e.g.
  slots/sec);
* :class:`Welford` — numerically stable online mean/variance;
* :class:`P2Quantile` — the Jain & Chlamtac P² streaming quantile
  estimator (exact over its first 64 samples, then five markers per
  tracked quantile and no samples kept);
* :class:`StreamStat` — the composite the live plane keeps per channel
  (count/last/min/max + Welford + a P² sketch per tracked quantile).

The P² sketch is approximate; ``tests/obs/test_live_aggregators.py``
property-tests it against exact percentiles on random streams.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Ewma", "Welford", "P2Quantile", "StreamStat"]


class Ewma:
    """Exponentially weighted moving average with half-life semantics.

    ``update(value, dt_s)`` folds one observation in; the decay per
    update is ``0.5 ** (dt_s / halflife_s)``, so irregular update
    intervals (wall-clock ticks) weight correctly.  The first update
    seeds the average directly.
    """

    __slots__ = ("halflife_s", "value", "initialized")

    def __init__(self, halflife_s: float = 5.0):
        if halflife_s <= 0:
            raise ConfigurationError("halflife_s must be positive")
        self.halflife_s = float(halflife_s)
        self.value = 0.0
        self.initialized = False

    def update(self, value: float, dt_s: float = 1.0) -> float:
        value = float(value)
        if not self.initialized:
            self.value = value
            self.initialized = True
            return self.value
        decay = 0.5 ** (max(float(dt_s), 0.0) / self.halflife_s)
        self.value = decay * self.value + (1.0 - decay) * value
        return self.value


class Welford:
    """Online mean/variance (Welford's algorithm)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def add_array(self, values) -> None:
        """Fold a whole sample block in (Chan's parallel merge).

        Equivalent to ``add``-ing each value, at O(1) Python cost per
        block — the live plane's batched tick path.
        """
        values = np.asarray(values, dtype=float)
        k = int(values.size)
        if k == 0:
            return
        mean_b = float(values.mean())
        m2_b = float(((values - mean_b) ** 2).sum())
        if self.count == 0:
            self.count, self.mean, self._m2 = k, mean_b, m2_b
            return
        n = self.count
        total = n + k
        delta = mean_b - self.mean
        self._m2 += m2_b + delta * delta * n * k / total
        self.mean += delta * k / total
        self.count = total

    @property
    def variance(self) -> float:
        """Population variance (0 until two samples arrive)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class P2Quantile:
    """P² streaming quantile estimator (Jain & Chlamtac, 1985).

    Tracks one quantile ``q`` in (0, 1) with five markers whose heights
    approximate the ``(0, q/2, q, (1+q)/2, 1)`` quantiles; marker
    positions are adjusted toward their desired positions with
    piecewise-parabolic (falling back to linear) interpolation.

    Exact until :attr:`EXACT_SAMPLES` samples arrive: they are kept
    sorted and :attr:`value` is their linearly interpolated percentile
    (numpy's default).  The sample that fills the buffer seeds the five
    markers with the sorted sample's order statistics at their desired
    ranks.  Seeding from five samples, as the original algorithm does,
    lets a few early outliers pull the interior markers off the data on
    short or heavily tied streams (37 zeros, 3 ones, then 10 zeros put
    the five-sample q = 0.9 estimate at 0.21, against an exact 0).
    """

    #: Samples kept (sorted) before the markers take over.
    EXACT_SAMPLES = 64

    __slots__ = ("q", "_n", "_heights", "_pos", "_desired", "_incr")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ConfigurationError("q must lie strictly in (0, 1)")
        self.q = float(q)
        self._n = 0
        self._heights: list[float] = []
        # Marker state is set by _seed once the exact buffer is full.
        self._pos: list[float] = []
        self._desired: list[float] = []
        self._incr = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    @property
    def count(self) -> int:
        return self._n

    def add(self, value: float) -> None:
        value = float(value)
        self._n += 1
        # Local aliases: this runs once per engine slot per sketch, so
        # attribute lookups are hoisted out of the marker arithmetic.
        h = self._heights
        if not self._pos:
            bisect.insort(h, value)
            if self._n == self.EXACT_SAMPLES:
                self._seed()
            return
        pos = self._pos
        desired = self._desired
        incr = self._incr
        # Locate the cell and clamp the extreme markers.
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0
            while k < 3 and value >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        desired[1] += incr[1]
        desired[2] += incr[2]
        desired[3] += incr[3]
        desired[4] += 1.0
        # Adjust the three interior markers.
        for i in (1, 2, 3):
            d = desired[i] - pos[i]
            right = pos[i + 1] - pos[i]
            left = pos[i - 1] - pos[i]
            if (d >= 1.0 and right > 1.0) or (d <= -1.0 and left < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def add_array(self, values) -> None:
        """Feed a block of samples (the plane's batched tick path).

        Float-exact against calling :meth:`add` per sample (identical
        marker state, same operation order in the interpolation), but
        with the whole update scalarized: markers live in plain locals
        for the duration of the block and are written back once.  The
        sketches are the only per-sample Python cost in live mode, so
        this loop is what keeps the plane inside its <3% engine
        overhead budget (``benchmarks/bench_kernels.py``).
        """
        n_new = len(values)
        if not n_new:
            return
        i0 = 0
        if not self._pos:
            # Still exact: a stable sort of the grown buffer orders ties
            # by arrival, as bisect.insort in add does.
            i0 = min(n_new, self.EXACT_SAMPLES - self._n)
            self._heights.extend(float(v) for v in values[:i0])
            self._heights.sort()
            self._n += i0
            if self._n < self.EXACT_SAMPLES:
                return
            self._seed()
            if i0 == n_new:
                return
        h = self._heights
        pos = self._pos
        desired = self._desired
        inc1, inc2, inc3 = self._incr[1], self._incr[2], self._incr[3]
        h0, h1, h2, h3, h4 = h
        p0, p1, p2, p3, p4 = pos
        d1, d2, d3, d4 = desired[1], desired[2], desired[3], desired[4]
        for j in range(i0, n_new):
            v = values[j]
            # Locate the cell; k is the first marker position to bump.
            if v < h0:
                h0 = v
                k = 1
            elif v >= h4:
                h4 = v
                k = 4
            elif v < h1:
                k = 1
            elif v < h2:
                k = 2
            elif v < h3:
                k = 3
            else:
                k = 4
            if k <= 1:
                p1 += 1.0
            if k <= 2:
                p2 += 1.0
            if k <= 3:
                p3 += 1.0
            p4 += 1.0
            d1 += inc1
            d2 += inc2
            d3 += inc3
            d4 += 1.0
            # Adjust marker 1 (parabolic, linear fallback).
            d = d1 - p1
            if d >= 1.0:
                step = 1.0
            elif d <= -1.0:
                step = -1.0
            else:
                step = 0.0
            if step != 0.0 and (
                (step > 0 and p2 - p1 > 1.0) or (step < 0 and p0 - p1 < -1.0)
            ):
                c = h1 + step / (p2 - p0) * (
                    (p1 - p0 + step) * (h2 - h1) / (p2 - p1)
                    + (p2 - p1 - step) * (h1 - h0) / (p1 - p0)
                )
                if not (h0 < c < h2):
                    if step > 0:
                        c = h1 + step * (h2 - h1) / (p2 - p1)
                    else:
                        c = h1 + step * (h0 - h1) / (p0 - p1)
                h1 = c
                p1 += step
            # Adjust marker 2.
            d = d2 - p2
            if d >= 1.0:
                step = 1.0
            elif d <= -1.0:
                step = -1.0
            else:
                step = 0.0
            if step != 0.0 and (
                (step > 0 and p3 - p2 > 1.0) or (step < 0 and p1 - p2 < -1.0)
            ):
                c = h2 + step / (p3 - p1) * (
                    (p2 - p1 + step) * (h3 - h2) / (p3 - p2)
                    + (p3 - p2 - step) * (h2 - h1) / (p2 - p1)
                )
                if not (h1 < c < h3):
                    if step > 0:
                        c = h2 + step * (h3 - h2) / (p3 - p2)
                    else:
                        c = h2 + step * (h1 - h2) / (p1 - p2)
                h2 = c
                p2 += step
            # Adjust marker 3.
            d = d3 - p3
            if d >= 1.0:
                step = 1.0
            elif d <= -1.0:
                step = -1.0
            else:
                step = 0.0
            if step != 0.0 and (
                (step > 0 and p4 - p3 > 1.0) or (step < 0 and p2 - p3 < -1.0)
            ):
                c = h3 + step / (p4 - p2) * (
                    (p3 - p2 + step) * (h4 - h3) / (p4 - p3)
                    + (p4 - p3 - step) * (h3 - h2) / (p3 - p2)
                )
                if not (h2 < c < h4):
                    if step > 0:
                        c = h3 + step * (h4 - h3) / (p4 - p3)
                    else:
                        c = h3 + step * (h2 - h3) / (p2 - p3)
                h3 = c
                p3 += step
        h[0], h[1], h[2], h[3], h[4] = h0, h1, h2, h3, h4
        pos[1], pos[2], pos[3], pos[4] = p1, p2, p3, p4
        desired[1], desired[2], desired[3], desired[4] = d1, d2, d3, d4
        self._n += n_new - i0

    def _seed(self) -> None:
        """Replace the full sorted buffer with the five P² markers."""
        x = self._heights
        n = len(x)
        desired = [1.0 + (n - 1) * inc for inc in self._incr]
        pos = [1.0]
        for i in (1, 2, 3):
            # Nearest whole rank, kept strictly increasing.
            rank = min(max(round(desired[i]), pos[-1] + 1.0), n - 4.0 + i)
            pos.append(float(rank))
        pos.append(float(n))
        self._heights = [x[int(p) - 1] for p in pos]
        self._pos = pos
        self._desired = desired

    def _parabolic(self, i: int, step: float) -> float:
        p, h = self._pos, self._heights
        return h[i] + step / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + step) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - step) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        j = i + int(step)
        return self._heights[i] + step * (self._heights[j] - self._heights[i]) / (
            self._pos[j] - self._pos[i]
        )

    @property
    def value(self) -> float:
        """The current quantile estimate (NaN before any sample)."""
        h = self._heights
        if not h:
            return float("nan")
        if self._pos:
            return h[2]
        # Linear interpolation between the two nearest order statistics.
        at = self.q * (len(h) - 1)
        lo = math.floor(at)
        if lo + 1 == len(h):
            return h[lo]
        return h[lo] + (at - lo) * (h[lo + 1] - h[lo])


class StreamStat:
    """Per-channel composite: count/last/min/max, Welford, P² sketches.

    ``quantiles`` are tracked with one P² sketch each; ``snapshot()``
    reports them as ``p50``/``p95``-style keys.
    """

    __slots__ = ("name", "last", "min", "max", "welford", "_sketches")

    def __init__(self, name: str, quantiles: tuple[float, ...] = (0.5, 0.95)):
        self.name = name
        self.last = float("nan")
        self.min = float("inf")
        self.max = float("-inf")
        self.welford = Welford()
        self._sketches = {q: P2Quantile(q) for q in quantiles}

    @property
    def count(self) -> int:
        return self.welford.count

    def add(self, value: float) -> None:
        value = float(value)
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.welford.add(value)
        for sketch in self._sketches.values():
            sketch.add(value)

    def add_array(self, values) -> None:
        """Fold a block of samples in (vectorized where possible).

        Identical aggregates to per-sample ``add`` calls: min/max/mean/
        variance merge in O(1) Python per block, and the P² sketches —
        sequential by construction — consume the block in one tight
        loop each.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        self.last = float(values[-1])
        lo = float(values.min())
        hi = float(values.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        self.welford.add_array(values)
        if self._sketches:
            samples = values.tolist()
            for sketch in self._sketches.values():
                sketch.add_array(samples)

    def quantile(self, q: float) -> float:
        """The tracked estimate for ``q`` (NaN for untracked quantiles)."""
        sketch = self._sketches.get(q)
        return sketch.value if sketch is not None else float("nan")

    def aggregate(self, agg: str) -> float:
        """Look up one aggregate by SLO-rule name (``p95``, ``mean``, ...)."""
        if agg in ("last", "value"):
            return self.last
        if agg == "mean":
            return self.welford.mean
        if agg == "std":
            return self.welford.std
        if agg == "min":
            return self.min if self.count else float("nan")
        if agg == "max":
            return self.max if self.count else float("nan")
        if agg == "count":
            return float(self.count)
        if agg == "sum":
            # Recovered from the Welford state rather than tracked
            # separately; exact enough for thresholds on totals (e.g.
            # ``sum(outage_slots) < 500``) and deterministic for a
            # given sample sequence.
            return self.welford.mean * self.count
        if agg.startswith("p") and agg[1:].isdigit():
            return self.quantile(float(agg[1:]) / 100.0)
        raise ConfigurationError(f"unknown aggregate {agg!r}")

    def snapshot(self) -> dict[str, float]:
        """Plain-float summary (safe to JSON-serialise / ship in a heartbeat)."""
        if not self.count:
            return {"count": 0}
        out = {
            "count": self.count,
            "last": self.last,
            "mean": self.welford.mean,
            "std": self.welford.std,
            "min": self.min,
            "max": self.max,
        }
        for q, sketch in self._sketches.items():
            out[f"p{round(q * 100):d}"] = sketch.value
        return out
