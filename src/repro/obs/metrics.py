"""Counters, gauges, and histograms for the simulation pipeline.

A :class:`MetricsRegistry` is a flat namespace of named metrics with
get-or-create semantics — instrumented code asks for
``registry.counter("scheduler.invocations")`` once before a hot loop
and increments the returned handle directly.

The instrumented pipeline populates (at least) these names:

========================================  =========  =========================================
name                                      type       meaning
========================================  =========  =========================================
``engine.slots``                          counter    simulated slots
``scheduler.invocations``                 counter    ``Scheduler.allocate`` calls
``allocation.near_miss``                  counter    slots where the allocation used > 90%
                                                     of the capacity budget (constraint 2)
``allocation.truncated_kb``               counter    allocated KB the clients could not accept
``rrc.occupancy.dch|fach|idle``           counter    user-slots spent in each RRC state
``rrc.tail_mj``                           counter    cumulative tail-energy accrual
``energy.trans_mj``                       counter    cumulative transmission energy
``ema.virtual_queues``                    gauge      each run's final ``PC_i(n)`` (EMA)
``calibration.grid_evaluations``          counter    inner simulations run by the calibrators
========================================  =========  =========================================
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "is_numeric_value",
]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (q in [0, 100])."""
    if not sorted_values:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("percentile q must lie in [0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


class Counter:
    """Monotonically increasing accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge:
    """Last-write-wins value; scalars or small vectors (NumPy arrays).

    A gauge may also hold a non-numeric value (the backend name in
    ``kernels.backend``, for instance); snapshots partition those into
    an ``info`` section so numeric consumers — the Prometheus exporter,
    the comparison gates — never meet a string where they expect a
    number (see :func:`is_numeric_value`).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Any = None

    def set(self, value: Any) -> None:
        self.value = value

    @property
    def is_numeric(self) -> bool:
        return is_numeric_value(self.value)


def is_numeric_value(value: Any) -> bool:
    """True for numbers and (nested) numeric sequences/arrays.

    Booleans and ``None`` are *not* numeric (a bool gauge is a flag, an
    unset gauge is information-free); NumPy scalars and arrays of any
    numeric dtype are.
    """
    if isinstance(value, bool) or value is None:
        return False
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, np.generic):
        return bool(np.issubdtype(value.dtype, np.number)) and not isinstance(
            value, np.bool_
        )
    if isinstance(value, np.ndarray):
        return bool(np.issubdtype(value.dtype, np.number))
    if isinstance(value, (list, tuple)):
        return all(is_numeric_value(v) for v in value) and len(value) > 0
    return False


class Histogram:
    """Streaming sample collector with quantile summaries.

    Samples are kept verbatim (the pipeline's cardinalities — slots,
    grid points, bench rounds — are small); ``summary()`` reports
    count/total/mean/min/p50/p95/max.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    def summary(self) -> dict[str, float]:
        if not self.samples:
            return {"count": 0}
        ordered = sorted(self.samples)
        total = float(sum(ordered))
        return {
            "count": len(ordered),
            "total": total,
            "mean": total / len(ordered),
            "min": ordered[0],
            "p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "max": ordered[-1],
        }


class MetricsRegistry:
    """Flat get-or-create namespace of counters, gauges, and histograms.

    A name is bound to one metric type for the registry's lifetime;
    asking for the same name as a different type raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Plain-dict view, gauges type-partitioned.

        Returns ``{"counters": {...}, "gauges": {...}, "info": {...},
        "histograms": {...}}``: numeric gauges (scalars and numeric
        vectors) land in ``gauges``; everything else (backend names,
        version strings, flags) lands in ``info``.  Purely numeric
        consumers — the Prometheus exporter, the bench gates — read
        ``gauges`` and treat ``info`` as labels.
        """
        out: dict[str, dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "info": {},
            "histograms": {},
        }
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                value = metric.value
                numeric = metric.is_numeric
                if isinstance(value, np.ndarray):
                    value = value.tolist()
                elif isinstance(value, np.generic):
                    value = value.item()
                out["gauges" if numeric else "info"][name] = value
            else:
                out["histograms"][name] = metric.summary()
        return out

    def state(self) -> dict[str, dict[str, Any]]:
        """Mergeable raw state: counter values, gauge values, histogram samples.

        Unlike :meth:`snapshot` this keeps histogram samples verbatim
        (not summarised) and gauge values unconverted, so a registry
        populated in a worker process can be shipped back and folded
        into the parent with :meth:`merge_state` without losing
        information.  Gauges are partitioned exactly as in
        :meth:`snapshot` (numeric ``gauges`` vs. ``info``).
        """
        out: dict[str, dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "info": {},
            "histograms": {},
        }
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges" if metric.is_numeric else "info"][name] = metric.value
            else:
                out["histograms"][name] = list(metric.samples)
        return out

    def merge_state(self, state: dict[str, dict[str, Any]]) -> None:
        """Fold a :meth:`state` dict into this registry.

        Counters add, gauges last-write-win (both the numeric
        ``gauges`` and the ``info`` sections — older states without the
        partition merge unchanged), histogram samples extend — merging
        worker states in task order reproduces exactly the registry a
        serial execution would have built (each engine counter receives
        one increment per run).
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, value in state.get("info", {}).items():
            self.gauge(name).set(value)
        for name, samples in state.get("histograms", {}).items():
            self.histogram(name).samples.extend(samples)

    def write_json(self, path: str | Path) -> Path:
        """Serialise :meth:`snapshot` to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), indent=2) + "\n", encoding="utf-8")
        return path
