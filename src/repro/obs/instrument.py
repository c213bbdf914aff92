"""The :class:`Instrumentation` bundle and the ambient-instrumentation context.

One object carries the observability facets through the pipeline:

* ``tracer`` — structured events (:mod:`repro.obs.tracer`);
* ``metrics`` — counters/gauges/histograms (:mod:`repro.obs.metrics`);
* ``spans`` — wall-clock timing as a span tree (:mod:`repro.obs.spans`):
  run → slot-block → phase → kernel, with flame-graph export;
* ``live`` — the optional live telemetry plane
  (:mod:`repro.obs.live`): streaming aggregators, the SLO watchdog,
  heartbeats, and snapshot export, fed once per engine slot.  ``None``
  (the default) costs the hot loop a single attribute test.

Passing the bundle explicitly (``Simulation(cfg, sched,
instrumentation=instr)`` or ``run_scheduler(..., instrumentation=instr)``)
instruments one run.  The *ambient* context::

    with use_instrumentation(instr):
        run_experiment("fig05")

instruments every simulation constructed inside the ``with`` block —
this is how ``repro-trace`` observes the dozens of inner calibration
runs an experiment performs without every experiment module having to
thread the object through its call tree.

Instrumentation is strictly observational: an instrumented run is
bit-identical to an un-instrumented one (enforced by
``tests/integration/test_determinism.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.tracer import NullTracer, Tracer

__all__ = ["Instrumentation", "use_instrumentation", "current_instrumentation"]


class Instrumentation:
    """Tracer + metrics registry + span tree, travelling together.

    Any facet may be omitted: the tracer defaults to
    :class:`~repro.obs.tracer.NullTracer` (drop everything) and the
    metrics registry and span recorder to fresh empty instances, so
    ``Instrumentation()`` already collects metrics and phase timings
    without writing a trace anywhere.
    """

    __slots__ = ("tracer", "metrics", "live", "spans")

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        live=None,
        spans: SpanRecorder | None = None,
    ):
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional :class:`repro.obs.live.LiveTelemetry`; bound to the
        #: bundle's registry, which its snapshots export.
        self.live = live
        if live is not None:
            live.bind(self.metrics)
        #: The engine records each slot phase here and activates the
        #: recorder around the slot loop, so registry-resolved kernels
        #: self-report backend-tagged spans.
        self.spans = spans if spans is not None else SpanRecorder()

    def close(self) -> None:
        """Close the tracer (flushes file-backed writers) and the live plane."""
        if self.live is not None:
            self.live.close()
        self.tracer.close()

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Instrumentation tracer={type(self.tracer).__name__} "
            f"metrics={len(self.metrics)} spans={len(self.spans)}>"
        )


_AMBIENT: list[Instrumentation] = []


def current_instrumentation() -> Instrumentation | None:
    """The innermost ambient bundle, or ``None`` when none is active."""
    return _AMBIENT[-1] if _AMBIENT else None


@contextmanager
def use_instrumentation(instr: Instrumentation) -> Iterator[Instrumentation]:
    """Make ``instr`` the ambient bundle for the dynamic extent of the block.

    Nesting is allowed; the innermost bundle wins.  Simulations that
    received an explicit ``instrumentation=`` argument keep it — the
    ambient bundle only fills the default.
    """
    _AMBIENT.append(instr)
    try:
        yield instr
    finally:
        _AMBIENT.pop()
