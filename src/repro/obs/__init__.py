"""Observability substrate: tracing, metrics, profiling, provenance.

The simulation pipeline is instrumented end-to-end through a single
optional :class:`~repro.obs.instrument.Instrumentation` bundle:

* :mod:`repro.obs.tracer` — structured per-slot event tracing
  (:class:`NullTracer` default, :class:`JsonlTraceWriter` for files);
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry;
* :mod:`repro.obs.spans` — wall-clock timing as a span tree (run →
  slot-block → phase → kernel) with collapsed-stack / speedscope /
  flame-graph export;
* :mod:`repro.obs.provenance` — run manifests (config hash, seed, git
  revision, package version);
* :mod:`repro.obs.cli` — the ``repro-trace`` console entry point.

On top of the emission side sits the analysis/verification backend:

* :mod:`repro.obs.analyze` — trace -> per-user timelines + invariant
  checking (``repro-analyze``);
* :mod:`repro.obs.compare` — tolerance-aware run diffing and the
  kernel-bench regression gate (``repro-compare``);
* :mod:`repro.obs.report` — self-contained HTML run reports
  (``repro-report``);
* :mod:`repro.obs.perf` — the benchmark history ledger and noise-aware
  change-point detection behind ``repro-bench``.

And beside both, the **live telemetry plane** (:mod:`repro.obs.live`):
streaming aggregators (EWMA / Welford / P² quantile sketches), an
online SLO watchdog, executor heartbeats with stall detection, and a
Prometheus/JSON exporter with the ``repro-watch`` dashboard — the same
signals, observed *while* the run executes.

Quick taste::

    from repro.obs import Instrumentation, RecordingTracer, use_instrumentation

    instr = Instrumentation(tracer=RecordingTracer())
    res = run_scheduler(cfg, EMAScheduler(cfg.n_users), instrumentation=instr)
    print(instr.spans.render_table())
    print(instr.metrics.snapshot()["counters"]["rrc.occupancy.idle"])
"""

from repro.obs.analyze import (
    InvariantReport,
    RunTimeline,
    Violation,
    check_invariants,
    check_trace,
    timeline_from_result,
    timelines_from_trace,
)
from repro.obs.compare import (
    ComparisonReport,
    Tolerance,
    compare_bench,
    compare_metrics,
    compare_runs,
)
from repro.obs.instrument import (
    Instrumentation,
    current_instrumentation,
    use_instrumentation,
)
from repro.obs.live import (
    LiveTelemetry,
    MetricsServer,
    SloWatchdog,
    SnapshotExporter,
    logging_setup,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.perf import (
    BenchRecord,
    check_against_history,
    load_ledger,
    machine_fingerprint,
    record_snapshot,
    trend_html,
)
from repro.obs.provenance import RunManifest, build_manifest, config_hash, git_revision
from repro.obs.report import render_report, write_report
from repro.obs.spans import (
    SpanRecorder,
    activate_spans,
    current_spans,
    flamegraph_svg,
)
from repro.obs.tracer import JsonlTraceWriter, NullTracer, RecordingTracer, Tracer

__all__ = [
    "RunTimeline",
    "Violation",
    "InvariantReport",
    "check_invariants",
    "check_trace",
    "timeline_from_result",
    "timelines_from_trace",
    "Tolerance",
    "ComparisonReport",
    "compare_metrics",
    "compare_runs",
    "compare_bench",
    "render_report",
    "write_report",
    "Instrumentation",
    "use_instrumentation",
    "current_instrumentation",
    "LiveTelemetry",
    "SloWatchdog",
    "SnapshotExporter",
    "MetricsServer",
    "logging_setup",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "JsonlTraceWriter",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecorder",
    "activate_spans",
    "current_spans",
    "flamegraph_svg",
    "BenchRecord",
    "machine_fingerprint",
    "record_snapshot",
    "load_ledger",
    "check_against_history",
    "trend_html",
    "RunManifest",
    "build_manifest",
    "config_hash",
    "git_revision",
]
