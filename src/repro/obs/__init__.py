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

import importlib

#: Each public name -> the submodule defining it.  The package resolves
#: them on first access (PEP 562), so ``import repro`` loads only the
#: modules it uses: not the live plane's HTTP server, nor the analysis,
#: report, comparison and ledger tools.
_EXPORTS = {
    **dict.fromkeys(
        (
            "RunTimeline",
            "Violation",
            "InvariantReport",
            "check_invariants",
            "check_trace",
            "timeline_from_result",
            "timelines_from_trace",
        ),
        "analyze",
    ),
    **dict.fromkeys(
        ("Tolerance", "ComparisonReport", "compare_metrics", "compare_runs", "compare_bench"),
        "compare",
    ),
    **dict.fromkeys(("render_report", "write_report"), "report"),
    **dict.fromkeys(
        ("Instrumentation", "use_instrumentation", "current_instrumentation"),
        "instrument",
    ),
    **dict.fromkeys(
        ("LiveTelemetry", "SloWatchdog", "SnapshotExporter", "MetricsServer", "logging_setup"),
        "live",
    ),
    **dict.fromkeys(
        ("Tracer", "NullTracer", "RecordingTracer", "JsonlTraceWriter"), "tracer"
    ),
    **dict.fromkeys(("MetricsRegistry", "Counter", "Gauge", "Histogram"), "metrics"),
    **dict.fromkeys(
        ("SpanRecorder", "activate_spans", "current_spans", "flamegraph_svg"), "spans"
    ),
    **dict.fromkeys(
        (
            "BenchRecord",
            "machine_fingerprint",
            "record_snapshot",
            "load_ledger",
            "check_against_history",
            "trend_html",
        ),
        "perf",
    ),
    **dict.fromkeys(
        ("RunManifest", "build_manifest", "config_hash", "git_revision"), "provenance"
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
