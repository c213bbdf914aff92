"""Tests for the Instrumentation bundle and the ambient context."""

from repro.obs.instrument import (
    Instrumentation,
    current_instrumentation,
    use_instrumentation,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.tracer import NullTracer, RecordingTracer


class TestBundle:
    def test_defaults(self):
        instr = Instrumentation()
        assert isinstance(instr.tracer, NullTracer)
        assert len(instr.metrics) == 0
        assert isinstance(instr.spans, SpanRecorder)
        assert len(instr.spans) == 0

    def test_explicit_facets_kept(self):
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        instr = Instrumentation(tracer=tracer, metrics=metrics)
        assert instr.tracer is tracer
        assert instr.metrics is metrics

    def test_context_manager_closes_tracer(self, tmp_path):
        from repro.obs.tracer import JsonlTraceWriter

        writer = JsonlTraceWriter(tmp_path / "t.jsonl")
        with Instrumentation(tracer=writer):
            writer.emit("x")
        assert writer._file.closed


class TestAmbient:
    def test_none_by_default(self):
        assert current_instrumentation() is None

    def test_use_sets_and_restores(self):
        instr = Instrumentation()
        with use_instrumentation(instr) as active:
            assert active is instr
            assert current_instrumentation() is instr
        assert current_instrumentation() is None

    def test_nesting_innermost_wins(self):
        outer, inner = Instrumentation(), Instrumentation()
        with use_instrumentation(outer):
            with use_instrumentation(inner):
                assert current_instrumentation() is inner
            assert current_instrumentation() is outer

    def test_restored_on_exception(self):
        instr = Instrumentation()
        try:
            with use_instrumentation(instr):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_instrumentation() is None

    def test_engine_prefers_explicit_over_ambient(self, small_config):
        from repro.baselines.default import DefaultScheduler
        from repro.sim.engine import Simulation

        ambient = Instrumentation()
        explicit = Instrumentation()
        cfg = small_config.with_(n_slots=20)
        with use_instrumentation(ambient):
            Simulation(cfg, DefaultScheduler(), instrumentation=explicit).run()
        assert explicit.metrics.counter("engine.slots").value == 20
        assert len(ambient.metrics) == 0
