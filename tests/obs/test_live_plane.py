"""LiveTelemetry end-to-end against the engine: per-slot feeding,
abort-path trace hygiene, and snapshot structure.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.default import DefaultScheduler
from repro.core.ema import EMAScheduler
from repro.errors import SloViolation
from repro.obs.instrument import Instrumentation
from repro.obs.live import LiveTelemetry
from repro.obs.tracer import JsonlTraceWriter, RecordingTracer
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.workload import generate_workload


def small_config(**kw):
    kw.setdefault("n_users", 4)
    kw.setdefault("n_slots", 120)
    kw.setdefault("seed", 11)
    return SimConfig(**kw)


class FailingScheduler(DefaultScheduler):
    """Raises mid-run to exercise the engine's abort path."""

    def __init__(self, fail_at_call: int = 40):
        super().__init__()
        self.fail_at_call = fail_at_call
        self._calls = 0

    def allocate(self, obs):
        self._calls += 1
        if self._calls >= self.fail_at_call:
            raise RuntimeError("synthetic scheduler crash")
        return super().allocate(obs)


class TestLiveFeeding:
    def test_engine_feeds_every_slot(self):
        cfg = small_config()
        live = LiveTelemetry()
        instr = Instrumentation(live=live)
        Simulation(cfg, DefaultScheduler(), instrumentation=instr).run()
        assert live.total_slots == cfg.n_slots
        assert live.stats["rebuffer_s"].count == cfg.n_slots
        assert live.stats["slot_energy_mj"].count == cfg.n_slots
        progress = live.snapshot()["progress"]
        assert progress["runs_started"] == progress["runs_finished"] == 1
        assert progress["run_slots"] == cfg.n_slots

    def test_run_stats_reset_per_run(self):
        cfg = small_config()
        live = LiveTelemetry()
        instr = Instrumentation(live=live)
        for _ in range(2):
            Simulation(cfg, DefaultScheduler(), instrumentation=instr).run()
        assert live.total_slots == 2 * cfg.n_slots
        # Per-run channels only hold the latest run.
        assert live.stats["rebuffer_s"].count == cfg.n_slots

    def test_registry_fallback_resolution(self):
        cfg = small_config()
        live = LiveTelemetry()
        instr = Instrumentation(live=live)
        Simulation(cfg, DefaultScheduler(), instrumentation=instr).run()
        assert live.resolve("last", "engine.slots") == float(cfg.n_slots)
        assert live.resolve("last", "no.such.metric") is None

    def test_live_plane_values_match_result_grids(self):
        cfg = small_config()
        wl = generate_workload(cfg)
        live = LiveTelemetry()
        instr = Instrumentation(live=live)
        result = Simulation(
            cfg, DefaultScheduler(), wl, instrumentation=instr
        ).run()
        stat = live.stats["rebuffer_s"]
        per_slot = result.rebuffering_s.sum(axis=1)
        assert stat.welford.mean == pytest.approx(float(per_slot.mean()))
        assert stat.max == pytest.approx(float(per_slot.max()))
        energy = live.stats["slot_energy_mj"]
        total = (result.energy_trans_mj + result.energy_tail_mj).sum(axis=1)
        assert energy.welford.mean == pytest.approx(float(total.mean()))


class TestAbortPath:
    def test_slo_abort_raises_and_counts(self):
        cfg = small_config()
        live = LiveTelemetry(
            rules=("count(rebuffer_s) < 50",), action="abort", watch_every=16
        )
        instr = Instrumentation(tracer=RecordingTracer(), live=live)
        with pytest.raises(SloViolation):
            Simulation(cfg, DefaultScheduler(), instrumentation=instr).run()
        kinds = [e["kind"] for e in instr.tracer.events]
        assert "slo.alert" in kinds
        assert kinds[-1] == "run.abort"
        abort = instr.tracer.events[-1]
        assert abort["error"] == "SloViolation"

    def test_ema_abort_keeps_slo_counters_and_queues(self):
        # An aborted run's registry reaches the bundle: the alert that
        # stopped it, and EMA's virtual queues as the last slot left them.
        cfg = small_config()
        live = LiveTelemetry(
            rules=("count(rebuffer_s) < 50",), action="abort", watch_every=16
        )
        instr = Instrumentation(tracer=RecordingTracer(), live=live)
        ema = EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s)
        with pytest.raises(SloViolation):
            Simulation(cfg, ema, instrumentation=instr).run()
        snap = instr.metrics.snapshot()
        assert snap["counters"] == {
            "slo.alerts": 1.0,
            "slo.alerts.count(rebuffer_s)": 1.0,
        }
        queues = instr.tracer.of_kind("ema.queues")
        assert queues[-1]["slot"] == 63  # the slot whose block fired
        assert snap["gauges"]["ema.virtual_queues"] == queues[-1]["pc_s"].tolist()
        assert snap["gauges"]["ema.virtual_queue_max_s"] == queues[-1]["pc_s"].max()

    def test_crashed_run_leaves_valid_trace_prefix(self, tmp_path):
        cfg = small_config()
        trace_path = tmp_path / "trace.jsonl"
        tracer = JsonlTraceWriter(trace_path)
        live = LiveTelemetry()
        instr = Instrumentation(tracer=tracer, live=live)
        with pytest.raises(RuntimeError, match="synthetic scheduler crash"):
            Simulation(
                cfg, FailingScheduler(fail_at_call=40), instrumentation=instr
            ).run()
        # The engine closed the writer on the way out: every line must
        # parse, and the stream must end with run.abort.
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line
        ]
        assert events, "crashed run left an empty trace"
        assert events[0]["kind"] == "run.start"
        assert events[-1]["kind"] == "run.abort"
        assert events[-1]["error"] == "RuntimeError"
        assert "synthetic scheduler crash" in events[-1]["message"]
        slot_events = [e for e in events if e["kind"] == "slot"]
        assert len(slot_events) == 39  # every completed slot made it out

    def test_abort_pushes_final_snapshot(self, tmp_path):
        from repro.obs.live import SnapshotExporter

        cfg = small_config()
        live = LiveTelemetry(
            exporter=SnapshotExporter(tmp_path / "prom.txt", every_s=3600.0)
        )
        instr = Instrumentation(live=live)
        with pytest.raises(RuntimeError):
            Simulation(
                cfg, FailingScheduler(fail_at_call=40), instrumentation=instr
            ).run()
        snap = json.loads((tmp_path / "prom.json").read_text())
        assert snap["progress"]["runs_started"] == 1
        assert snap["progress"]["runs_finished"] == 0

    def test_uninstrumented_crash_unchanged(self):
        cfg = small_config()
        with pytest.raises(RuntimeError, match="synthetic scheduler crash"):
            Simulation(cfg, FailingScheduler(fail_at_call=40)).run()


class TestObserverEffect:
    def test_live_on_off_bit_identical_single_run(self):
        cfg = small_config()
        wl = generate_workload(cfg)
        plain = Simulation(cfg, DefaultScheduler(), wl).run()
        live = LiveTelemetry(rules=("p95(rebuffer_s) < 1e9",), watch_every=8)
        instr = Instrumentation(live=live)
        watched = Simulation(
            cfg, DefaultScheduler(), wl, instrumentation=instr
        ).run()
        for name in ("allocation_units", "delivered_kb", "rebuffering_s",
                     "energy_trans_mj", "energy_tail_mj", "buffer_s"):
            a, b = getattr(plain, name), getattr(watched, name)
            assert a.tobytes() == b.tobytes(), name
        assert np.array_equal(plain.completion_slot, watched.completion_slot)
