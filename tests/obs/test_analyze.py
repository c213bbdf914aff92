"""Tests for trace analysis and invariant checking.

Two families:

* **clean runs** — quickstart-config traces of RTMA and EMA must
  produce *zero* invariant violations (the simulator respects its own
  constraint system);
* **seeded fault injection** — corrupt one recorded grid cell at known
  coordinates (negative buffer, over-capacity allocation, a slot that
  busts the RTMA energy envelope, an EMA queue snapshot drifted off
  the Eq. 16 update) and assert the checker reports exactly that
  invariant at exactly those slot/user coordinates.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.baselines.default import DefaultScheduler
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.errors import ConfigurationError
from repro.obs.analyze import (
    CapacityChecker,
    EMAQueueChecker,
    NonNegativeBufferChecker,
    RTMAEnergyBudgetChecker,
    check_invariants,
    check_trace,
    iter_trace_events,
    main,
    timeline_from_result,
    timelines_from_events,
    timelines_from_trace,
)
from repro.obs.instrument import Instrumentation, use_instrumentation
from repro.obs.tracer import JsonlTraceWriter, RecordingTracer
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation


def small_config(**overrides) -> SimConfig:
    base = dict(
        n_users=5,
        n_slots=80,
        capacity_kbps=3 * 1024.0,
        video_size_range_kb=(5_000.0, 9_000.0),
        vbr_segments=8,
        buffer_capacity_s=45.0,
        seed=3,
    )
    base.update(overrides)
    return SimConfig(**base)


def traced_timeline(scheduler, cfg=None):
    """Run one scheduler traced in memory; return its RunTimeline."""
    cfg = cfg or small_config()
    tracer = RecordingTracer()
    with use_instrumentation(Instrumentation(tracer=tracer)):
        Simulation(cfg, scheduler).run()
    (timeline,) = timelines_from_events(tracer.events)
    return timeline


class TestTimelineReconstruction:
    def test_grids_match_in_memory_result(self, tmp_path):
        cfg = small_config()
        tracer = JsonlTraceWriter(tmp_path / "trace.jsonl")
        with use_instrumentation(Instrumentation(tracer=tracer)):
            result = Simulation(cfg, RTMAScheduler()).run()
        tracer.close()
        (tl,) = timelines_from_trace(tmp_path)

        assert tl.scheduler == "rtma"
        assert tl.n_users == cfg.n_users and tl.n_slots == cfg.n_slots
        # -inf threshold survives the JSON round-trip via the sanitiser.
        assert tl.params["sig_threshold_dbm"] == float("-inf")
        # Python's float repr round-trips, so the file holds every bit.
        expected = timeline_from_result(result)
        for got, want in ((tl.grids, expected.grids), (tl.totals, expected.totals)):
            assert got.keys() == want.keys()
            for key, array in want.items():
                assert got[key].dtype == array.dtype, key
                assert np.array_equal(got[key], array), key
                assert got[key].tobytes() == array.tobytes(), key

    def test_multi_run_segmentation_and_rebuffer_events(self):
        cfg = small_config()
        tracer = RecordingTracer()
        with use_instrumentation(Instrumentation(tracer=tracer)):
            for sched in (DefaultScheduler(), RTMAScheduler()):
                Simulation(cfg, sched).run()
        timelines = timelines_from_events(tracer.events)
        assert [tl.scheduler for tl in timelines] == ["default", "rtma"]
        for tl in timelines:
            assert tl.end_summary["delivered_total_kb"] > 0
            events = tl.rebuffer_events()
            # Events partition the positive rebuffering mass.
            total = sum(e.total_s for e in events)
            assert total == pytest.approx(float(tl.grids["rebuffering_s"].sum()))
            for e in events:
                assert 0 <= e.start_slot <= e.end_slot < tl.n_slots

    def test_rrc_residency_and_energy_split_consistent(self):
        tl = traced_timeline(RTMAScheduler())
        residency = tl.rrc_residency()
        assert sum(int(v.sum()) for v in residency.values()) == tl.n_slots * tl.n_users
        split = tl.energy_split_mj()
        assert split["tail_dch_mj"] + split["tail_fach_mj"] == pytest.approx(
            float(tl.grids["energy_tail_mj"].sum())
        )

    def test_gzip_and_magic_byte_sniffing(self, tmp_path):
        cfg = small_config(n_slots=30)
        path = tmp_path / "trace.jsonl.gz"
        tracer = JsonlTraceWriter(path)
        with use_instrumentation(Instrumentation(tracer=tracer)):
            Simulation(cfg, DefaultScheduler()).run()
        tracer.close()
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        (tl,) = timelines_from_trace(path)
        assert tl.n_slots == 30

        # A gz payload under a .jsonl name is detected by magic bytes,
        # and so is its column stream under the matching plain name.
        stream = tmp_path / "trace.columns.npy.gz"
        assert stream.read_bytes()[:2] == b"\x1f\x8b"
        renamed = tmp_path / "renamed" / "trace.jsonl"
        renamed.parent.mkdir()
        shutil.copy(path, renamed)
        shutil.copy(stream, renamed.parent / "trace.columns.npy")
        (tl2,) = timelines_from_trace(renamed.parent)
        assert tl2.n_slots == 30

    def test_non_finite_values_come_back_as_floats(self, tmp_path):
        # A legacy trace: no run.start, so runs split where the slot
        # counter resets.  The writer stores inf/-inf/nan as strings.
        inf, nan = float("inf"), float("nan")
        path = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(path)
        for slot, pc in ((0, [1.0, inf]), (1, [0.5, -inf]), (0, [nan, 3.0])):
            writer.emit(
                "slot",
                slot=slot,
                delivered_kb=inf if slot else 1.5,
                rebuffering_s=nan,
                users={
                    "phi": [slot, 2],
                    "buffer_s": [inf, -inf],
                    "sig_dbm": [nan, -80.0],
                    "link_units": [3, 4],
                    "active": [True, False],
                },
            )
            writer.emit("ema.queues", slot=slot + 1, pc_s=pc)
        writer.close()
        assert '"inf"' in path.read_text()

        first, second = timelines_from_trace(path)
        assert first.n_slots == 2 and second.n_slots == 1
        assert first.totals["delivered_kb"].tolist() == [1.5, inf]
        assert np.isnan(first.totals["rebuffering_s"]).all()
        assert first.grids["buffer_s"].tolist() == [[inf, -inf]] * 2
        assert np.isnan(first.grids["sig_dbm"][:, 0]).all()
        assert first.grids["phi"].dtype == np.int64
        assert first.grids["link_units"].dtype == np.int64
        assert first.grids["active"].dtype == bool
        assert first.grids["active"].tolist() == [[True, False]] * 2
        assert first.grids["buffer_s"].dtype == first.grids["sig_dbm"].dtype == float
        assert first.ema_queues.tolist() == [[1.0, inf], [0.5, -inf]]
        assert first.ema_queue_slots.tolist() == [1, 2]
        assert np.isnan(second.ema_queues[0, 0])
        assert second.ema_queues[0, 1] == 3.0
        assert second.ema_queue_slots.tolist() == [1]

    @pytest.mark.parametrize("name", ["trace.jsonl", "trace.jsonl.gz"])
    def test_missing_or_truncated_column_stream_is_named(self, tmp_path, name):
        path = tmp_path / name
        tracer = JsonlTraceWriter(path)
        with use_instrumentation(Instrumentation(tracer=tracer)):
            for sched in (DefaultScheduler(), RTMAScheduler()):
                Simulation(small_config(), sched).run()
        tracer.close()
        stream = tracer.columns_path
        assert stream.name == name.replace("jsonl", "columns.npy")
        data = stream.read_bytes()
        assert len(timelines_from_trace(path)) == 2

        stream.write_bytes(data[: len(data) - 100])
        with pytest.raises(ConfigurationError, match=f"{stream.name}: truncated"):
            timelines_from_trace(path)
        stream.unlink()
        with pytest.raises(ConfigurationError, match=f"{stream.name}: cannot open"):
            timelines_from_trace(path)
        # The events alone cannot stand in for the stream.
        with pytest.raises(ConfigurationError, match="column stream"):
            timelines_from_events(iter_trace_events(path))

    def test_corrupt_line_is_located(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "slot", "slot": 0}\nnot json\n')
        with pytest.raises(ConfigurationError, match="trace.jsonl:2"):
            timelines_from_trace(path)

    def test_missing_trace_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no trace"):
            timelines_from_trace(tmp_path)


class TestCleanRuns:
    """The simulator must not violate its own paper-derived invariants."""

    def test_quickstart_trace_is_violation_free(self, traced_quickstart_dir):
        reports = check_trace(traced_quickstart_dir)
        assert [tl.scheduler for tl, _ in reports] == ["default", "rtma", "ema"]
        for tl, report in reports:
            assert report.ok, report.render()
        # The scheduler-specific invariants actually ran (not skipped).
        by_name = {tl.scheduler: rep for tl, rep in reports}
        assert "rtma.energy_budget" in by_name["rtma"].checked
        assert "ema.virtual_queues" in by_name["ema"].checked

    def test_rtma_with_real_energy_budget_is_clean(self):
        tl = traced_timeline(RTMAScheduler(energy_budget_mj_per_slot=1000.0))
        assert np.isfinite(tl.params["sig_threshold_dbm"])
        report = check_invariants(tl)
        assert "rtma.energy_budget" in report.checked
        assert report.ok, report.render()

    def test_ema_with_floor_is_clean(self):
        tl = traced_timeline(
            EMAScheduler(5, v_param=0.5, queue_floor_s=-30.0)
        )
        assert tl.params["queue_floor_s"] == -30.0
        report = check_invariants(tl)
        assert "ema.virtual_queues" in report.checked
        assert report.ok, report.render()


class TestFaultInjection:
    """Corrupted grids must be flagged at the corrupted coordinates."""

    def test_negative_buffer_detected(self):
        tl = traced_timeline(DefaultScheduler())
        tl.grids["buffer_s"][17, 2] = -0.25
        violations = NonNegativeBufferChecker().check(tl)
        assert [(v.slot, v.user) for v in violations] == [(17, 2)]
        assert violations[0].expected == 0.0
        assert violations[0].actual == pytest.approx(-0.25)

    def test_over_capacity_allocation_detected(self):
        tl = traced_timeline(DefaultScheduler())
        tl.grids["phi"][9, 1] = tl.grids["link_units"][9, 1] + 7
        violations = CapacityChecker().check(tl)
        link = [v for v in violations if "per-link" in v.message]
        assert [(v.slot, v.user) for v in link] == [(9, 1)]
        assert link[0].actual == link[0].expected + 7

    def test_bs_budget_violation_detected(self):
        tl = traced_timeline(DefaultScheduler())
        slot = 11
        tl.grids["phi"][slot, 0] += int(tl.totals["unit_budget"][slot]) + 1
        violations = CapacityChecker().check(tl)
        budget = [v for v in violations if "unit budget" in v.message]
        assert budget and budget[0].slot == slot and budget[0].user is None

    def test_phi_energy_violation_detected(self):
        tl = traced_timeline(RTMAScheduler(energy_budget_mj_per_slot=1000.0))
        tl.grids["energy_trans_mj"][23, 3] = 2 * 1000.0 + 50.0
        violations = RTMAEnergyBudgetChecker().check(tl)
        assert [(v.slot, v.user) for v in violations] == [(23, 3)]
        assert violations[0].expected == pytest.approx(2000.0)
        assert violations[0].actual > 2000.0

    def test_sub_threshold_scheduling_detected(self):
        tl = traced_timeline(RTMAScheduler(energy_budget_mj_per_slot=1000.0))
        scheduled = np.argwhere(tl.grids["phi"] > 0)
        slot, user = map(int, scheduled[len(scheduled) // 2])
        tl.grids["sig_dbm"][slot, user] = tl.params["sig_threshold_dbm"] - 5.0
        violations = RTMAEnergyBudgetChecker().check(tl)
        assert (slot, user) in [(v.slot, v.user) for v in violations]
        assert all("threshold" in v.message for v in violations)

    def test_ema_queue_drift_detected(self):
        tl = traced_timeline(EMAScheduler(5, v_param=0.5))
        j = tl.ema_queues.shape[0] // 2
        slot = int(tl.ema_queue_slots[j])
        tl.ema_queues[j, 4] += 5.0
        violations = EMAQueueChecker().check(tl)
        coords = [(v.slot, v.user) for v in violations]
        # The tampered snapshot breaks Eq. (16) at slot j (observed
        # value too high) and at slot j+1 (expected recomputed from
        # the tampered value) for the same user.
        assert (slot, 4) in coords
        assert all(u in (4, None) for _, u in coords)

    def test_skip_reasons_when_grids_absent(self):
        tl = traced_timeline(DefaultScheduler())
        report = check_invariants(tl)
        assert report.skipped["rtma.energy_budget"]
        assert report.skipped["ema.virtual_queues"]
        tl.grids.clear()
        report = check_invariants(tl)
        assert set(report.skipped) >= {"buffer.non_negative", "allocation.capacity"}


class TestChurnEMAQueues:
    """A churn run's EMA queues are session-keyed like its grids, so the
    Eq. (16) queue checker runs on it, faults and all."""

    @staticmethod
    def _timeline():
        from repro.faults import CapacityFault, FaultPlan, SignalBlackout

        plan = FaultPlan(
            signal=(SignalBlackout(start_slot=40, n_slots=30),),
            capacity=(CapacityFault(start_slot=150, n_slots=20, factor=0.0),),
        )
        cfg = small_config(
            n_users=16,
            n_slots=300,
            capacity_kbps=4_000.0,
            video_size_range_kb=(3_000.0, 8_000.0),
            buffer_capacity_s=40.0,
            arrival_process="poisson",
            arrival_rate_per_slot=0.4,
            admission="capacity-threshold",
            admission_max_active=4,
            faults=plan,
        )
        return traced_timeline(EMAScheduler(16, v_param=0.05, tau_s=cfg.tau_s), cfg)

    def test_churn_queues_are_checked_clean(self):
        tl = self._timeline()
        assert tl.sessions and tl.faults is not None
        assert tl.ema_queues.shape == (tl.n_slots, tl.n_users)
        report = check_invariants(tl)
        assert {"ema.virtual_queues", "session.conservation"} <= set(report.checked)
        assert report.ok, report.render()

    def test_queue_tamper_is_located(self):
        tl = self._timeline()
        active = tl.grids["active"]
        # Cells of established sessions: active now and in an earlier slot.
        established = active.copy()
        established[1:] &= np.cumsum(active, axis=0)[:-1] > 0
        established[0] = False
        cells = np.argwhere(established)
        slot, user = (int(x) for x in cells[len(cells) // 2])
        (j,) = np.flatnonzero(tl.ema_queue_slots == slot)
        tl.ema_queues[j, user] += tl.tau_s
        violations = EMAQueueChecker().check(tl)
        coords = [(v.slot, v.user) for v in violations]
        assert (slot, user) in coords
        assert all(u in (user, None) for _, u in coords)


class TestFaultPlaneChecker:
    """fault.injection verifies the trace honours its declared plan."""

    PLAN = None  # built lazily; FaultPlan import kept local to the class

    @classmethod
    def _plan(cls):
        from repro.faults import CapacityFault, FaultPlan, FlowStall, SignalBlackout

        if cls.PLAN is None:
            cls.PLAN = FaultPlan(
                signal=(SignalBlackout(start_slot=10, n_slots=10),),
                capacity=(CapacityFault(start_slot=30, n_slots=10),),
                stalls=(FlowStall(start_slot=50, n_slots=10, users=(1, 3)),),
            )
        return cls.PLAN

    def _faulted_timeline(self):
        return traced_timeline(
            DefaultScheduler(), cfg=small_config(faults=self._plan())
        )

    def test_faulted_run_is_clean(self):
        tl = self._faulted_timeline()
        assert tl.faults == self._plan().spec()
        assert len(tl.fault_windows) == 3
        report = check_invariants(tl)
        assert "fault.injection" in report.checked
        assert report.ok, report.render()

    def test_healthy_run_skips_checker(self):
        tl = traced_timeline(DefaultScheduler())
        assert tl.faults is None
        report = check_invariants(tl)
        assert "no fault plan" in report.skipped["fault.injection"]

    def test_delivery_to_stalled_flow_detected(self):
        tl = self._faulted_timeline()
        tl.grids["delivered_kb"][55, 3] = 120.0
        report = check_invariants(tl)
        coords = [
            (v.slot, v.user)
            for v in report.violations
            if v.invariant == "fault.injection"
        ]
        assert (55, 3) in coords

    def test_signal_grid_off_blackout_level_detected(self):
        tl = self._faulted_timeline()
        tl.grids["sig_dbm"][12, 0] += 40.0
        report = check_invariants(tl)
        coords = [
            (v.slot, v.user)
            for v in report.violations
            if v.invariant == "fault.injection"
        ]
        assert (12, 0) in coords

    def test_budget_in_outage_window_detected(self):
        tl = self._faulted_timeline()
        tl.totals["unit_budget"][33] = 50.0
        report = check_invariants(tl)
        slots = [
            v.slot
            for v in report.violations
            if v.invariant == "fault.injection"
        ]
        assert 33 in slots


class TestAnalyzeCli:
    def test_clean_run_exits_zero(self, traced_quickstart_dir, capsys):
        assert main([str(traced_quickstart_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "energy split" in out

    def test_corrupted_trace_exits_nonzero(self, traced_quickstart_dir, tmp_path, capsys):
        import json

        # Drive the 100th slot's buffer negative for user 5: in the
        # first run's buffer_s column of the stream ...
        columns = tmp_path / "columns"
        columns.mkdir()
        for name in ("trace.jsonl", "trace.columns.npy"):
            shutil.copy(traced_quickstart_dir / name, columns / name)
        with (columns / "trace.jsonl").open() as f:
            record = json.loads(f.readline())["columns"]
        with (columns / "trace.columns.npy").open("r+b") as f:
            f.seek(record["offset"])
            for name in record["names"]:
                grid = np.lib.format.read_array(f, allow_pickle=False)
                if name == "buffer_s":
                    break
            f.seek((99 * grid.shape[1] + 5) * grid.itemsize - grid.nbytes, 1)
            f.write(np.float64(-3.0).tobytes())
        assert main([str(columns)]) == 1
        assert "slot 99, user 5: negative buffer occupancy" in capsys.readouterr().out

        # ... and in the slot event's payload of the inline export.
        inline = tmp_path / "inline"
        inline.mkdir()
        assert main(["--export-jsonl", str(inline / "trace.jsonl"), str(traced_quickstart_dir)]) == 0
        lines = (inline / "trace.jsonl").read_text().splitlines()
        n_slot = 0
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event["kind"] == "slot":
                n_slot += 1
                if n_slot == 100:
                    event["users"]["buffer_s"][5] = -3.0
                    lines[i] = json.dumps(event)
        (inline / "trace.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([str(inline)]) == 1
        assert "slot 99, user 5: negative buffer occupancy" in capsys.readouterr().out
