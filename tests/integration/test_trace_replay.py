"""Traces written from finished results.

Each run's trace is derived from its :class:`SimulationResult` plus the
few events its grids lack, so how runs are grouped cannot show in it:

* a traced ragged stack writes the trace of the same tasks run one by
  one, and a pooled batch the trace of a serial one, byte for byte;
* a churn run with a fault plan keeps every ``session.*``,
  ``fault.window`` and ``ema.queues`` event in its slot, and its slot
  totals sum in the loop's row order, which is session order;
* each slot event's totals are its grids' row reductions, bit for bit;
* an in-memory result replays into a timeline whose Eq. (1)-(2) and
  RTMA checks run, and catch a budget overrun seeded into one run;
* a trace file keeps its per-user columns in a ``.npy`` stream beside
  it: two writes of the same runs give the same bytes, the
  ``--export-jsonl`` export equals what a file-object writer puts
  inline, and the timelines read back equal the inline trace's and the
  in-memory result's, in keys, dtypes and bytes.
"""

import io
import json

import numpy as np
import pytest

from repro.baselines import DefaultScheduler
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.faults import CapacityFault, FaultPlan, SignalBlackout
from repro.obs import Instrumentation, JsonlTraceWriter
from repro.obs.analyze import (
    check_invariants,
    export_jsonl,
    timeline_from_result,
    timelines_from_events,
    timelines_from_trace,
)
from repro.obs.tracer import RecordingTracer
from repro.sim import RunExecutor, RunTask, SimConfig, map_runs, use_executor
from repro.sim.batch import BatchPlan, run_batch
from repro.sim.engine import Simulation, trace_events, write_traces


def _cfg(n_users, **overrides):
    base = dict(
        n_users=n_users,
        n_slots=90,
        capacity_kbps=1_500.0 + 150.0 * n_users,
        video_size_range_kb=(2_000.0, 6_000.0),
        buffer_capacity_s=40.0,
        seed=n_users,
    )
    base.update(overrides)
    return SimConfig(**base)


def _ragged_tasks():
    """Default, RTMA and EMA at 6 and 9 users: one ragged stack."""
    tasks = []
    for n in (6, 9):
        cfg = _cfg(n)
        tasks += [
            RunTask(cfg, DefaultScheduler()),
            RunTask(cfg, RTMAScheduler(sig_threshold_dbm=-95.0)),
            RunTask(cfg, EMAScheduler(n, v_param=0.5, tau_s=cfg.tau_s)),
        ]
    return tasks


def _traced(executor, tasks):
    """``tasks`` on ``executor`` under a trace writer: (trace text, bundle)."""
    buf = io.StringIO()
    instr = Instrumentation(tracer=JsonlTraceWriter(buf))
    with use_executor(executor):
        map_runs(tasks, instrumentation=instr)
    return buf.getvalue(), instr


def _events(text):
    return [json.loads(line) for line in text.splitlines()]


class TestGroupingIsInvisible:
    def test_ragged_stack_trace_equals_run_by_run(self):
        stacked, instr = _traced(RunExecutor(), _ragged_tasks())
        alone, instr_alone = _traced(RunExecutor(batch_size=1), _ragged_tasks())
        assert instr.spans.count(("run",)) == 1
        assert instr_alone.spans.count(("run",)) == 6
        assert stacked == alone
        events = _events(stacked)
        assert [e["scheduler"] for e in events if e["kind"] == "run.start"] == [
            "default", "rtma", "ema"
        ] * 2
        assert sum(e["kind"] == "ema.queues" for e in events) == 2 * 90
        for tl in timelines_from_events(events):
            report = check_invariants(tl)
            assert report.ok, report.render()
            assert "allocation.capacity" in report.checked

    def test_pooled_trace_equals_serial(self):
        serial, _ = _traced(RunExecutor(), _ragged_tasks())
        pooled, _ = _traced(RunExecutor(jobs=2), _ragged_tasks())
        assert pooled == serial


def _churn_cfg():
    """A churn run with a signal blackout and a capacity outage."""
    plan = FaultPlan(
        signal=(SignalBlackout(start_slot=40, n_slots=30),),
        capacity=(CapacityFault(start_slot=150, n_slots=20, factor=0.0),),
    )
    return SimConfig(
        n_users=16,
        n_slots=300,
        capacity_kbps=4_000.0,
        video_size_range_kb=(3_000.0, 8_000.0),
        buffer_capacity_s=40.0,
        seed=3,
        arrival_process="poisson",
        arrival_rate_per_slot=0.4,
        admission="capacity-threshold",
        admission_max_active=4,
        faults=plan,
    )


class TestChurnTraceKeepsItsEvents:
    def test_sessions_faults_and_queues_survive(self):
        cfg = _churn_cfg()
        buf = io.StringIO()
        instr = Instrumentation(tracer=JsonlTraceWriter(buf))
        sched = EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s)
        res = Simulation(cfg, sched, instrumentation=instr).run()
        events = _events(buf.getvalue())
        kinds = [e["kind"] for e in events]
        assert kinds.count("fault.window") == 2
        assert kinds.count("session.start") == int(res.admitted.sum())
        assert kinds.count("session.reject") == int(res.rejected.sum())
        assert kinds.count("session.end") == int((res.departure_slot >= 0).sum())
        assert kinds.count("ema.queues") == kinds.count("slot") == cfg.n_slots
        # Admissions and each slot's queue snapshot precede its slot
        # event; retirements follow it.
        slot = -1
        for e in events:
            if e["kind"] == "slot":
                slot = e["slot"]
            elif e["kind"] in ("session.start", "session.reject", "ema.queues"):
                assert e["slot"] == slot + 1
            elif e["kind"] == "session.end":
                assert e["slot"] == slot
        (tl,) = timelines_from_events(events)
        report = check_invariants(tl)
        assert report.ok, report.render()
        assert "session.conservation" in report.checked

    def test_slot_totals_sum_in_row_order(self, monkeypatch):
        # The loop sums each slot's deliveries over its rows, which are
        # the run's sessions, so the trace's session-order totals are
        # the loop's sums bit for bit.
        from repro.net.gateway import Gateway

        step, row_sums = Gateway.step, []

        def spy(self, *args, **kwargs):
            obs, phi, sent_kb = step(self, *args, **kwargs)
            row_sums.append(float(sent_kb.sum()))
            return obs, phi, sent_kb

        monkeypatch.setattr(Gateway, "step", spy)
        cfg = SimConfig(
            n_users=40,
            n_slots=300,
            capacity_kbps=6_000.0,
            video_size_range_kb=(300.0, 2_000.0),
            buffer_capacity_s=40.0,
            seed=0,
            arrival_process="poisson",
            arrival_rate_per_slot=0.5,
            admission="accept-all",
        )
        buf = io.StringIO()
        instr = Instrumentation(tracer=JsonlTraceWriter(buf))
        Simulation(cfg, DefaultScheduler(), instrumentation=instr).run()
        traced = [e["delivered_kb"] for e in _events(buf.getvalue()) if e["kind"] == "slot"]
        assert traced == row_sums


class TestSlotTotalsAreRowReductions:
    """The writer reduces a run's grids a run at a time; each slot's
    totals must still be the row-by-row reductions, exactly."""

    @staticmethod
    def _check(res, events):
        slots = [e for e in events if e["kind"] == "slot"]
        assert [e["slot"] for e in slots] == list(range(res.config.n_slots))
        grids = {
            "rebuffering_s": res.rebuffering_s,
            "energy_trans_mj": res.energy_trans_mj,
            "energy_tail_mj": res.energy_tail_mj,
            "delivered_kb": res.delivered_kb,
        }
        for s, e in enumerate(slots):
            assert e["active_users"] == int(res.active[s].sum())
            assert e["tx_users"] == int((res.delivered_kb[s] > 0.0).sum())
            assert e["allocated_units"] == int(res.allocation_units[s].sum())
            assert e["mean_buffer_s"] == float(res.buffer_s[s].mean())
            for key, grid in grids.items():
                assert e[key] == float(grid[s].sum()), (s, key)

    def test_ragged_stack(self):
        tasks = [
            RunTask(_cfg(20), DefaultScheduler()),
            RunTask(_cfg(30), RTMAScheduler(sig_threshold_dbm=-95.0)),
            RunTask(_cfg(40), EMAScheduler(40, v_param=0.5)),
        ]
        buf = io.StringIO()
        instr = Instrumentation(tracer=JsonlTraceWriter(buf))
        results = run_batch(tasks, instrumentation=instr)
        assert instr.spans.count(("run",)) == 1
        events = _events(buf.getvalue())
        starts = [i for i, e in enumerate(events) if e["kind"] == "run.start"]
        for res, lo, hi in zip(results, starts, starts[1:] + [len(events)]):
            self._check(res, events[lo:hi])

    def test_churn_with_faults(self):
        plan = FaultPlan(
            signal=(SignalBlackout(start_slot=40, n_slots=30),),
            capacity=(CapacityFault(start_slot=150, n_slots=20, factor=0.0),),
        )
        cfg = SimConfig(
            n_users=24,
            n_slots=240,
            capacity_kbps=4_000.0,
            video_size_range_kb=(1_000.0, 5_000.0),
            buffer_capacity_s=40.0,
            seed=4,
            arrival_process="poisson",
            arrival_rate_per_slot=0.5,
            admission="accept-all",
            faults=plan,
        )
        buf = io.StringIO()
        instr = Instrumentation(tracer=JsonlTraceWriter(buf))
        res = Simulation(cfg, DefaultScheduler(), instrumentation=instr).run()
        self._check(res, _events(buf.getvalue()))


class TestInMemoryTimeline:
    @staticmethod
    def _stack():
        tasks = [
            RunTask(_cfg(6, capacity_kbps=cap), RTMAScheduler(sig_threshold_dbm=-95.0))
            for cap in (1_200.0, 2_400.0)
        ]
        return run_batch(tasks)

    def test_capacity_and_rtma_checks_run(self):
        for res in self._stack():
            report = check_invariants(
                timeline_from_result(res, params={"sig_threshold_dbm": -95.0})
            )
            assert report.ok, report.render()
            assert "allocation.capacity" in report.checked
            assert "rtma.energy_budget" in report.checked

    def test_budget_overrun_in_one_run_is_caught(self):
        first, second = self._stack()
        tl = timeline_from_result(second)
        budget = tl.totals["unit_budget"]
        used = second.allocation_units.sum(axis=1)
        slot = int(np.argmax(used))
        # One unit over the run's Eq. (2) budget at one slot.
        second.allocation_units[slot, 0] += int(budget[slot] - used[slot]) + 1
        report = check_invariants(timeline_from_result(second))
        budget_hits = [
            v for v in report.violations if "BS unit budget" in v.message
        ]
        assert [(v.slot, v.actual - v.expected) for v in budget_hits] == [(slot, 1.0)]
        assert check_invariants(timeline_from_result(first)).ok


@pytest.mark.parametrize("stacked", [False, True])
def test_aborted_run_keeps_its_trace_prefix(stacked):
    class Crashing(DefaultScheduler):
        def allocate(self, obs):
            if obs.slot == 70:
                raise RuntimeError("scheduler crash")
            return super().allocate(obs)

    buf = io.StringIO()
    instr = Instrumentation(tracer=JsonlTraceWriter(buf))
    tasks = [RunTask(_cfg(6), DefaultScheduler()), RunTask(_cfg(6), Crashing())]
    with pytest.raises(RuntimeError, match="scheduler crash"):
        for group in [tasks] if stacked else [[t] for t in tasks]:
            run_batch(group, instrumentation=instr)
    events = _events(buf.getvalue())
    assert events[-1]["kind"] == "run.abort" and events[-1]["slot"] == 70
    starts = [i for i, e in enumerate(events) if e["kind"] == "run.start"]
    assert len(starts) == 2
    # The crashed run keeps its 70 completed slots.
    crashed = [e for e in events[starts[-1] :] if e["kind"] == "slot"]
    assert [e["slot"] for e in crashed] == list(range(70))


def _stack_tasks():
    """A ragged 20/30/40-user Default/RTMA/EMA stack, the shape of
    fig05's comparison phase."""
    return [
        RunTask(_cfg(20), DefaultScheduler()),
        RunTask(_cfg(30), RTMAScheduler(sig_threshold_dbm=-95.0)),
        RunTask(_cfg(40), EMAScheduler(40, v_param=0.5)),
    ]


def _recorded(tasks):
    """``tasks`` as one loop: (results, run logs)."""
    plan = BatchPlan(tasks)
    results = plan.run(record=True)
    return results, plan.run_logs


def _write(target, results, logs):
    """The runs' traces through a writer on ``target``; the writer."""
    tracer = JsonlTraceWriter(target)
    write_traces(Instrumentation(tracer=tracer), results, logs)
    tracer.close()
    return tracer


def _assert_same_timelines(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("scheduler", "n_users", "n_slots", "params", "sessions",
                      "fault_windows", "end_summary"):
            assert getattr(a, field) == getattr(b, field), field
        for x, y in ((a.grids, b.grids), (a.totals, b.totals)):
            assert x.keys() == y.keys()
            for key in y:
                assert x[key].dtype == y[key].dtype, key
                assert x[key].shape == y[key].shape, key
                assert x[key].tobytes() == y[key].tobytes(), key
        for key in ("ema_queue_slots", "ema_queues"):
            x, y = getattr(a, key), getattr(b, key)
            assert (x is None) == (y is None), key
            if x is not None:
                assert x.tobytes() == y.tobytes(), key


@pytest.fixture(scope="module")
def recorded_runs():
    return {
        "stack": _recorded(_stack_tasks()),
        "churn": _recorded([RunTask(_churn_cfg(), EMAScheduler(16, v_param=0.05))]),
    }


class TestColumnStream:
    @pytest.mark.parametrize("case", ["stack", "churn"])
    @pytest.mark.parametrize("name", ["trace.jsonl", "trace.jsonl.gz"])
    def test_export_equals_inline_writer(self, recorded_runs, tmp_path, case, name):
        results, logs = recorded_runs[case]
        buf = io.StringIO()
        _write(buf, results, logs)
        tracer = _write(tmp_path / name, results, logs)
        assert tracer.columns_path.stat().st_size > 0
        lines = buf.getvalue().splitlines()
        assert all("users" in e for e in map(json.loads, lines) if e["kind"] == "slot")
        assert export_jsonl(tmp_path, tmp_path / "export.jsonl") == len(lines)
        assert (tmp_path / "export.jsonl").read_text() == buf.getvalue()
        # An inline trace exports unchanged.
        assert export_jsonl(tmp_path / "export.jsonl", tmp_path / "again.jsonl") == len(lines)
        assert (tmp_path / "again.jsonl").read_text() == buf.getvalue()

    @pytest.mark.parametrize("name", ["trace.jsonl", "trace.jsonl.gz"])
    def test_two_writes_give_the_same_bytes(self, recorded_runs, tmp_path, name):
        results, logs = recorded_runs["stack"]
        first = _write(tmp_path / "a" / name, results, logs)
        second = _write(tmp_path / "b" / name, results, logs)
        for x, y in ((first.path, second.path), (first.columns_path, second.columns_path)):
            assert x.read_bytes() == y.read_bytes()
        # Opening a writer on the path replaces the stale stream.
        single = _write(tmp_path / "c" / name, results[:1], logs[:1])
        _write(tmp_path / "a" / name, results[:1], logs[:1])
        assert first.columns_path.read_bytes() == single.columns_path.read_bytes()
        JsonlTraceWriter(tmp_path / "a" / name).close()
        assert not first.columns_path.exists()

    @pytest.mark.parametrize("case", ["stack", "churn"])
    def test_timelines_agree(self, recorded_runs, tmp_path, case):
        results, logs = recorded_runs[case]
        _write(tmp_path / "trace.jsonl", results, logs)
        buf = io.StringIO()
        _write(buf, results, logs)
        from_file = timelines_from_trace(tmp_path)
        inline = timelines_from_events(json.loads(line) for line in buf.getvalue().splitlines())
        _assert_same_timelines(from_file, inline)
        # An in-memory result's columns give the timeline its inline
        # replay gives.
        for res in results:
            recording = RecordingTracer()
            recording.write_run(*trace_events(res))
            (replayed,) = timelines_from_events(recording.events)
            _assert_same_timelines([timeline_from_result(res)], [replayed])

    def test_aborted_stack_prefix(self, tmp_path):
        class Crashing(DefaultScheduler):
            def allocate(self, obs):
                if obs.slot == 70:
                    raise RuntimeError("scheduler crash")
                return super().allocate(obs)

        def run(target):
            tracer = JsonlTraceWriter(target)
            tasks = [RunTask(_cfg(6), DefaultScheduler()), RunTask(_cfg(9), Crashing())]
            with pytest.raises(RuntimeError, match="scheduler crash"):
                run_batch(tasks, instrumentation=Instrumentation(tracer=tracer))
            return tracer

        buf = io.StringIO()
        run(buf)
        run(tmp_path / "trace.jsonl")
        export_jsonl(tmp_path, tmp_path / "export.jsonl")
        assert (tmp_path / "export.jsonl").read_text() == buf.getvalue()
        from_file = timelines_from_trace(tmp_path)
        assert [tl.grids["phi"].shape for tl in from_file] == [(70, 6), (70, 9)]
        inline = timelines_from_events(json.loads(line) for line in buf.getvalue().splitlines())
        _assert_same_timelines(from_file, inline)
