"""Live-telemetry observer effect: watching a run must not change it.

Every scheduler x seed combination runs twice — bare, and under a
:class:`~repro.obs.live.LiveTelemetry` with active SLO rules and a
tight ``watch_every`` — and every result grid must match
byte-for-byte.  A companion test pins the watchdog's behaviour on a
deliberately budget-violating workload: the expected rules fire,
exactly once per violating run, and nothing else does.  A watched
ragged stack is watched as its runs are one by one: same results, same
per-run registries, and the same trace with every ``slo.*`` event in
its place, in process and across a pool.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import (
    DefaultScheduler,
    EStreamerScheduler,
    OnOffScheduler,
    SalsaScheduler,
    ThrottlingScheduler,
)
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.obs import Instrumentation
from repro.obs.live import LiveTelemetry
from repro.obs.tracer import RecordingTracer
from repro.sim.batch import BatchPlan
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.executor import RunExecutor, RunTask
from repro.sim.workload import generate_workload

RESULT_ARRAYS = (
    "allocation_units",
    "delivered_kb",
    "rebuffering_s",
    "energy_trans_mj",
    "energy_tail_mj",
    "buffer_s",
    "need_kb",
    "active",
    "completion_slot",
    "arrival_slot",
)

SCHEDULERS = {
    "rtma": lambda cfg: RTMAScheduler(sig_threshold_dbm=-95.0),
    "ema": lambda cfg: EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s),
    "default": lambda cfg: DefaultScheduler(),
    "on-off": lambda cfg: OnOffScheduler(),
    "throttling": lambda cfg: ThrottlingScheduler(),
    "estreamer": lambda cfg: EStreamerScheduler(),
    "salsa": lambda cfg: SalsaScheduler(),
}


class TestLiveObserverEffect:
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("seed", [1, 23])
    def test_live_on_off_bit_identical(self, sched_name, seed):
        cfg = SimConfig(n_users=6, n_slots=200, seed=seed)
        wl = generate_workload(cfg)
        make = SCHEDULERS[sched_name]

        bare = Simulation(cfg, make(cfg), wl).run()

        live = LiveTelemetry(
            rules=(
                "p95(rebuffer_s) < 1e12",  # never fires; evaluation still runs
                "mean(slot_energy_mj) >= 0",
            ),
            watch_every=8,
        )
        instr = Instrumentation(live=live)
        watched = Simulation(cfg, make(cfg), wl, instrumentation=instr).run()

        for name in RESULT_ARRAYS:
            assert (
                getattr(bare, name).tobytes() == getattr(watched, name).tobytes()
            ), f"{name} differs with live telemetry attached ({sched_name})"
        assert live.total_slots == cfg.n_slots
        assert live.snapshot()["n_alerts"] == 0


class TestWatchdogOnViolatingWorkload:
    def test_expected_alerts_fire_exactly(self):
        """A workload that provably violates a tight per-slot energy
        bound (and rebuffers) fires exactly the expected rules."""
        cfg = SimConfig(n_users=8, n_slots=300, seed=3)
        wl = generate_workload(cfg)

        # Establish ground truth from an unwatched run.
        ref = Simulation(cfg, DefaultScheduler(), wl).run()
        per_slot_energy = (ref.energy_trans_mj + ref.energy_tail_mj).sum(axis=1)
        phi = float(per_slot_energy.max()) * 0.5  # deliberately violated
        assert (per_slot_energy > phi).any()
        total_rebuffer = float(ref.rebuffering_s.sum())

        rules = ["max(slot_energy_mj) <= %r" % phi]
        if total_rebuffer > 0:
            rules.append("count(rebuffer_s) < 1e18")  # holds: no alert
        live = LiveTelemetry(rules=tuple(rules), watch_every=8)
        instr = Instrumentation(live=live)
        watched = Simulation(cfg, DefaultScheduler(), wl, instrumentation=instr).run()

        # Still bit-identical even while alerting.
        assert (
            watched.energy_trans_mj.tobytes() == ref.energy_trans_mj.tobytes()
        )

        snap = live.snapshot()
        fired = {a["key"] for a in snap["alerts"]}
        assert fired == {"max(slot_energy_mj)"}
        # Edge-triggered: one run, one violating rule -> exactly one alert.
        assert snap["n_alerts"] == 1
        assert (
            instr.metrics.counter("slo.alerts").value == 1
        )

    def test_second_violating_run_fires_again(self):
        cfg = SimConfig(n_users=6, n_slots=150, seed=9)
        wl = generate_workload(cfg)
        ref = Simulation(cfg, DefaultScheduler(), wl).run()
        phi = float(
            (ref.energy_trans_mj + ref.energy_tail_mj).sum(axis=1).max()
        ) * 0.5

        live = LiveTelemetry(
            rules=(f"max(slot_energy_mj) <= {phi}",), watch_every=8
        )
        instr = Instrumentation(live=live)
        for _ in range(3):
            Simulation(cfg, DefaultScheduler(), wl, instrumentation=instr).run()
        # One alert per violating run: the edge trigger re-arms at run
        # boundaries, the serial/pooled alert-count contract.
        assert live.snapshot()["n_alerts"] == 3


class TestSloCountersAcrossThePool:
    def test_warn_alerts_merge_identically_at_jobs_1_and_2(self):
        """Each run's slo.* counters travel home in its own registry: a
        pooled batch's merged registry equals an in-process one."""
        cfg = SimConfig(n_users=6, n_slots=120)
        snapshots = []
        for jobs in (1, 2):
            tasks = [
                RunTask(cfg.with_(seed=seed), make(cfg))
                for seed in range(4)
                for make in (SCHEDULERS["default"], SCHEDULERS["ema"])
            ]
            live = LiveTelemetry(rules=("max(slot_energy_mj) <= 500",), watch_every=16)
            instr = Instrumentation(live=live)
            RunExecutor(jobs=jobs).map_runs(tasks, instrumentation=instr)
            snapshots.append(json.dumps(instr.metrics.snapshot(), sort_keys=True))
        assert snapshots[0] == snapshots[1]
        counters = json.loads(snapshots[0])["counters"]
        assert counters["slo.alerts"] == counters["slo.alerts.max(slot_energy_mj)"] == 8.0


def _ragged_stack():
    """Default, RTMA and EMA at 20, 30 and 40 users: one ragged stack."""
    tasks = []
    for n in (20, 30, 40):
        cfg = SimConfig(n_users=n, n_slots=160, seed=n)
        tasks += [
            RunTask(cfg, DefaultScheduler()),
            RunTask(cfg, RTMAScheduler(sig_threshold_dbm=-95.0)),
            RunTask(cfg, EMAScheduler(n, v_param=0.05, tau_s=cfg.tau_s)),
        ]
    return tasks


#: Warn rules that fire on some runs of the stack and hold on others;
#: the pNN rules make the P² sketches (one added on delivered_kb) count.
STACK_RULES = (
    "max(slot_energy_mj) <= 18000",
    "p95(rebuffer_s) < 4",
    "p50(delivered_kb) < 18000",
)


def _text(obj):
    return json.dumps(obj, sort_keys=True, default=lambda a: a.tolist())


def _assert_same(got, want):
    """Element by element, so a failure diffs one event, not the trace."""
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert _text(a) == _text(b), f"item {i}"


class TestWatchedStacks:
    """A watched stack is watched as its runs would be one by one."""

    def _watched(self, executor, watch_every):
        live = LiveTelemetry(rules=STACK_RULES, watch_every=watch_every)
        instr = Instrumentation(tracer=RecordingTracer(), live=live)
        results = executor.map_runs(_ragged_stack(), instrumentation=instr)
        return results, instr, live

    @pytest.mark.parametrize("watch_every", [8, 16])
    def test_stack_watches_like_lone_runs(self, watch_every):
        bare = RunExecutor().map_runs(_ragged_stack())
        _, alone, alone_live = self._watched(RunExecutor(batch_size=1), watch_every)
        metrics = json.dumps(alone.metrics.snapshot(), sort_keys=True)
        kinds = [e["kind"] for e in alone.tracer.events]
        assert kinds.count("slo.alert") > 0 and kinds.count("slo.clear") > 0
        for jobs in (1, 2):
            results, instr, live = self._watched(RunExecutor(jobs=jobs), watch_every)
            assert instr.spans.count(("run",)) == jobs  # one stack per worker
            for got, ref in zip(results, bare):
                for name in RESULT_ARRAYS:
                    assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
            # slo.* events sit at a lone run's positions among the
            # slot and ema.queues events, and count the same.
            _assert_same(instr.tracer.events, alone.tracer.events)
            assert json.dumps(instr.metrics.snapshot(), sort_keys=True) == metrics
            if jobs == 1:
                for key in ("runs_started", "runs_finished", "total_slots"):
                    assert getattr(live, key) == getattr(alone_live, key), key
                assert live.runs_started == live.runs_finished == 9
                assert live.snapshot()["n_alerts"] == alone_live.snapshot()["n_alerts"]

    def test_each_run_keeps_a_lone_runs_registry(self):
        plan = BatchPlan(_ragged_stack())
        plan.run(Instrumentation(live=LiveTelemetry(rules=STACK_RULES, watch_every=8)))
        alone = []
        for task in _ragged_stack():
            one = BatchPlan([task])
            one.run(Instrumentation(live=LiveTelemetry(rules=STACK_RULES, watch_every=8)))
            alone += one.run_metric_states
        _assert_same(plan.run_metric_states, alone)
        fired = [s["counters"].get("slo.alerts", 0) for s in alone]
        assert len(set(fired)) > 1  # runs alert differently
