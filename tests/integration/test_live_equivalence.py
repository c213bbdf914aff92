"""Live-telemetry observer effect: watching a run must not change it.

Every scheduler x seed combination runs twice — bare, and under a
:class:`~repro.obs.live.LiveTelemetry` with active SLO rules and a
tight ``watch_every`` — and every result grid must match
byte-for-byte.  A companion test pins the watchdog's behaviour on a
deliberately budget-violating workload: the expected rules fire,
exactly once per violating run, and nothing else does.
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
