"""Tests for the simulation engine: conservation, accounting, strictness."""

import numpy as np
import pytest

from repro.baselines.default import DefaultScheduler
from repro.core.rtma import RTMAScheduler
from repro.core.scheduler import Scheduler
from repro.errors import ConstraintViolationError, SimulationError
from repro.media.video import ConstantBitrateProfile, VideoSession
from repro.net.flows import VideoFlow
from repro.obs.instrument import Instrumentation
from repro.obs.spans import SLOT_PREFIX
from repro.obs.tracer import RecordingTracer
from repro.radio.signal import ConstantSignalModel
from repro.sim.config import SimConfig
from repro.sim.engine import SLOT_PHASES, Simulation
from repro.sim.workload import Workload, generate_workload


class _CheatingScheduler(Scheduler):
    """Violates the BS budget on purpose."""

    name = "cheater"

    def allocate(self, obs):
        return np.full(obs.n_users, obs.unit_budget, dtype=np.int64)


class _IdleScheduler(Scheduler):
    name = "idle"

    def allocate(self, obs):
        return self._zeros(obs)


class _CrashingScheduler(DefaultScheduler):
    """Raises in ``allocate`` at one slot."""

    def __init__(self, crash_slot: int):
        super().__init__()
        self.crash_slot = crash_slot

    def allocate(self, obs):
        if obs.slot == self.crash_slot:
            raise RuntimeError("scheduler crash")
        return super().allocate(obs)


class TestConservation:
    def test_delivered_never_exceeds_video_size(self, small_config):
        res = Simulation(small_config, DefaultScheduler()).run()
        wl = generate_workload(small_config)
        totals = res.delivered_kb.sum(axis=0)
        sizes = np.array([f.video.size_kb for f in wl.flows])
        assert (totals <= sizes + 1e-6).all()

    def test_delivered_never_exceeds_capacity(self, small_config):
        res = Simulation(small_config, DefaultScheduler()).run()
        per_slot = res.delivered_kb.sum(axis=1)
        assert (per_slot <= small_config.capacity_kbps * small_config.tau_s + 1e-6).all()

    def test_allocation_respects_constraints_every_slot(self, small_config):
        res = Simulation(small_config, RTMAScheduler()).run()
        budget = small_config.unit_budget_per_slot
        assert (res.allocation_units.sum(axis=1) <= budget).all()

    def test_energy_nonnegative_and_exclusive(self, small_config):
        res = Simulation(small_config, DefaultScheduler()).run()
        assert (res.energy_trans_mj >= 0).all()
        assert (res.energy_tail_mj >= 0).all()
        # Eq. (5): a slot has transmission energy XOR tail energy.
        both = (res.energy_trans_mj > 0) & (res.energy_tail_mj > 0)
        assert not both.any()

    def test_rebuffering_bounded_by_tau(self, small_config):
        res = Simulation(small_config, DefaultScheduler()).run()
        assert (res.rebuffering_s <= small_config.tau_s + 1e-9).all()
        assert (res.rebuffering_s >= 0).all()


class TestAccounting:
    def test_idle_scheduler_full_stall_no_transmission_energy(self, small_config):
        res = Simulation(small_config, _IdleScheduler()).run()
        assert res.energy_trans_mj.sum() == 0.0
        assert res.energy_tail_mj.sum() == 0.0  # never promoted: no tail
        # Every in-session slot stalls.
        assert res.pc_s == pytest.approx(small_config.tau_s)
        assert (res.completion_slot == -1).all()

    def test_transmission_energy_matches_eq3(self):
        # Constant signal -> P is a known constant; check E = P * bytes.
        cfg = SimConfig(
            n_users=2,
            n_slots=50,
            video_size_range_kb=(5000.0, 5000.0),
            signal_model=ConstantSignalModel(-80.0),
            seed=0,
        )
        res = Simulation(cfg, DefaultScheduler()).run()
        p = float(cfg.radio.power.p(-80.0))
        np.testing.assert_allclose(
            res.energy_trans_mj, res.delivered_kb * p, rtol=1e-9
        )

    def test_tail_energy_saturates_after_completion(self, small_config):
        res = Simulation(small_config, DefaultScheduler()).run()
        # Total tail per user is bounded by max_tail * (#idle episodes);
        # at the very least, the terminal tail can't exceed one full tail
        # after the last transmission.
        last_tx = np.array(
            [
                np.flatnonzero(res.delivered_kb[:, i] > 0).max()
                for i in range(small_config.n_users)
            ]
        )
        max_tail = small_config.radio.rrc.max_tail_mj
        for i in range(small_config.n_users):
            post = res.energy_tail_mj[last_tx[i] + 1 :, i].sum()
            assert post <= max_tail + 1e-6

    def test_completion_recorded_once(self, small_config):
        res = Simulation(small_config, DefaultScheduler()).run()
        assert (res.completion_slot >= 0).all()
        # After completion: no rebuffering.
        for i in range(small_config.n_users):
            assert res.rebuffering_s[res.completion_slot[i] + 1 :, i].sum() == 0.0


class TestStrictness:
    def test_cheating_scheduler_raises(self, small_config):
        with pytest.raises(ConstraintViolationError):
            Simulation(small_config, _CheatingScheduler()).run()

    def test_workload_user_mismatch_raises(self, small_config):
        wl = generate_workload(small_config.with_(n_users=3))
        with pytest.raises(SimulationError):
            Simulation(small_config, DefaultScheduler(), wl)

    def test_workload_too_short_raises(self, small_config):
        wl = generate_workload(small_config.with_(n_slots=50))
        with pytest.raises(SimulationError):
            Simulation(small_config, DefaultScheduler(), wl)


class TestArrivals:
    def test_late_arrival_no_early_rebuffering(self):
        video = VideoSession(2000.0, ConstantBitrateProfile(400.0))
        flows = [
            VideoFlow(0, VideoSession(2000.0, ConstantBitrateProfile(400.0))),
            VideoFlow(1, video, arrival_slot=20),
        ]
        sig = ConstantSignalModel(-70.0).generate(100, 2, rng=0)
        wl = Workload(flows=flows, signal_dbm=sig)
        cfg = SimConfig(n_users=2, n_slots=100, seed=0)
        res = Simulation(cfg, DefaultScheduler(), wl).run()
        assert res.rebuffering_s[:20, 1].sum() == 0.0
        assert not res.active[:20, 1].any()
        assert res.active[20, 1]

    def test_shared_workload_identical_across_schedulers(self, small_config):
        wl = generate_workload(small_config)
        r1 = Simulation(small_config, DefaultScheduler(), wl).run()
        r2 = Simulation(small_config, DefaultScheduler(), wl).run()
        np.testing.assert_array_equal(r1.delivered_kb, r2.delivered_kb)


class TestAbortSpans:
    @staticmethod
    def _check_crash_at(config, k, blocks):
        # Slots 0..k-1 run every phase; slot k plays back and observes,
        # then the scheduler raises before it returns an allocation.
        instr = Instrumentation(tracer=RecordingTracer())
        with pytest.raises(RuntimeError, match="scheduler crash"):
            Simulation(config, _CrashingScheduler(k), instrumentation=instr).run()
        spans = instr.spans
        assert spans.count(("run",)) == 1
        assert spans.count(SLOT_PREFIX + ("playback",)) == k + 1
        assert spans.count(SLOT_PREFIX + ("observe",)) == k + 1
        for phase in ("schedule", "transmit", "rrc", "feedback"):
            assert spans.count(SLOT_PREFIX + (phase,)) == k, phase
        # The open 64-slot block is closed on abort, so the block spans
        # cover every slot whose phases were recorded.
        assert spans.count(SLOT_PREFIX) == blocks
        phase_total = sum(
            spans.total_s(SLOT_PREFIX + (phase,)) for phase in SLOT_PHASES
        )
        assert spans.total_s(SLOT_PREFIX) >= phase_total
        assert instr.tracer.events[-1]["kind"] == "run.abort"
        assert instr.tracer.events[-1]["slot"] == k

    def test_crashed_run_keeps_its_phase_spans(self, small_config):
        self._check_crash_at(small_config, k=37, blocks=1)

    def test_crash_in_second_block_closes_it(self, small_config):
        self._check_crash_at(small_config, k=101, blocks=2)
