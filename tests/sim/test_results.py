"""Tests for result containers and derived metrics."""

import numpy as np
import pytest

from repro.baselines.default import DefaultScheduler
from repro.core.rtma import RTMAScheduler
from repro.errors import ConfigurationError
from repro.faults import CapacityFault, FaultPlan, SignalBlackout
from repro.obs import Instrumentation, RecordingTracer
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.results import SimulationResult


@pytest.fixture(scope="module")
def result():
    from repro.sim.config import SimConfig

    cfg = SimConfig(
        n_users=6, n_slots=200, video_size_range_kb=(30_000.0, 60_000.0), seed=42
    )
    return Simulation(cfg, DefaultScheduler()).run()


class TestDerived:
    def test_pe_is_mean_of_energy(self, result):
        assert result.pe_mj == pytest.approx(result.energy_mj.mean())

    def test_pc_is_mean_of_rebuffering(self, result):
        assert result.pc_s == pytest.approx(result.rebuffering_s.mean())

    def test_energy_is_trans_plus_tail(self, result):
        np.testing.assert_allclose(
            result.energy_mj, result.energy_trans_mj + result.energy_tail_mj
        )

    def test_session_metrics_scale_up(self, result):
        # Sessions end before the horizon, so session averages must be
        # at least the horizon averages.
        assert result.pe_session_mj >= result.pe_mj
        assert result.pc_session_s >= result.pc_s

    def test_session_mask_shape_and_sanity(self, result):
        mask = result.session_mask()
        assert mask.shape == result.energy_mj.shape
        assert mask[0].all()  # everyone's session includes slot 0
        done = result.completion_slot
        for i in range(done.size):
            if done[i] >= 0 and done[i] + 1 < mask.shape[0]:
                assert not mask[done[i] + 1, i]

    def test_power_per_slot(self, result):
        np.testing.assert_allclose(
            result.power_per_slot_mj(), result.energy_mj.sum(axis=1)
        )

    def test_per_user_totals(self, result):
        np.testing.assert_allclose(
            result.per_user_total_rebuffering_s(), result.rebuffering_s.sum(axis=0)
        )
        np.testing.assert_allclose(
            result.per_user_total_energy_mj(), result.energy_mj.sum(axis=0)
        )

    def test_cdf_methods_return_valid_cdfs(self, result):
        for x, p in (
            result.fairness_cdf(),
            result.rebuffering_cdf(),
            result.slot_rebuffering_cdf(),
        ):
            assert x.shape == p.shape
            assert (np.diff(x) >= 0).all()
            assert p[-1] == pytest.approx(1.0)


class TestSummary:
    def test_summary_fields(self, result):
        s = result.summary()
        assert s.scheduler == "default"
        assert s.pe_mj == pytest.approx(result.pe_mj)
        assert s.pc_s == pytest.approx(result.pc_s)
        assert s.pe_mj == pytest.approx(s.pe_tail_mj + s.pe_trans_mj)
        assert 0.0 <= s.completion_rate <= 1.0
        assert 0.0 <= s.frac_slots_fair <= 1.0

    def test_as_dict_roundtrip(self, result):
        d = result.summary().as_dict()
        assert d["scheduler"] == "default"
        assert set(d) >= {"pe_mj", "pc_s", "mean_fairness", "pe_session_mj"}


class TestValidation:
    def test_shape_mismatch_rejected(self, result):
        with pytest.raises(ConfigurationError):
            SimulationResult(
                scheduler_name="x",
                config=result.config,
                allocation_units=result.allocation_units,
                delivered_kb=result.delivered_kb[:-1],
                rebuffering_s=result.rebuffering_s,
                energy_tail_mj=result.energy_tail_mj,
                buffer_s=result.buffer_s,
                active=result.active,
                completion_slot=result.completion_slot,
                arrival_slot=result.arrival_slot,
                workload=result.workload,
            )


class _Recording(RTMAScheduler):
    """RTMA that keeps, per slot, the row-space Eq. (3) energy
    ``P(sig) * delivered`` and need ``tau * p_i(n)`` the engine's slot
    loop observed."""

    def __init__(self):
        super().__init__(sig_threshold_dbm=-95.0)
        self.rows = []

    def notify(self, obs, phi, delivered_kb):
        super().notify(obs, phi, delivered_kb)
        self.rows.append(
            (obs.p_mj_per_kb * delivered_kb, obs.rate_kbps * obs.tau_s)
        )


def _traced_run(cfg):
    sched = _Recording()
    tracer = RecordingTracer()
    res = Simulation(
        cfg, sched, instrumentation=Instrumentation(tracer=tracer)
    ).run()
    return res, sched.rows, tracer.events


def _session_rows(events, n_slots, n_users):
    """``(slots, sessions)`` row of each resident session, else -1."""
    rows = np.full((n_slots, n_users), -1, dtype=np.int64)
    for e in events:
        if e["kind"] == "session.start":
            rows[e["slot"] :, e["user"]] = e["row"]
        elif e["kind"] == "session.end":
            rows[e["slot"] + 1 :, e["user"]] = -1
    return rows


class TestDerivedGrids:
    """``energy_trans_mj`` and ``need_kb`` are not stored: they are
    derived from the deliveries and the workload, bitwise the values
    the slot loop computed from its observations."""

    BASE = dict(
        n_users=8,
        n_slots=160,
        capacity_kbps=2_500.0,
        video_size_range_kb=(3_000.0, 9_000.0),
        buffer_capacity_s=40.0,
        seed=5,
    )

    def _check_fixed(self, cfg):
        res, rows, events = _traced_run(cfg)
        trans = np.array([t for t, _ in rows])
        need = np.array([n for _, n in rows])
        assert trans.any()
        assert res.energy_trans_mj.tobytes() == trans.tobytes()
        assert res.need_kb.tobytes() == need.tobytes()
        slots = [e for e in events if e["kind"] == "slot"]
        traced = np.array([e["users"]["energy_trans_mj"] for e in slots])
        assert res.energy_trans_mj.tobytes() == traced.tobytes()

    def test_fixed_run(self):
        self._check_fixed(SimConfig(**self.BASE))

    def test_faulted_run(self):
        plan = FaultPlan(
            signal=(SignalBlackout(start_slot=20, n_slots=40, users=(0, 2, 5)),),
            capacity=(CapacityFault(start_slot=90, n_slots=10, factor=0.3),),
        )
        cfg = SimConfig(**self.BASE, faults=plan)
        self._check_fixed(cfg)
        res = Simulation(cfg, DefaultScheduler()).run()
        assert res.faulted_signal_dbm is not None
        assert not np.array_equal(res.signal_dbm, res.workload.signal_dbm[: cfg.n_slots])

    def test_churn_run(self):
        cfg = SimConfig(
            **{**self.BASE, "n_users": 14},
            arrival_process="poisson",
            arrival_rate_per_slot=0.3,
            admission="capacity-threshold",
            admission_max_active=3,
        )
        res, rows, events = _traced_run(cfg)
        assert res.rejected.any() and (res.departure_slot >= 0).any()
        where = _session_rows(events, cfg.n_slots, cfg.n_users)
        trans = np.zeros((cfg.n_slots, cfg.n_users))
        need = np.zeros((cfg.n_slots, cfg.n_users))
        for slot, (t_row, n_row) in enumerate(rows):
            resident = where[slot] >= 0
            trans[slot, resident] = t_row[where[slot, resident]]
            need[slot, resident] = n_row[where[slot, resident]]
        assert need.any()
        assert res.energy_trans_mj.tobytes() == trans.tobytes()
        assert res.need_kb.tobytes() == need.tobytes()
