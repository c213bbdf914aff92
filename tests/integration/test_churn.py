"""Dynamic session lifecycle: churn, admission, and zero-churn identity.

Three contracts:

* **Zero-churn bit-identity** — configs without churn (the default
  ``all_at_zero`` / ``accept-all``) run the slot loop on a fixed
  population, and making that default explicit changes nothing, for
  every scheduler, seed, and kernel backend.  A stronger pin rides
  along: the loop's churn mode itself, driven by an all-zero arrival
  trace with videos too large to complete (so no retirement),
  reproduces the fixed population byte-for-byte — admission in
  session space is exact.
* **Churn end-to-end** — a Poisson-arrival, admission-capped scenario
  runs serially and on the process pool with identical results, emits
  session lifecycle events, and passes the offline invariant checkers
  (including session conservation) with zero violations.
* **Session accounting** — admitted/rejected/completed/departure
  bookkeeping is conserved and retirement actually stops a session's
  energy accrual.
"""

import numpy as np
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
from repro.kernels import available_backends
from repro.obs import Instrumentation, JsonlTraceWriter, check_trace
from repro.obs.analyze import timeline_from_result, timelines_from_trace
from repro.sim import RunExecutor, RunTask
from repro.sim.batch import run_batch
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
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


def assert_results_bit_identical(a, b):
    for name in RESULT_ARRAYS:
        assert (
            getattr(a, name).tobytes() == getattr(b, name).tobytes()
        ), f"{name} differs"


def churn_config(seed=3, **overrides):
    base = dict(
        n_users=16,
        n_slots=400,
        capacity_kbps=4_000.0,
        video_size_range_kb=(3_000.0, 8_000.0),
        buffer_capacity_s=40.0,
        seed=seed,
        arrival_process="poisson",
        arrival_rate_per_slot=0.4,
        admission="capacity-threshold",
        admission_max_active=4,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestZeroChurnIdentity:
    """Explicit all_at_zero/accept-all == the implicit default."""

    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("seed", [1, 23])
    def test_explicit_defaults_change_nothing(self, sched_name, seed):
        base = SimConfig(
            n_users=10, n_slots=250, capacity_kbps=6_000.0,
            video_size_range_kb=(20_000.0, 50_000.0),
            buffer_capacity_s=60.0, seed=seed,
        )
        explicit = base.with_(
            arrival_process="all_at_zero", admission="accept-all"
        )
        assert not base.has_churn and not explicit.has_churn
        r_base = Simulation(base, SCHEDULERS[sched_name](base)).run()
        r_explicit = Simulation(explicit, SCHEDULERS[sched_name](explicit)).run()
        assert_results_bit_identical(r_base, r_explicit)
        # Zero-churn runs take the fixed path: no session bookkeeping.
        assert r_base.admitted is None and r_explicit.admitted is None

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    def test_dynamic_body_reproduces_fixed_path(self, backend, sched_name):
        # All sessions arrive at slot 0 via a trace (forcing churn's
        # session lifecycle) with videos far too large to complete (no
        # retirement): every grid must match the fixed path
        # byte-for-byte.
        fixed = SimConfig(
            n_users=8, n_slots=200, capacity_kbps=6_000.0,
            video_size_range_kb=(200_000.0, 400_000.0),
            buffer_capacity_s=60.0, seed=11, kernel_backend=backend,
        )
        dynamic = fixed.with_(arrival_process="trace", arrival_trace=(0,) * 8)
        assert dynamic.has_churn
        r_fixed = Simulation(fixed, SCHEDULERS[sched_name](fixed)).run()
        r_dyn = Simulation(dynamic, SCHEDULERS[sched_name](dynamic)).run()
        assert (r_fixed.completion_slot == -1).all()  # nothing retires
        assert_results_bit_identical(r_fixed, r_dyn)
        assert r_dyn.admitted is not None and r_dyn.admitted.all()
        assert not r_dyn.rejected.any()

    def test_workload_generation_rng_unchanged(self):
        cfg = SimConfig(n_users=6, n_slots=100, seed=5)
        explicit = cfg.with_(arrival_process="all_at_zero")
        wl_a = generate_workload(cfg)
        wl_b = generate_workload(explicit)
        assert wl_a.signal_dbm.tobytes() == wl_b.signal_dbm.tobytes()
        for fa, fb in zip(wl_a.flows, wl_b.flows):
            assert fa.video.size_kb == fb.video.size_kb
            assert fa.arrival_slot == fb.arrival_slot == 0


class TestChurnEndToEnd:
    @pytest.mark.parametrize("sched_name", ["default", "rtma", "ema"])
    def test_poisson_run_conserves_sessions(self, sched_name):
        cfg = churn_config()
        res = Simulation(cfg, SCHEDULERS[sched_name](cfg)).run()
        admitted = res.admitted
        rejected = res.rejected
        completed = res.completion_slot >= 0
        assert admitted is not None and rejected is not None
        assert not (admitted & rejected).any()
        # Completion implies admission; departure pairs with completion.
        assert (completed <= admitted).all()
        assert ((res.departure_slot >= 0) == completed).all()
        assert (res.departure_slot[completed] == res.completion_slot[completed]).all()
        # Offered vs admitted load split (satellite: metrics summary).
        summary = res.to_summary_dict()
        assert summary["sessions_offered"] == cfg.n_users
        assert summary["sessions_admitted"] == int(admitted.sum())
        assert summary["sessions_rejected"] == int(rejected.sum())
        assert summary["offered_video_kb"] >= summary["admitted_video_kb"] > 0
        if rejected.any():
            assert summary["offered_video_kb"] > summary["admitted_video_kb"]

    def test_retired_sessions_accrue_nothing(self):
        cfg = churn_config(seed=9)
        res = Simulation(cfg, DefaultScheduler()).run()
        done = np.flatnonzero(res.completion_slot >= 0)
        assert done.size, "scenario must complete some sessions"
        slots = np.arange(cfg.n_slots)[:, None]
        after = slots > res.completion_slot[None, done]
        for grid in (res.allocation_units[:, done], res.delivered_kb[:, done],
                     res.energy_trans_mj[:, done], res.energy_tail_mj[:, done]):
            assert not grid[after].any()
        # Never-admitted sessions never touch the grids at all.
        out = ~res.admitted
        if out.any():
            assert not res.allocation_units[:, out].any()
            assert not res.energy_trans_mj[:, out].any()

    def test_rejected_sessions_keep_empty_rows(self):
        # A rejected session's row never plays, in a lone run and in a
        # stack of churn runs alike: no completion and all-zero cells.
        cfg = churn_config(seed=3)
        wl = generate_workload(cfg)
        tasks = [
            RunTask(cfg, SCHEDULERS[name](cfg), wl) for name in ("default", "rtma", "ema")
        ]
        lone = Simulation(cfg, DefaultScheduler(), wl).run()
        for res in [lone, *run_batch(tasks)]:
            out = res.rejected
            assert out.any()
            assert (res.completion_slot[out] == -1).all()
            assert (res.departure_slot[out] == -1).all()
            for name in RESULT_ARRAYS[:-2]:
                assert not getattr(res, name)[:, out].any(), name

    def test_serial_equals_pooled_under_churn(self):
        cfg = churn_config()
        wl = generate_workload(cfg)
        def tasks():
            return [
                RunTask(cfg, SCHEDULERS[name](cfg), wl)
                for name in ("default", "rtma", "ema")
            ]
        serial = RunExecutor(jobs=1).map_runs(tasks())
        pooled = RunExecutor(jobs=2).map_runs(tasks())
        for a, b in zip(serial, pooled):
            assert_results_bit_identical(a, b)
            assert a.admitted.tobytes() == b.admitted.tobytes()
            assert a.rejected.tobytes() == b.rejected.tobytes()
            assert a.departure_slot.tobytes() == b.departure_slot.tobytes()

    @pytest.mark.parametrize("sched_name", ["rtma", "ema"])
    def test_churn_trace_passes_invariants(self, tmp_path, sched_name):
        cfg = churn_config(seed=4)
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTraceWriter(path)
        Simulation(
            cfg,
            SCHEDULERS[sched_name](cfg),
            instrumentation=Instrumentation(tracer=tracer),
        ).run()
        tracer.close()
        ((tl, report),) = check_trace(path)
        assert report.ok, report.render()
        assert "session.conservation" in report.checked
        assert tl.sessions, "expected session lifecycle events"
        counts = tl.end_summary["sessions"]
        assert counts["offered"] == cfg.n_users
        assert counts["admitted"] == counts["completed"] + counts["active"]
        rows = tl.session_rows()
        assert rows and all(r["outcome"] is not None for r in rows)


class TestTraceTotalsMatchResult:
    """A trace's per-slot totals are the result grids' per-slot totals.

    On churn runs ``mean_buffer_s`` must average the session grid, not
    the row capacity (which counts vacant rows and misses sessions not
    yet admitted or already retired).
    """

    @pytest.mark.parametrize("churn", [False, True], ids=["fixed", "churn"])
    def test_shared_totals_equal(self, tmp_path, churn):
        cfg = churn_config(arrival_rate_per_slot=0.08, admission_max_active=6)
        if not churn:
            cfg = cfg.with_(
                arrival_process="all_at_zero",
                arrival_rate_per_slot=None,
                admission="accept-all",
                admission_max_active=None,
            )
        assert cfg.has_churn == churn
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTraceWriter(path)
        result = Simulation(
            cfg, DefaultScheduler(), instrumentation=Instrumentation(tracer=tracer)
        ).run()
        tracer.close()
        (traced,) = timelines_from_trace(path)
        expected = timeline_from_result(result).totals
        shared = sorted(set(traced.totals) & set(expected))
        assert "mean_buffer_s" in shared and len(shared) >= 6
        for key in shared:
            np.testing.assert_array_equal(
                traced.totals[key], expected[key], err_msg=key
            )


class TestAdmissionPolicies:
    def test_capacity_threshold_rejects_over_cap(self):
        cfg = churn_config(seed=3)
        res = Simulation(cfg, DefaultScheduler()).run()
        assert res.rejected.any(), "cap of 4 should reject under this load"

    def test_accept_all_with_poisson_admits_everyone_who_arrives(self):
        cfg = churn_config(seed=3, admission="accept-all",
                           admission_max_active=None)
        res = Simulation(cfg, DefaultScheduler()).run()
        arrived = res.arrival_slot < cfg.n_slots
        assert (res.admitted == arrived).all()
        assert not res.rejected.any()

    def test_budget_aware_policy_caps_population(self):
        cfg = churn_config(
            seed=3,
            admission="budget-aware",
            admission_max_active=None,
            admission_min_units_per_user=2,
        )
        res = Simulation(cfg, DefaultScheduler()).run()
        # The policy admits while (active+1) * min_units <= unit budget;
        # bookkeeping still conserves.
        assert not (res.admitted & res.rejected).any()
