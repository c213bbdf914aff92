"""End-to-end integration tests across the full stack."""

import numpy as np
import pytest

from repro import (
    DefaultScheduler,
    EMAScheduler,
    EStreamerScheduler,
    OnOffScheduler,
    RTMAScheduler,
    SalsaScheduler,
    SimConfig,
    ThrottlingScheduler,
    compare_schedulers,
    generate_workload,
    run_scheduler,
)
from repro.baselines.default import NeedRateScheduler
from repro.net.slicing import ConstantBackground


@pytest.fixture(scope="module")
def cfg():
    return SimConfig(
        n_users=10,
        n_slots=400,
        capacity_kbps=5_000.0,
        video_size_range_kb=(60_000.0, 120_000.0),
        vbr_segments=20,
        seed=11,
    )


@pytest.fixture(scope="module")
def all_results(cfg):
    return compare_schedulers(
        cfg,
        {
            "default": DefaultScheduler(),
            "greedy": NeedRateScheduler(),
            "rtma": RTMAScheduler(),
            "ema": EMAScheduler(cfg.n_users, v_param=0.05),
            "onoff": OnOffScheduler(),
            "throttling": ThrottlingScheduler(),
            "salsa": SalsaScheduler(),
            "estreamer": EStreamerScheduler(),
        },
    )


class TestAllSchedulersRun:
    def test_every_policy_completes(self, all_results):
        assert len(all_results) == 8
        for name, res in all_results.items():
            assert np.isfinite(res.pe_mj), name
            assert np.isfinite(res.pc_s), name

    def test_summaries_well_formed(self, all_results):
        for res in all_results.values():
            s = res.summary()
            assert s.pe_mj >= 0 and s.pc_s >= 0
            assert s.pe_mj == pytest.approx(s.pe_trans_mj + s.pe_tail_mj)

    def test_total_bytes_identical_for_completing_policies(self, all_results):
        # Policies that complete all sessions deliver exactly the
        # workload's bytes.
        totals = {
            name: res.delivered_kb.sum()
            for name, res in all_results.items()
            if res.summary().completion_rate == 1.0
        }
        assert len(totals) >= 2
        vals = list(totals.values())
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-9)


class TestCrossSchedulerOrdering:
    def test_rtma_rebuffers_less_than_default(self, all_results):
        assert all_results["rtma"].pc_s < all_results["default"].pc_s

    def test_rtma_fairer_than_default(self, all_results):
        f_rtma = all_results["rtma"].summary().mean_fairness
        f_def = all_results["default"].summary().mean_fairness
        assert f_rtma > f_def

    def test_ema_uses_less_energy_than_default(self, all_results):
        assert (
            all_results["ema"].pe_session_mj
            < all_results["default"].pe_session_mj
        )

    def test_greedy_default_less_fair_than_need_first_policies(self, all_results):
        f_default = all_results["default"].summary().mean_fairness
        for name in ("rtma", "throttling"):
            assert f_default < all_results[name].summary().mean_fairness


class TestExtensions:
    def test_background_traffic_reduces_video_throughput(self, cfg):
        base = run_scheduler(cfg, DefaultScheduler())
        loaded_cfg = cfg.with_(background=ConstantBackground(2_500.0))
        loaded = run_scheduler(loaded_cfg, DefaultScheduler())
        # Less capacity for video -> more rebuffering.
        assert loaded.pc_s > base.pc_s

    def test_lte_profile_runs(self, cfg):
        res = run_scheduler(cfg.with_(profile="lte"), DefaultScheduler())
        assert np.isfinite(res.pe_mj)

    def test_buffer_capacity_limits_prefetch(self, cfg):
        capped = run_scheduler(
            cfg.with_(buffer_capacity_s=15.0), NeedRateScheduler()
        )
        assert capped.buffer_s.max() <= 15.0 + 1e-9

    def test_staggered_arrivals_respected(self, cfg):
        wl = generate_workload(cfg)
        for i, f in enumerate(wl.flows):
            object.__setattr__(f, "arrival_slot", 0) if False else None
        # Use dataclass replace-style: flows are mutable dataclasses.
        wl.flows[3].arrival_slot = 50
        res = run_scheduler(cfg, DefaultScheduler(), wl)
        assert not res.active[:50, 3].any()
        assert res.delivered_kb[:50, 3].sum() == 0.0
