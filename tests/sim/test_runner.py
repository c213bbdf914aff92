"""Tests for the run orchestration helpers."""

import pytest

from repro.baselines.default import DefaultScheduler
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.errors import ConfigurationError
from repro.obs import Instrumentation, use_instrumentation
from repro.sim.runner import (
    calibrate_ema_v,
    calibrate_ema_v_to_reference,
    calibrate_rtma_threshold,
    compare_schedulers,
    default_reference,
    make_rtma_eq12,
    multi_seed,
    run_scheduler,
    sweep,
)
from repro.sim.workload import generate_workload


class TestBasics:
    def test_run_scheduler(self, small_config):
        res = run_scheduler(small_config, DefaultScheduler())
        assert res.scheduler_name == "default"

    def test_compare_shares_workload(self, small_config):
        results = compare_schedulers(
            small_config,
            {"a": DefaultScheduler(), "b": RTMAScheduler()},
        )
        assert set(results) == {"a", "b"}
        # Identical workload: the same total video bytes get delivered.
        assert results["a"].delivered_kb.sum() == pytest.approx(
            results["b"].delivered_kb.sum(), rel=1e-6
        )

    def test_compare_empty_rejected(self, small_config):
        with pytest.raises(ConfigurationError):
            compare_schedulers(small_config, {})

    def test_sweep_varies_axis(self, small_config):
        results = sweep(
            small_config, "n_users", [2, 4], lambda cfg: DefaultScheduler()
        )
        assert [r.config.n_users for r in results] == [2, 4]

    def test_multi_seed(self, small_config):
        results = multi_seed(small_config, lambda cfg: DefaultScheduler(), [1, 2, 3])
        assert len(results) == 3
        seeds = {r.config.seed for r in results}
        assert seeds == {1, 2, 3}
        # Different seeds produce different outcomes.
        assert len({round(r.pc_s, 9) for r in results}) > 1

    def test_default_reference(self, small_config):
        ref = default_reference(small_config)
        assert ref.scheduler_name == "default"


class TestCalibration:
    def test_rtma_alpha_loose_budget_unconstrained(self, small_config):
        # Uncontended small config: RTMA(-inf) under default energy with
        # a generous alpha -> no threshold needed.
        thr = calibrate_rtma_threshold(small_config, alpha=5.0)
        assert thr == float("-inf")

    def test_rtma_alpha_tight_budget_restricts(self, contended_config):
        thr_tight = calibrate_rtma_threshold(
            contended_config, alpha=0.5, calibration_slots=200
        )
        thr_loose = calibrate_rtma_threshold(
            contended_config, alpha=5.0, calibration_slots=200
        )
        assert thr_tight > -110.0
        assert thr_loose == float("-inf")

    def test_make_rtma_eq12_in_band(self, small_config):
        sched = make_rtma_eq12(small_config, 1000.0)
        assert -110.0 < sched.sig_threshold_dbm < -50.0

    def test_alpha_validation(self, small_config):
        with pytest.raises(ConfigurationError):
            calibrate_rtma_threshold(small_config, alpha=0.0)

    def test_calibrate_ema_v_loose_bound_saves_at_least_as_much(self, small_config):
        # A loose bound's feasible V set contains the tight bound's, so
        # the min-energy pick can only improve (identical workload and
        # grid make this exact, not statistical).
        cal_cfg = small_config.with_(n_slots=150)
        wl = generate_workload(cal_cfg)
        v_loose = calibrate_ema_v(
            small_config, 0.5, workload=wl, iterations=5, calibration_slots=150
        )
        v_tight = calibrate_ema_v(
            small_config, 0.005, workload=wl, iterations=5, calibration_slots=150
        )
        pe_loose = run_scheduler(
            cal_cfg, EMAScheduler(cal_cfg.n_users, v_param=v_loose), wl
        ).pe_mj
        pe_tight = run_scheduler(
            cal_cfg, EMAScheduler(cal_cfg.n_users, v_param=v_tight), wl
        ).pe_mj
        assert pe_loose <= pe_tight + 1e-9

    def test_calibrate_ema_v_respects_bound(self, small_config):
        bound = 0.05
        v = calibrate_ema_v(small_config, bound, iterations=6, calibration_slots=200)
        cfg = small_config.with_(n_slots=200)
        res = run_scheduler(cfg, EMAScheduler(cfg.n_users, v_param=v))
        assert res.pc_s <= bound * 1.25  # bisection tolerance

    def test_ema_v_validation(self, small_config):
        with pytest.raises(ConfigurationError):
            calibrate_ema_v(small_config, 0.0)
        with pytest.raises(ConfigurationError):
            calibrate_ema_v(small_config, 1.0, v_lo=5.0, v_hi=1.0)


def _observed(calibrate):
    """A calibration's value and the counters and histograms it left."""
    instr = Instrumentation()
    with use_instrumentation(instr):
        value = calibrate()
    snap = instr.metrics.snapshot()
    return value, snap["counters"], snap["histograms"]


class TestVectorCalibration:
    """One vector call equals its per-factor scalar calls."""

    def test_rtma_alphas_match_scalar_calls(self, contended_config):
        wl = generate_workload(contended_config.with_(n_slots=200))
        # 5.0 is a factor whose budget the unconstrained probe fits.
        alphas = (0.5, 1.0, 5.0)
        kw = dict(workload=wl, iterations=5, calibration_slots=200)
        thresholds, counters, hists = _observed(
            lambda: calibrate_rtma_threshold(contended_config, alphas=alphas, **kw)
        )
        scalar = [
            _observed(lambda: calibrate_rtma_threshold(contended_config, alpha=a, **kw))
            for a in alphas
        ]
        assert thresholds == [value for value, _, _ in scalar]
        assert thresholds[-1] == float("-inf") and thresholds[0] > -110.0
        # Each scalar call runs the same reference, probe and grid ...
        for _, c, _ in scalar:
            engine = {k: v for k, v in c.items() if k.startswith("engine.")}
            assert engine == {k: v for k, v in counters.items() if k.startswith("engine.")}
        # ... but reads the grid only when the probe misses its budget.
        grid_size = 6  # linspace(…, 5) plus the dense weak-end point
        assert [c["calibration.grid_evaluations"] for _, c, _ in scalar] == [
            1 + grid_size,
            1 + grid_size,
            1,
        ]
        # The vector call records exactly what its tightest factor does.
        assert counters == scalar[0][1]
        assert hists == scalar[0][2]

    def test_rtma_all_probe_fits_reads_no_grid(self, contended_config):
        thresholds, counters, _ = _observed(
            lambda: calibrate_rtma_threshold(
                contended_config, alphas=[5.0, 6.0], calibration_slots=200
            )
        )
        assert thresholds == [float("-inf")] * 2
        assert counters["calibration.grid_evaluations"] == 1

    def test_ema_betas_match_scalar_calls(self, contended_config):
        wl = generate_workload(contended_config.with_(n_slots=150))
        # 0.01 leaves no V feasible: the best-effort branch.
        betas = (0.01, 0.8, 1.0, 2.0)
        kw = dict(workload=wl, iterations=5, calibration_slots=150)
        vs, counters, hists = _observed(
            lambda: calibrate_ema_v_to_reference(
                contended_config, DefaultScheduler, betas=betas, **kw
            )
        )
        scalar = [
            _observed(
                lambda: calibrate_ema_v_to_reference(
                    contended_config, DefaultScheduler, beta=b, **kw
                )
            )
            for b in betas
        ]
        assert vs == [value for value, _, _ in scalar]
        assert len(set(vs)) > 1
        for _, c, h in scalar:
            assert c == counters
            assert h == hists
        assert counters["calibration.grid_evaluations"] == 5

    def test_ema_beta_defaults_to_one(self, small_config):
        kw = dict(iterations=4, calibration_slots=60)
        assert calibrate_ema_v_to_reference(
            small_config, DefaultScheduler, **kw
        ) == calibrate_ema_v_to_reference(small_config, DefaultScheduler, beta=1.0, **kw)

    def test_exactly_one_factor_argument(self, small_config):
        with pytest.raises(ConfigurationError):
            calibrate_rtma_threshold(small_config)
        with pytest.raises(ConfigurationError):
            calibrate_rtma_threshold(small_config, alpha=1.0, alphas=[1.0])
        with pytest.raises(ConfigurationError):
            calibrate_rtma_threshold(small_config, alphas=[])
        with pytest.raises(ConfigurationError):
            calibrate_rtma_threshold(small_config, alphas=[1.0, -1.0])
        with pytest.raises(ConfigurationError):
            calibrate_ema_v_to_reference(
                small_config, DefaultScheduler, beta=1.0, betas=[1.0]
            )
        with pytest.raises(ConfigurationError):
            calibrate_ema_v_to_reference(small_config, DefaultScheduler, betas=[0.0])


class TestCalibrationWorkloadGuards:
    def test_calibrate_ema_v_regenerates_short_workload(self, small_config):
        # Regression: a workload shorter than the calibration horizon
        # used to propagate into the inner runs and crash the engine;
        # now it is regenerated to the calibration length, matching the
        # guard in calibrate_rtma_threshold.
        short_wl = generate_workload(small_config.with_(n_slots=30))
        v = calibrate_ema_v(
            small_config,
            0.5,
            workload=short_wl,
            iterations=3,
            calibration_slots=60,
        )
        assert v > 0

    def test_calibrate_ema_v_keeps_long_workload(self, small_config):
        # A workload covering the calibration horizon is used as-is:
        # identical workload => identical calibrated V.
        wl = generate_workload(small_config.with_(n_slots=80))
        v_a = calibrate_ema_v(
            small_config, 0.5, workload=wl, iterations=3, calibration_slots=80
        )
        v_b = calibrate_ema_v(
            small_config, 0.5, workload=wl, iterations=3, calibration_slots=80
        )
        assert v_a == v_b


class TestRunnerInstrumentation:
    def test_run_scheduler_explicit_instrumentation(self, small_config):
        from repro.obs import Instrumentation

        instr = Instrumentation()
        run_scheduler(small_config, DefaultScheduler(), instrumentation=instr)
        counters = instr.metrics.snapshot()["counters"]
        assert counters["engine.slots"] == small_config.n_slots

    def test_ambient_instrumentation_reaches_calibration_runs(self, small_config):
        from repro.obs import Instrumentation, use_instrumentation

        instr = Instrumentation()
        with use_instrumentation(instr):
            calibrate_ema_v(small_config, 0.5, iterations=5, calibration_slots=60)
        counters = instr.metrics.snapshot()["counters"]
        # One evaluation per grid point (the calibrator floors the grid
        # at 4 points, so ask for 5 to exercise the requested count).
        assert counters["calibration.grid_evaluations"] == 5
        hist = instr.metrics.histogram("calibration.ema.pc_s").summary()
        assert hist["count"] == 5
