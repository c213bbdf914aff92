"""The run executor: serial/pool equivalence and ambient wiring.

The contract under test is the one the docs promise: ``jobs=N`` is
bit-identical to ``jobs=1`` in results *and* in the merged metrics
registry, for explicit-workload batches (comparison shape) and
generate-in-worker batches (multi-seed shape) alike.
"""

import numpy as np
import pytest

from repro.baselines import DefaultScheduler
from repro.core.rtma import RTMAScheduler
from repro.errors import ConfigurationError
from repro.faults import CapacityFault, FaultPlan, WorkerFault, use_fault_plan
from repro.obs import Instrumentation, use_instrumentation
from repro.obs.tracer import RecordingTracer
from repro.sim import (
    RunExecutor,
    RunTask,
    SimConfig,
    calibrate_ema_v,
    compare_schedulers,
    current_executor,
    map_runs,
    multi_seed,
    use_executor,
)
from repro.sim.runner import calibrate_rtma_threshold
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


def small_config(seed=11):
    return SimConfig(n_users=5, n_slots=80, capacity_kbps=4_000.0, seed=seed)


def make_tasks(cfg, thresholds, workload):
    return [
        RunTask(cfg, RTMAScheduler(sig_threshold_dbm=t), workload)
        for t in thresholds
    ]


def assert_results_bit_identical(a, b):
    for name in RESULT_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestSerialPoolEquivalence:
    THRESHOLDS = [-110.0, -100.0, -95.0, -90.0]

    def test_results_bit_identical(self):
        cfg = small_config()
        wl = generate_workload(cfg)
        serial = RunExecutor(jobs=1).map_runs(make_tasks(cfg, self.THRESHOLDS, wl))
        pooled = RunExecutor(jobs=2).map_runs(make_tasks(cfg, self.THRESHOLDS, wl))
        assert len(serial) == len(pooled) == len(self.THRESHOLDS)
        for a, b in zip(serial, pooled):
            assert_results_bit_identical(a, b)

    def test_metrics_bit_identical(self):
        # Run by run and at the default (stacked) grouping alike.
        cfg = small_config()
        wl = generate_workload(cfg)
        for batch_size in (1, None):
            states = []
            for jobs in (1, 2):
                instr = Instrumentation()
                RunExecutor(jobs=jobs, batch_size=batch_size).map_runs(
                    make_tasks(cfg, self.THRESHOLDS, wl), instrumentation=instr
                )
                states.append(instr.metrics.state())
            assert states[0]["counters"] == states[1]["counters"]
            assert states[0]["histograms"] == states[1]["histograms"]
            assert states[0]["info"] == states[1]["info"]
            assert set(states[0]["gauges"]) == set(states[1]["gauges"])
            for name, value in states[0]["gauges"].items():
                other = states[1]["gauges"][name]
                if isinstance(value, np.ndarray):
                    assert value.tobytes() == other.tobytes(), name
                else:
                    assert value == other, name

    def test_generated_workloads_match(self):
        # No explicit workload: workers regenerate from the seeded
        # config (multi-seed shape) and must agree with in-process runs.
        tasks = [
            RunTask(small_config(seed=s), DefaultScheduler()) for s in (1, 2, 3)
        ]
        serial = RunExecutor(jobs=1).map_runs(tasks)
        pooled = RunExecutor(jobs=3).map_runs(tasks)
        for a, b in zip(serial, pooled):
            assert_results_bit_identical(a, b)

    def test_profiler_samples_merge(self):
        # A plain bundle: workers record spans and ship them home
        # without the parent passing a recorder.
        cfg = small_config()
        wl = generate_workload(cfg)
        instr = Instrumentation()
        RunExecutor(jobs=2, batch_size=1).map_runs(
            make_tasks(cfg, self.THRESHOLDS, wl), instrumentation=instr
        )
        playback = ("run", "slots", "playback")
        assert instr.spans.count(playback) == len(self.THRESHOLDS) * cfg.n_slots

    def test_auto_metrics_match_unstacked(self):
        # The default stacks the four runs (one group at jobs=1, two at
        # jobs=2): every counter, histogram and gauge equals the
        # run-by-run registry.  The grouping shows in the span tree
        # only: one run span per slot loop.
        cfg = small_config()
        wl = generate_workload(cfg)
        ref = Instrumentation()
        RunExecutor(batch_size=1).map_runs(
            make_tasks(cfg, self.THRESHOLDS, wl), instrumentation=ref
        )
        ref_state = ref.metrics.state()
        assert ref.spans.count(("run",)) == len(self.THRESHOLDS)
        for jobs in (1, 2):
            instr = Instrumentation()
            RunExecutor(jobs=jobs).map_runs(
                make_tasks(cfg, self.THRESHOLDS, wl), instrumentation=instr
            )
            state = instr.metrics.state()
            assert instr.spans.count(("run",)) == jobs
            assert state["counters"] == ref_state["counters"]
            assert state["histograms"] == ref_state["histograms"]
            assert state["info"] == ref_state["info"]
            assert set(state["gauges"]) == set(ref_state["gauges"])
            for name, value in ref_state["gauges"].items():
                assert np.asarray(value).tobytes() == np.asarray(
                    state["gauges"][name]
                ).tobytes(), name


class TestExecutorAPI:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RunExecutor(jobs=0)

    def test_empty_batch(self):
        assert RunExecutor(jobs=2).map_runs([]) == []

    def test_ambient_executor(self):
        assert current_executor() is None
        ex = RunExecutor(jobs=1)
        with use_executor(ex):
            assert current_executor() is ex
        assert current_executor() is None

    def test_map_runs_defaults_to_serial(self):
        cfg = small_config()
        wl = generate_workload(cfg)
        (res,) = map_runs([RunTask(cfg, DefaultScheduler(), wl)])
        assert res.pe_mj > 0


class TestExecutorResilience:
    """Per-task submit/collect: timeout, bounded retry, pool-break
    partial recovery.  Faults are injected with WorkerFault; every
    batch must still return results bit-identical to a serial run,
    because the parent serial fallback never injects."""

    def _tasks(self, n=4):
        return [
            RunTask(small_config(seed=s), DefaultScheduler()) for s in range(n)
        ]

    def _serial(self, n=4):
        return RunExecutor(jobs=1).map_runs(self._tasks(n))

    @staticmethod
    def _executor_counters(instr):
        return {
            name: instr.metrics.counter(name).value
            for name in instr.metrics.names()
            if name.startswith("executor.")
        }

    def test_raise_fault_retries_in_pool(self):
        instr = Instrumentation()
        pooled = RunExecutor(
            jobs=2,
            batch_size=1,
            worker_faults=(WorkerFault("raise", task_index=1),),
        ).map_runs(self._tasks(), instrumentation=instr)
        for a, b in zip(self._serial(), pooled):
            assert_results_bit_identical(a, b)
        counters = self._executor_counters(instr)
        assert counters == {"executor.task_retries": 1}

    def test_crash_fault_partial_recovery(self):
        instr = Instrumentation()
        pooled = RunExecutor(
            jobs=2,
            batch_size=1,
            worker_faults=(WorkerFault("crash", task_index=2),),
        ).map_runs(self._tasks(), instrumentation=instr)
        for a, b in zip(self._serial(), pooled):
            assert_results_bit_identical(a, b)
        counters = self._executor_counters(instr)
        assert counters["executor.pool_breaks"] == 1
        assert counters["executor.serial_fallbacks"] >= 1

    def test_crash_fault_partial_recovery_auto(self):
        # Default grouping: four compatible tasks on two workers are two
        # stacked groups, and a WorkerFault's index names a group.
        healthy = Instrumentation()
        RunExecutor(jobs=2).map_runs(self._tasks(), instrumentation=healthy)
        instr = Instrumentation()
        pooled = RunExecutor(
            jobs=2, worker_faults=(WorkerFault("crash", task_index=1),)
        ).map_runs(self._tasks(), instrumentation=instr)
        for a, b in zip(self._serial(), pooled):
            assert_results_bit_identical(a, b)
        counters = self._executor_counters(instr)
        assert counters["executor.pool_breaks"] == 1
        assert counters["executor.serial_fallbacks"] >= 1
        survived = {
            k: v
            for k, v in instr.metrics.state()["counters"].items()
            if not k.startswith("executor.")
        }
        assert survived == healthy.metrics.state()["counters"]

    def test_delay_fault_trips_task_timeout(self):
        instr = Instrumentation()
        # delay >> timeout, but short enough that the pool's shutdown
        # (which waits for the still-sleeping worker) stays quick.
        pooled = RunExecutor(
            jobs=2,
            batch_size=1,
            task_timeout_s=1.5,
            worker_faults=(WorkerFault("delay", task_index=0, delay_s=6.0),),
        ).map_runs(self._tasks(), instrumentation=instr)
        for a, b in zip(self._serial(), pooled):
            assert_results_bit_identical(a, b)
        counters = self._executor_counters(instr)
        assert counters["executor.task_timeouts"] == 1
        assert counters["executor.serial_fallbacks"] == 1

    def test_exhausted_retries_fall_back_serial(self):
        instr = Instrumentation()
        pooled = RunExecutor(
            jobs=2,
            batch_size=1,
            task_retries=1,
            worker_faults=(WorkerFault("raise", task_index=1, times=5),),
        ).map_runs(self._tasks(), instrumentation=instr)
        for a, b in zip(self._serial(), pooled):
            assert_results_bit_identical(a, b)
        counters = self._executor_counters(instr)
        assert counters["executor.task_retries"] == 1
        assert counters["executor.serial_fallbacks"] == 1

    def test_crash_with_batch_groups(self):
        instr = Instrumentation()
        pooled = RunExecutor(
            jobs=2,
            batch_size=2,
            worker_faults=(WorkerFault("crash", task_index=0),),
        ).map_runs(self._tasks(), instrumentation=instr)
        for a, b in zip(self._serial(), pooled):
            assert_results_bit_identical(a, b)
        assert self._executor_counters(instr)["executor.pool_breaks"] == 1

    def test_healthy_run_creates_no_failure_counters(self):
        instr = Instrumentation()
        RunExecutor(jobs=2).map_runs(self._tasks(), instrumentation=instr)
        assert self._executor_counters(instr) == {}

    def test_engine_metrics_survive_fallback(self):
        # The serial fallback merges a private bundle in task order, so
        # engine counters still equal a serial run's despite the crash.
        serial_instr = Instrumentation()
        RunExecutor(jobs=1, batch_size=1).map_runs(
            self._tasks(), instrumentation=serial_instr
        )
        crash_instr = Instrumentation()
        RunExecutor(
            jobs=2,
            batch_size=1,
            worker_faults=(WorkerFault("crash", task_index=2),),
        ).map_runs(self._tasks(), instrumentation=crash_instr)
        serial_counters = serial_instr.metrics.state()["counters"]
        crash_counters = {
            k: v
            for k, v in crash_instr.metrics.state()["counters"].items()
            if not k.startswith("executor.")
        }
        assert crash_counters == serial_counters

    def test_ambient_fault_plan_crosses_pool(self):
        plan = FaultPlan(capacity=(CapacityFault(start_slot=20, n_slots=10),))
        with use_fault_plan(plan):
            serial = RunExecutor(jobs=1).map_runs(self._tasks())
            pooled = RunExecutor(jobs=2).map_runs(self._tasks())
        for a, b in zip(serial, pooled):
            assert_results_bit_identical(a, b)
        healthy = self._serial()
        assert (
            serial[0].delivered_kb.tobytes() != healthy[0].delivered_kb.tobytes()
        )

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            RunExecutor(task_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            RunExecutor(task_retries=-1)
        with pytest.raises(ConfigurationError):
            RunExecutor(worker_faults=("crash",))


class TestRunnerOnExecutor:
    """The runner helpers route through map_runs and honour the
    ambient executor; parallel output equals serial output."""

    def _schedulers(self):
        return {
            "default": DefaultScheduler(),
            "rtma": RTMAScheduler(sig_threshold_dbm=-95.0),
        }

    def test_compare_schedulers_parallel(self):
        cfg = small_config()
        wl = generate_workload(cfg)
        serial = compare_schedulers(cfg, self._schedulers(), wl)
        with use_executor(RunExecutor(jobs=2)):
            pooled = compare_schedulers(cfg, self._schedulers(), wl)
        assert list(serial) == list(pooled)
        for name in serial:
            assert_results_bit_identical(serial[name], pooled[name])

    def test_sweep_parallel(self):
        cfg = small_config()

        def tasks():
            return [
                RunTask(cfg.with_(n_users=n), DefaultScheduler()) for n in (3, 5, 7)
            ]

        serial = map_runs(tasks())
        with use_executor(RunExecutor(jobs=2)):
            pooled = map_runs(tasks())
        for a, b in zip(serial, pooled):
            assert_results_bit_identical(a, b)

    def test_multi_seed_parallel(self):
        cfg = small_config()
        factory = lambda c: DefaultScheduler()  # noqa: E731
        serial = multi_seed(cfg, factory, [4, 5, 6])
        with use_executor(RunExecutor(jobs=2)):
            pooled = multi_seed(cfg, factory, [4, 5, 6])
        for a, b in zip(serial, pooled):
            assert_results_bit_identical(a, b)

    def test_explicit_instrumentation_observes_runs(self):
        # Regression: compare/multi_seed used to forward the
        # *unresolved* instrumentation argument to the engine, so an
        # explicitly passed bundle never saw the runs' counters.
        cfg = small_config()
        wl = generate_workload(cfg)
        instr = Instrumentation()
        compare_schedulers(cfg, self._schedulers(), wl, instrumentation=instr)
        assert instr.metrics.counter("engine.slots").value == 2 * cfg.n_slots

    def test_explicit_wins_over_ambient(self):
        cfg = small_config()
        wl = generate_workload(cfg)
        explicit = Instrumentation()
        ambient = Instrumentation()
        with use_instrumentation(ambient):
            compare_schedulers(
                cfg, self._schedulers(), wl, instrumentation=explicit
            )
        assert explicit.metrics.counter("engine.slots").value == 2 * cfg.n_slots
        assert "engine.slots" not in ambient.metrics


class TestAutoGrouping:
    """``batch_size=None`` (the default) stacks each maximal run of
    consecutive compatible tasks, split into near-equal groups, one per
    worker; an integer caps the group size."""

    @staticmethod
    def _tasks(n=10):
        cfg = small_config()
        return [RunTask(cfg, DefaultScheduler()) for _ in range(n)]

    @staticmethod
    def _sizes(executor, tasks):
        groups = executor._group_tasks(tasks)
        flat = [t for g in groups for t in g]
        assert len(flat) == len(tasks)
        assert all(a is b for a, b in zip(flat, tasks)), "task order changed"
        return [len(g) for g in groups]

    @pytest.mark.parametrize(
        "jobs, sizes", [(1, [10]), (2, [5, 5]), (3, [4, 3, 3])]
    )
    def test_one_group_per_worker(self, jobs, sizes):
        executor = RunExecutor(jobs=jobs)
        assert executor.batch_size is None
        assert self._sizes(executor, self._tasks()) == sizes

    def test_more_workers_than_tasks(self):
        assert self._sizes(RunExecutor(jobs=4), self._tasks(3)) == [1, 1, 1]

    def test_incompatible_neighbour_breaks_group(self):
        tasks = self._tasks(6)
        tasks.insert(3, RunTask(small_config().with_(delta_kb=30.0), DefaultScheduler()))
        tasks.insert(5, RunTask(small_config().with_(n_slots=7), RTMAScheduler()))
        assert self._sizes(RunExecutor(), tasks) == [3, 1, 1, 1, 2]
        assert self._sizes(RunExecutor(jobs=2), tasks) == [2, 1, 1, 1, 1, 1, 1]

    def test_cap_is_honoured(self):
        assert self._sizes(RunExecutor(batch_size=4), self._tasks()) == [4, 3, 3]
        assert self._sizes(
            RunExecutor(jobs=2, batch_size=4), self._tasks()
        ) == [4, 3, 3]
        assert self._sizes(
            RunExecutor(jobs=3, batch_size=16), self._tasks()
        ) == [4, 3, 3]

    def test_batch_size_one_gives_singletons(self):
        for jobs in (1, 2):
            executor = RunExecutor(jobs=jobs, batch_size=1)
            assert self._sizes(executor, self._tasks()) == [1] * 10

    def test_traced_and_live_runs_stack(self):
        # Traces are written from finished results and the live plane
        # follows every run of a stack, so neither splits a group: a
        # live batch runs in as many slot loops as a traced one.
        from repro.obs.live import LiveTelemetry

        assert self._sizes(RunExecutor(jobs=2), self._tasks()) == [5, 5]
        for instr in (
            Instrumentation(tracer=RecordingTracer()),
            Instrumentation(live=LiveTelemetry()),
            Instrumentation(),
        ):
            RunExecutor(batch_size=5).map_runs(self._tasks(), instrumentation=instr)
            assert instr.spans.count(("run",)) == 2

    def test_batch_size_validation_and_repr(self):
        with pytest.raises(ConfigurationError):
            RunExecutor(batch_size=0)
        assert repr(RunExecutor(jobs=2)) == "RunExecutor(jobs=2, batch_size=auto)"
        assert repr(RunExecutor(batch_size=8)) == "RunExecutor(jobs=1, batch_size=8)"


class _RecordingExecutor(RunExecutor):
    """Keeps every result it returns, in order."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.results = []

    def map_runs(self, tasks, instrumentation=None):
        out = super().map_runs(tasks, instrumentation=instrumentation)
        self.results.extend(out)
        return out


class TestCalibrationStacking:
    """The calibration grids stack by default and return the same
    value and the same run grids, byte for byte, as run by run."""

    @staticmethod
    def _contended():
        return SimConfig(
            n_users=6,
            n_slots=120,
            capacity_kbps=3_000.0,
            video_size_range_kb=(50_000.0, 80_000.0),
            seed=7,
        )

    def _both(self, calibrate):
        out = {}
        for batch_size in (None, 1):
            executor = _RecordingExecutor(batch_size=batch_size)
            instr = Instrumentation()
            with use_executor(executor), use_instrumentation(instr):
                value = calibrate()
            loops = instr.spans.count(("run",))
            out[batch_size] = (value, executor.results, loops)
        (v_auto, runs_auto, stacked), (v_one, runs_one, unstacked) = (
            out[None],
            out[1],
        )
        assert stacked == 1 and unstacked == len(runs_one)
        assert v_auto == v_one
        assert len(runs_auto) == len(runs_one) > 2
        for a, b in zip(runs_auto, runs_one):
            assert_results_bit_identical(a, b)

    def test_rtma_threshold_grid(self):
        cfg = self._contended()
        self._both(
            lambda: calibrate_rtma_threshold(cfg, alpha=0.5, iterations=5)
        )

    def test_ema_v_grid(self):
        cfg = self._contended()
        self._both(lambda: calibrate_ema_v(cfg, 0.05, iterations=6))
