"""Run-stacked batching equivalence: ``run_batch`` is invisible.

:mod:`repro.sim.batch` stacks R compatible runs into one fleet of
``N_1 + ... + N_R`` rows and executes a single slot loop for all of
them.
The contract is *bit-identity*: every per-run result grid, every
summary statistic, and the instrumentation metrics must match a
serial run-by-run execution byte for byte, for every scheduler and
every available kernel backend — also when the stacked runs differ in
population (ragged stacks).  Property tests additionally check that
*how* a task sequence is partitioned into batches — any split into
consecutive groups of any sizes — and how its scheduler types
interleave cannot be observed in the results.

Locally this exercises numpy and python backends; CI's numba job adds
the compiled backend to the same parametrisation automatically.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DefaultScheduler,
    EStreamerScheduler,
    NeedRateScheduler,
    OnOffScheduler,
    SalsaScheduler,
    ThrottlingScheduler,
)
from repro.core.allocation import check_constraints, clip_to_constraints, segment_rows
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.faults import CapacityFault, FaultPlan, FlowStall, SignalBlackout
from repro.kernels import available_backends
from repro.net.gateway import SlotObservation
from repro.net.slicing import ConstantBackground, PoissonBackground, ResourceSlicer
from repro.obs import Instrumentation
from repro.obs.tracer import RecordingTracer
from repro.sim.batch import (
    BatchPlan,
    _block_key,
    _BlockScheduler,
    batch_incompatibility,
    run_batch,
)
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

BACKENDS = list(available_backends())


def _cfg(seed, **overrides):
    base = dict(
        n_users=10,
        n_slots=250,
        capacity_kbps=6_000.0,
        video_size_range_kb=(20_000.0, 50_000.0),
        buffer_capacity_s=60.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def _tasks(make_scheduler, configs):
    """One RunTask per config, each with its own scheduler instance."""
    return [
        RunTask(cfg, make_scheduler(cfg), generate_workload(cfg))
        for cfg in configs
    ]


def assert_results_bit_identical(a, b, label):
    for name in RESULT_ARRAYS:
        assert (
            getattr(a, name).tobytes() == getattr(b, name).tobytes()
        ), f"{label}: {name} differs between serial and batched execution"


class TestBatchBitIdentity:
    """run_batch == run-by-run Simulation, per grid byte."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("seeds", [(1, 7), (23, 42)])
    def test_all_schedulers_all_backends(self, backend, sched_name, seeds):
        make = SCHEDULERS[sched_name]
        configs = [_cfg(s, kernel_backend=backend) for s in seeds]
        serial = [
            Simulation(t.config, t.scheduler, t.workload).run()
            for t in _tasks(make, configs)
        ]
        batched = run_batch(_tasks(make, configs))
        assert len(batched) == len(serial)
        for r, (a, b) in enumerate(zip(serial, batched)):
            assert_results_bit_identical(a, b, f"{sched_name}/{backend} run {r}")
            assert a.summary().as_dict() == b.summary().as_dict(), (
                f"{sched_name}/{backend} run {r}: summary differs"
            )

    @pytest.mark.parametrize("sched_name", ["rtma", "ema"])
    def test_per_run_parameter_lanes(self, sched_name):
        """Runs with *different* scheduler parameters still stack."""
        if sched_name == "rtma":
            makes = [
                lambda cfg, t=t: RTMAScheduler(sig_threshold_dbm=t)
                for t in (-95.0, -90.0, -100.0)
            ]
        else:
            # Every EMA lane parameter differs across the stack: V, the
            # queue floor (none vs one that clamps) and the queue seed.
            makes = [
                lambda cfg, v=v, floor=floor, init=init: EMAScheduler(
                    cfg.n_users, v_param=v, tau_s=cfg.tau_s,
                    queue_floor_s=floor, queue_init=init,
                )
                for v, floor, init in (
                    (0.2, None, "auto"),
                    (0.05, -2.0, 0.0),
                    (1.0, None, 5.0),
                )
            ]
        configs = [_cfg(s, n_slots=150) for s in (1, 2, 3)]
        serial_scheds = [make(cfg) for cfg, make in zip(configs, makes)]
        clamped = []
        if sched_name == "ema":
            # Record whether the floored lane's clamp ever binds.
            floored = serial_scheds[1]
            notify = floored.notify

            def watched_notify(obs, phi, delivered_kb):
                notify(obs, phi, delivered_kb)
                clamped.append(bool(np.any(floored.queues.values == -2.0)))

            floored.notify = watched_notify
        serial = [
            Simulation(cfg, sched, generate_workload(cfg)).run()
            for cfg, sched in zip(configs, serial_scheds)
        ]
        if sched_name == "ema":
            assert any(clamped), "the queue floor never binds"
        tasks = [
            RunTask(cfg, make(cfg), generate_workload(cfg))
            for cfg, make in zip(configs, makes)
        ]
        batched = run_batch(tasks)
        for r, (a, b) in enumerate(zip(serial, batched)):
            assert_results_bit_identical(a, b, f"{sched_name}-lanes run {r}")


    @pytest.mark.parametrize("sched_name", ["rtma", "ema", "default"])
    def test_time_varying_budgets(self, sched_name):
        """Runs with bursty, constant and no background traffic share
        one stack: each run's Eq. (2) budget varies per slot through
        its own slicer (the loop's per-run budget table)."""
        n_slots = 150
        poisson = PoissonBackground(
            mean_flows=2.0, per_flow_kbps=800.0, horizon_slots=n_slots, rng=3
        )
        caps = {
            ResourceSlicer(poisson).video_capacity_kbps(6_000.0, slot)
            for slot in range(n_slots)
        }
        assert len(caps) > 1, "the bursty run's budget must vary per slot"
        backgrounds = (poisson, ConstantBackground(1_500.0), None)
        configs = [
            _cfg(seed, n_slots=n_slots, background=bg)
            for seed, bg in zip((1, 2, 3), backgrounds)
        ]
        make = SCHEDULERS[sched_name]
        serial = [
            Simulation(t.config, t.scheduler, t.workload).run()
            for t in _tasks(make, configs)
        ]
        tasks = _tasks(make, configs)
        assert batch_incompatibility(tasks) is None
        batched = run_batch(tasks)
        assert len(batched) == len(serial)
        for r, (a, b) in enumerate(zip(serial, batched)):
            assert_results_bit_identical(a, b, f"{sched_name}-background run {r}")


def _as_json(value):
    """Byte-comparable form of trace events and metric states."""

    def default(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, np.generic):
            return v.item()
        raise TypeError(type(v).__name__)

    return json.dumps(value, default=default, sort_keys=True)


def _churn_faults_cfg():
    """Churn under a signal blackout, a BS outage and a flow stall."""
    plan = FaultPlan(
        signal=(SignalBlackout(start_slot=40, n_slots=30),),
        capacity=(CapacityFault(start_slot=120, n_slots=20, factor=0.0),),
        stalls=(FlowStall(start_slot=60, n_slots=25, users=(0, 3, 5)),),
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


class TestOneSegmentRun:
    """Churn, faults and a recording tracer meet in one R = 1 loop:
    ``Simulation.run`` and a single-task ``run_batch`` are the same run."""

    @pytest.mark.parametrize("sched_name", ["rtma", "ema"])
    def test_simulation_equals_single_task_batch(self, sched_name):
        cfg = _churn_faults_cfg()
        make = SCHEDULERS[sched_name]
        runs = []
        for via_batch in (False, True):
            tracer = RecordingTracer()
            instr = Instrumentation(tracer=tracer)
            (task,) = _tasks(make, [cfg])
            if via_batch:
                (result,) = run_batch([task], instrumentation=instr)
            else:
                result = Simulation(
                    task.config, task.scheduler, task.workload,
                    instrumentation=instr,
                ).run()
            runs.append((result, tracer.events, instr.metrics.state()))
        (res_a, events_a, state_a), (res_b, events_b, state_b) = runs
        assert_results_bit_identical(res_a, res_b, f"{sched_name} one-segment")
        for name in ("admitted", "rejected", "departure_slot"):
            assert getattr(res_a, name).tobytes() == getattr(res_b, name).tobytes()
        kinds = {e["kind"] for e in events_a}
        assert {"run.start", "fault.window", "session.start", "slot", "run.end"} <= kinds
        assert _as_json(events_a) == _as_json(events_b)
        assert "fault.stall_slots" in state_a["counters"]
        assert _as_json(state_a) == _as_json(state_b)


class TestChurnWithFaultsStack:
    """Churn and fault plans are per-run data: Default, ON-OFF, RTMA and
    EMA under churn, a blackout, an outage and a stall stack into one
    loop whose results, summaries, trace and merged registry are those
    of the runs run one at a time, serially and on the pool."""

    @staticmethod
    def _run(executor):
        cfg = _churn_faults_cfg()
        wl = generate_workload(cfg)
        tasks = [
            RunTask(cfg, SCHEDULERS[name](cfg), wl)
            for name in ("default", "on-off", "rtma", "ema")
        ]
        tracer = RecordingTracer()
        instr = Instrumentation(tracer=tracer)
        results = executor.map_runs(tasks, instrumentation=instr)
        return results, tracer.events, instr.metrics.state(), instr.spans.count(("run",))

    def test_stack_equals_runs_one_at_a_time(self):
        want, want_events, want_state, loops = self._run(RunExecutor(batch_size=1))
        assert loops == 4
        assert all(res.rejected.any() for res in want)
        kinds = {e["kind"] for e in want_events}
        assert {"fault.window", "session.start", "session.reject", "ema.queues"} <= kinds
        assert "fault.stall_slots" in want_state["counters"]
        for jobs in (1, 2):
            got, events, state, loops = self._run(RunExecutor(jobs=jobs))
            if jobs == 1:
                assert loops == 1
            assert len(got) == len(want)
            for r, (a, b) in enumerate(zip(want, got)):
                label = f"jobs={jobs} run {r}"
                assert_results_bit_identical(a, b, label)
                for name in ("admitted", "rejected", "departure_slot", "faulted_signal_dbm"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), label
                assert _as_json(a.to_summary_dict()) == _as_json(b.to_summary_dict()), label
            assert _as_json(events) == _as_json(want_events), f"jobs={jobs}"
            assert _registry_view(state) == _registry_view(want_state), f"jobs={jobs}"


class TestBatchMetricsEquivalence:
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    def test_metrics_identical_minus_batch_keys(self, sched_name):
        make = SCHEDULERS[sched_name]
        configs = [_cfg(s, n_slots=150) for s in (4, 5, 6)]
        instr_serial = Instrumentation()
        for t in _tasks(make, configs):
            Simulation(
                t.config, t.scheduler, t.workload,
                instrumentation=instr_serial,
            ).run()
        instr_batch = Instrumentation()
        run_batch(_tasks(make, configs), instrumentation=instr_batch)

        snap_s = instr_serial.metrics.snapshot()
        snap_b = instr_batch.metrics.snapshot()
        # Counters: exact float equality (same accumulation order is
        # part of the contract).  The grouping shows only in the span
        # tree: one run span per slot loop.
        assert snap_s["counters"] == snap_b["counters"]
        assert instr_serial.spans.count(("run",)) == len(configs)
        assert instr_batch.spans.count(("run",)) == 1
        # Gauges: every serially-published gauge must come back with
        # the same final value (last-write-wins order is preserved).
        for key, value in snap_s["gauges"].items():
            got = snap_b["gauges"].get(key)
            if isinstance(value, np.ndarray):
                assert got is not None and np.array_equal(value, got), key
            else:
                assert value == got, f"gauge {key}: {value!r} != {got!r}"


class TestBatchCompatibilityOracle:
    def test_incompatible_shapes_are_rejected(self):
        make = SCHEDULERS["rtma"]
        tasks = _tasks(make, [_cfg(1), _cfg(2, n_slots=200)])
        assert batch_incompatibility(tasks) is not None
        with pytest.raises(Exception):
            run_batch(tasks)

    def test_mixed_types_stack(self):
        cfgs = [_cfg(1), _cfg(2), _cfg(3)]

        def tasks():
            return [
                RunTask(cfgs[0], RTMAScheduler(sig_threshold_dbm=-95.0),
                        generate_workload(cfgs[0])),
                RunTask(cfgs[1], DefaultScheduler(), generate_workload(cfgs[1])),
                RunTask(cfgs[2], EMAScheduler(10, v_param=0.05),
                        generate_workload(cfgs[2])),
            ]

        assert batch_incompatibility(tasks()) is None
        serial = [
            Simulation(t.config, t.scheduler, t.workload).run() for t in tasks()
        ]
        for r, (a, b) in enumerate(zip(serial, run_batch(tasks()))):
            assert_results_bit_identical(a, b, f"mixed run {r}")

    def test_shared_scheduler_instance_is_rejected(self):
        cfgs = [_cfg(1), _cfg(2)]
        shared = RTMAScheduler(sig_threshold_dbm=-95.0)
        tasks = [
            RunTask(cfg, shared, generate_workload(cfg)) for cfg in cfgs
        ]
        assert batch_incompatibility(tasks) is not None


# --- partition invariance ------------------------------------------------

_PARTITION_SEEDS = (0, 1, 2, 3, 4, 5)
_PARTITION_REFERENCE: dict = {}


def _partition_reference(sched_name):
    """Serial reference grids for the property test, computed once per
    scheduler."""
    if sched_name not in _PARTITION_REFERENCE:
        configs = [
            _cfg(s, n_users=5, n_slots=60,
                 video_size_range_kb=(2_000.0, 5_000.0))
            for s in _PARTITION_SEEDS
        ]
        serial = [
            Simulation(t.config, t.scheduler, t.workload).run()
            for t in _tasks(SCHEDULERS[sched_name], configs)
        ]
        _PARTITION_REFERENCE[sched_name] = (
            configs,
            [
                tuple(getattr(r, name).tobytes() for name in RESULT_ARRAYS)
                for r in serial
            ],
        )
    return _PARTITION_REFERENCE[sched_name]


@st.composite
def partitions(draw):
    """A split of the task sequence into consecutive non-empty groups."""
    n = len(_PARTITION_SEEDS)
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=n - 1),
                 unique=True, max_size=n - 1)
    )
    bounds = [0, *sorted(cuts), n]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


class TestPartitionInvariance:
    @settings(
        max_examples=24,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(partition=partitions(), sched_name=st.sampled_from(["rtma", "ema"]))
    def test_any_partition_is_invisible(self, partition, sched_name):
        configs, expected = _partition_reference(sched_name)
        results = []
        for lo, hi in partition:
            group = _tasks(SCHEDULERS[sched_name], configs[lo:hi])
            if len(group) == 1:
                t = group[0]
                results.append(
                    Simulation(t.config, t.scheduler, t.workload).run()
                )
            else:
                results.extend(run_batch(group))
        assert len(results) == len(expected)
        for r, (got, want) in enumerate(zip(results, expected)):
            got_bytes = tuple(
                getattr(got, name).tobytes() for name in RESULT_ARRAYS
            )
            assert got_bytes == want, (
                f"{sched_name} partition {partition}: run {r} differs from serial"
            )


# --- mixed stacks --------------------------------------------------------

#: Every scheduler type with a few unequal parameter choices each.
_MIXED_KINDS = {
    "rtma": [
        lambda cfg, p=p: RTMAScheduler(sig_threshold_dbm=p)
        for p in (-100.0, -95.0, float("-inf"))
    ],
    "ema": [
        lambda cfg, v=v, f=f, q=q: EMAScheduler(
            cfg.n_users, v_param=v, tau_s=cfg.tau_s, queue_floor_s=f, queue_init=q
        )
        for v, f, q in ((0.05, None, "auto"), (0.5, -30.0, "auto"), (0.02, None, 0.0))
    ],
    "default": [
        lambda cfg, lo=lo: DefaultScheduler(refill_trigger_s=lo, refill_high_s=50.0)
        for lo in (20.0, 10.0)
    ],
    "need-rate": [lambda cfg: NeedRateScheduler()],
    "on-off": [
        lambda cfg, lo=lo: OnOffScheduler(low_threshold_s=lo) for lo in (10.0, 5.0)
    ],
    "throttling": [
        lambda cfg, f=f: ThrottlingScheduler(factor=f) for f in (1.25, 1.5)
    ],
    "salsa": [lambda cfg, v=v: SalsaScheduler(v_salsa=v) for v in (2.0, 0.5)],
    "estreamer": [
        lambda cfg, t=t: EStreamerScheduler(refill_trigger_s=t) for t in (8.0, 4.0)
    ],
}


def _mixed_cfg(seed):
    return _cfg(
        seed,
        n_users=4,
        n_slots=60,
        capacity_kbps=2_000.0 + 500.0 * (seed % 3),
        video_size_range_kb=(2_000.0, 6_000.0),
    )


@st.composite
def mixed_stacks(draw):
    """A random interleaving of scheduler types with per-run parameters."""
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(_MIXED_KINDS)), st.integers(0, 2)),
            min_size=2,
            max_size=7,
        )
    )
    return [
        (kind, i % len(_MIXED_KINDS[kind]), seed)
        for seed, (kind, i) in enumerate(picks)
    ]


def _mixed_tasks(spec, workloads):
    tasks = []
    for kind, i, seed in spec:
        cfg = _mixed_cfg(seed)
        tasks.append(RunTask(cfg, _MIXED_KINDS[kind][i](cfg), workloads[seed]))
    return tasks


def _registry_view(state):
    """A metrics state: per section, a byte-comparable form of each
    metric."""
    return {
        section: {k: _as_json(v) for k, v in values.items()}
        for section, values in state.items()
    }


class TestMixedStacks:
    """Runs of different scheduler types stack: every observable equals
    a run-by-run execution."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=mixed_stacks())
    @example(spec=[("ema", 0, 0), ("ema", 1, 1)])
    def test_mixed_stack_equals_run_by_run(self, spec):
        workloads = {seed: generate_workload(_mixed_cfg(seed)) for *_, seed in spec}
        serial_instr = Instrumentation()
        lone_states, serial = [], []
        for t in _mixed_tasks(spec, workloads):
            own = Instrumentation()
            serial.append(
                Simulation(t.config, t.scheduler, t.workload, instrumentation=own).run()
            )
            lone_states.append(own.metrics.state())
            serial_instr.metrics.merge_state(own.metrics.state())
        want_metrics = _registry_view(serial_instr.metrics.state())
        if any(kind == "ema" for kind, *_ in spec):
            assert "ema.virtual_queues" in want_metrics["gauges"]

        for jobs in (1, 2):
            instr = Instrumentation()
            got = RunExecutor(jobs=jobs).map_runs(
                _mixed_tasks(spec, workloads), instrumentation=instr
            )
            assert len(got) == len(serial)
            for r, (a, b) in enumerate(zip(serial, got)):
                assert_results_bit_identical(a, b, f"{spec} jobs={jobs} run {r}")
            assert _registry_view(instr.metrics.state()) == want_metrics, (
                f"{spec} jobs={jobs}: merged metrics differ"
            )

        # Per-run states of one stacked loop equal the lone runs'
        # registries, every run's own EMA gauges included.
        plan = BatchPlan(_mixed_tasks(spec, workloads))
        plan.run(Instrumentation())
        assert len(plan.run_metric_states) == len(spec)
        for r, (state, lone) in enumerate(zip(plan.run_metric_states, lone_states)):
            assert _registry_view(state) == _registry_view(lone), (spec, r)

    def test_result_arrays_share_no_memory(self):
        spec = [("rtma", 0, 0), ("default", 0, 1), ("ema", 1, 2), ("rtma", 1, 3)]
        workloads = {seed: generate_workload(_mixed_cfg(seed)) for *_, seed in spec}
        results = run_batch(_mixed_tasks(spec, workloads))
        arrays = [
            (r, name, getattr(res, name))
            for r, res in enumerate(results)
            for name in RESULT_ARRAYS
        ]
        for r, name, a in arrays:
            assert a.flags.c_contiguous, (r, name)
            for q, other, b in arrays:
                if (r, name) < (q, other):
                    assert not np.shares_memory(a, b), (r, name, q, other)


# --- ragged stacks -------------------------------------------------------


def _ragged_cfg(seed, n_users):
    return _cfg(
        seed,
        n_users=n_users,
        n_slots=60,
        capacity_kbps=1_500.0 + 150.0 * n_users,
        video_size_range_kb=(2_000.0, 6_000.0),
    )


@st.composite
def ragged_stacks(draw):
    """Runs of random populations and scheduler types, interleaved."""
    picks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(_MIXED_KINDS)),
                st.integers(0, 2),
                st.integers(1, 40),
            ),
            min_size=2,
            max_size=8,
        )
    )
    return [
        (kind, i % len(_MIXED_KINDS[kind]), seed, n_users)
        for seed, (kind, i, n_users) in enumerate(picks)
    ]


def _ragged_tasks(spec, workloads):
    tasks = []
    for kind, i, seed, n_users in spec:
        cfg = _ragged_cfg(seed, n_users)
        tasks.append(RunTask(cfg, _MIXED_KINDS[kind][i](cfg), workloads[seed]))
    return tasks


class TestRaggedStacks:
    """Runs with different user counts share one slot loop: results,
    per-run metric states and the merged registry equal a run-by-run
    execution."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=ragged_stacks())
    @example(spec=[("ema", 0, 0, 5), ("ema", 1, 1, 9)])
    def test_ragged_stack_equals_run_by_run(self, spec):
        workloads = {
            seed: generate_workload(_ragged_cfg(seed, n)) for *_, seed, n in spec
        }
        assert batch_incompatibility(_ragged_tasks(spec, workloads)) is None
        serial_instr = Instrumentation()
        lone_states, serial = [], []
        for t in _ragged_tasks(spec, workloads):
            own = Instrumentation()
            serial.append(
                Simulation(t.config, t.scheduler, t.workload, instrumentation=own).run()
            )
            lone_states.append(own.metrics.state())
            serial_instr.metrics.merge_state(own.metrics.state())
        want_metrics = _registry_view(serial_instr.metrics.state())

        for jobs in (1, 2):
            instr = Instrumentation()
            got = RunExecutor(jobs=jobs).map_runs(
                _ragged_tasks(spec, workloads), instrumentation=instr
            )
            assert len(got) == len(serial)
            for r, (a, b) in enumerate(zip(serial, got)):
                assert_results_bit_identical(a, b, f"{spec} jobs={jobs} run {r}")
            assert _registry_view(instr.metrics.state()) == want_metrics, (
                f"{spec} jobs={jobs}: merged metrics differ"
            )
            if jobs == 1:
                assert instr.spans.count(("run",)) == 1

        plan = BatchPlan(_ragged_tasks(spec, workloads))
        plan.run(Instrumentation())
        assert len(plan.run_metric_states) == len(spec)
        for r, (state, lone) in enumerate(zip(plan.run_metric_states, lone_states)):
            assert _registry_view(state) == _registry_view(lone), (spec, r)

    def test_incompatibility_never_names_n_users(self):
        tasks = _tasks(SCHEDULERS["ema"], [_cfg(1, n_users=3), _cfg(2, n_users=17)])
        assert batch_incompatibility(tasks) is None


# --- one clip per slot ----------------------------------------------------

#: Kinds of a stack whose clip-shared baselines sit next to RTMA and EMA.
_ONE_CLIP_KINDS = ("default", "throttling", "on-off", "salsa", "estreamer", "rtma", "ema")


@st.composite
def block_stacks(draw):
    """Runs of 1-40 users, baseline blocks interleaved with RTMA and EMA
    blocks, and a seed for the slots they see."""
    picks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_ONE_CLIP_KINDS),
                st.integers(0, 2),
                st.integers(1, 40),
            ),
            min_size=2,
            max_size=8,
        )
    )
    return picks, draw(st.integers(0, 2**16))


def _block_scheduler(spec):
    """A stack's scheduler over ``spec``'s runs, in spec order."""
    scheds, sizes = [], []
    for kind, i, n in spec:
        cfg = SimpleNamespace(n_users=n, tau_s=1.0)
        makers = _MIXED_KINDS[kind]
        scheds.append(makers[i % len(makers)](cfg))
        sizes.append(n)
    keys = [_block_key(s, n, i) for i, (s, n) in enumerate(zip(scheds, sizes))]
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    sched = _BlockScheduler(scheds, keys, offsets)
    sched.reset()
    return sched, offsets


def _random_stack_obs(rng, offsets, slot):
    """A random stacked slot over the segments ``offsets``; about a
    quarter of the runs get a zero Eq. (2) budget."""
    n, n_runs = int(offsets[-1]), offsets.shape[0] - 1
    sig = rng.uniform(-110.0, -50.0, n)
    active = rng.random(n) < 0.85
    budgets = rng.integers(0, 30 * np.diff(offsets) + 1)
    budgets[rng.random(n_runs) < 0.25] = 0
    return SlotObservation(
        slot=slot,
        tau_s=1.0,
        delta_kb=40.0,
        unit_budget=int(budgets.sum()),
        sig_dbm=sig,
        rate_kbps=rng.uniform(300.0, 600.0, n),
        link_units=np.floor((65.8 * sig + 7567.0) / 40.0).astype(np.int64),
        p_mj_per_kb=-0.167 + 1560.0 / (65.8 * sig + 7567.0),
        active=active,
        buffer_s=rng.uniform(0.0, 70.0, n),
        remaining_kb=np.where(active, rng.uniform(40.0, 2e4, n), 0.0),
        idle_tail_cost_mj=rng.uniform(0.0, 733.0, n),
        receivable_kb=np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.0, 3e4, n)),
        run_offsets=offsets,
        run_unit_budgets=budgets.astype(np.int64),
    )


def _state(sched):
    """Bytes of a scheduler's array state, EMA's virtual queues included."""
    arrays = {k: v for k, v in vars(sched).items() if isinstance(v, np.ndarray)}
    if isinstance(sched, EMAScheduler):
        arrays["queues"] = sched.queues.values
    return {k: v.tobytes() for k, v in arrays.items()}


class TestOneClipPerSlot:
    """A stack's scheduler clips all its baseline blocks at once: the
    same allocation and state as allocating each block on its own
    view."""

    @settings(max_examples=25, deadline=None)
    @given(stack=block_stacks())
    def test_one_clip_equals_blocks_alone(self, stack):
        spec, seed = stack
        one, offsets = _block_scheduler(spec)
        alone, _ = _block_scheduler(spec)
        assert any(b.clips for b in one.blocks) == any(
            kind not in ("rtma", "ema") for kind, *_ in spec
        )
        rng = np.random.default_rng(seed)
        for slot in range(12):
            obs = _random_stack_obs(rng, offsets, slot)
            phi = one.allocate(obs)
            views = [b.view(obs) for b in alone.blocks]
            want = np.zeros(obs.n_users, dtype=np.int64)
            for b, view in zip(alone.blocks, views):
                want[b.lo : b.hi] = b.scheduler.allocate(view)
            assert phi.dtype == want.dtype and phi.tobytes() == want.tobytes(), (
                spec, slot
            )
            check_constraints(phi, obs)
            delivered = np.minimum(phi * obs.delta_kb, obs.remaining_kb)
            one.notify(obs, phi, delivered)
            for b, view in zip(alone.blocks, views):
                b.scheduler.notify(view, want[b.lo : b.hi], delivered[b.lo : b.hi])
            for b, c in zip(one.blocks, alone.blocks):
                assert _state(b.scheduler) == _state(c.scheduler), (spec, slot)

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_clip_with_loop_layout_is_segment_greedy(self, sizes, seed):
        rng = np.random.default_rng(seed)
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        obs = _random_stack_obs(rng, offsets, 0)
        desired = rng.uniform(-5.0, 40.0, obs.n_users)
        desired[rng.random(obs.n_users) < 0.2] = 0.0
        # One segment at a time, user by user: each takes what it wants,
        # up to what its run's budget has left.
        expected = []
        for r in range(len(sizes)):
            left = int(obs.run_unit_budgets[r])
            for i in range(int(offsets[r]), int(offsets[r + 1])):
                units = min(max(int(np.floor(desired[i])), 0), int(obs.link_units[i]))
                grant = min(units, left) if obs.active[i] else 0
                left -= grant
                expected.append(grant)
        expected = np.array(expected, dtype=np.int64)
        for row_run in (segment_rows(offsets), None):
            got = clip_to_constraints(desired, obs, row_run)
            assert got.dtype == np.int64 and got.tobytes() == expected.tobytes()


def _loop_blocks(plan):
    """The scheduler blocks of ``plan``'s stacked loop."""
    widths = [plan.tasks[i].config.n_users for i in plan.order]
    offsets = np.concatenate(([0], np.cumsum(widths))).astype(np.int64)
    return plan._make_scheduler(offsets).blocks


class TestBlockGrouping:
    """A stack's segments are grouped by block key: one scheduler
    instance per distinct key, whatever the interleaving."""

    def test_point_major_panel_is_four_blocks(self):
        kinds = ("default", "throttling", "on-off", "rtma")
        tasks = [
            RunTask(cfg, SCHEDULERS[kind](cfg), generate_workload(cfg))
            for cfg in (_cfg(1, n_users=4), _cfg(1, n_users=6), _cfg(1, n_users=8))
            for kind in kinds
        ]
        plan = BatchPlan(tasks)
        assert [tasks[i].scheduler.name for i in plan.order] == [
            tasks[k].scheduler.name for k in range(4) for _ in range(3)
        ]
        assert len(_loop_blocks(plan)) == 4

    @settings(max_examples=30, deadline=None)
    @given(spec=ragged_stacks())
    def test_block_count_is_distinct_keys(self, spec):
        workloads = {
            seed: generate_workload(_ragged_cfg(seed, n)) for *_, seed, n in spec
        }
        tasks = _ragged_tasks(spec, workloads)
        plan = BatchPlan(tasks)
        assert sorted(plan.order) == list(range(len(tasks)))
        keys = {
            _block_key(t.scheduler, t.config.n_users, i) for i, t in enumerate(tasks)
        }
        assert len(_loop_blocks(plan)) == len(keys)
