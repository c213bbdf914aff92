"""The fault-injection plane: plan construction, engine threading,
and the no-fault bit-identity contract.

The load-bearing promise is the last one: ``faults=None`` (and an
empty plan) must leave every scheduler's results byte-for-byte
identical to the seed path — the fault hooks compile to no-ops when
nothing is injected.
"""

import numpy as np
import pytest

from repro import constants
from repro.baselines import DefaultScheduler, NeedRateScheduler
from repro.baselines.estreamer import EStreamerScheduler
from repro.baselines.onoff import OnOffScheduler
from repro.baselines.salsa import SalsaScheduler
from repro.baselines.throttling import ThrottlingScheduler
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.errors import ConfigurationError
from repro.faults import (
    CapacityFault,
    FaultPlan,
    FlowStall,
    SignalBlackout,
    WorkerFault,
    current_fault_plan,
    use_fault_plan,
)
from repro.net.basestation import ConstantCapacity, FaultyCapacity
from repro.sim import SimConfig, Simulation
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

ALL_SCHEDULERS = (
    ("default", lambda: DefaultScheduler()),
    ("need-rate", lambda: NeedRateScheduler()),
    ("rtma", lambda: RTMAScheduler()),
    ("ema", lambda: EMAScheduler(5, v_param=0.1)),
    ("estreamer", lambda: EStreamerScheduler()),
    ("onoff", lambda: OnOffScheduler()),
    ("salsa", lambda: SalsaScheduler()),
    ("throttling", lambda: ThrottlingScheduler()),
)


def small_config(**overrides):
    base = dict(
        n_users=5,
        n_slots=100,
        capacity_kbps=4_000.0,
        video_size_range_kb=(20_000, 30_000),
        seed=9,
    )
    base.update(overrides)
    return SimConfig(**base)


def assert_results_bit_identical(a, b):
    for name in RESULT_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestWindowValidation:
    def test_negative_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SignalBlackout(start_slot=-1, n_slots=5)
        with pytest.raises(ConfigurationError):
            CapacityFault(start_slot=0, n_slots=0)

    def test_capacity_factor_range(self):
        with pytest.raises(ConfigurationError):
            CapacityFault(start_slot=0, n_slots=5, factor=1.0)
        with pytest.raises(ConfigurationError):
            CapacityFault(start_slot=0, n_slots=5, factor=-0.1)

    def test_stall_needs_users(self):
        with pytest.raises(ConfigurationError):
            FlowStall(start_slot=0, n_slots=5, users=())

    def test_worker_fault_kinds(self):
        with pytest.raises(ConfigurationError):
            WorkerFault("explode", task_index=0)
        with pytest.raises(ConfigurationError):
            WorkerFault("crash", task_index=-1)
        with pytest.raises(ConfigurationError):
            WorkerFault("crash", task_index=0, times=0)

    def test_config_rejects_out_of_range_users(self):
        plan = FaultPlan(stalls=(FlowStall(start_slot=0, n_slots=5, users=(7,)),))
        with pytest.raises(ConfigurationError):
            small_config(faults=plan)

    def test_config_rejects_non_plan(self):
        with pytest.raises(ConfigurationError):
            small_config(faults={"signal": []})


class TestPlanConstruction:
    def test_spec_round_trip(self):
        plan = FaultPlan(
            signal=(SignalBlackout(start_slot=10, n_slots=5, users=(0, 2)),),
            capacity=(CapacityFault(start_slot=20, n_slots=5, factor=0.25),),
            stalls=(FlowStall(start_slot=30, n_slots=5, users=(1,)),),
        )
        assert FaultPlan.from_spec(plan.spec()) == plan

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec({"blackouts": []})

    def test_random_is_deterministic(self):
        a = FaultPlan.random(7, n_slots=200, n_users=10)
        b = FaultPlan.random(7, n_slots=200, n_users=10)
        c = FaultPlan.random(8, n_slots=200, n_users=10)
        assert a == b
        assert a != c
        a.validate_for(10)

    def test_random_never_draws_from_workload_rng(self):
        cfg = small_config()
        before = generate_workload(cfg)
        FaultPlan.random(cfg.seed, cfg.n_slots, cfg.n_users)
        after = generate_workload(cfg)
        assert before.signal_dbm.tobytes() == after.signal_dbm.tobytes()

    def test_masks_and_factors(self):
        plan = FaultPlan(
            signal=(SignalBlackout(start_slot=0, n_slots=5),),
            capacity=(
                CapacityFault(start_slot=3, n_slots=4, factor=0.5),
                CapacityFault(start_slot=5, n_slots=2, factor=0.0),
            ),
        )
        factors = plan.capacity_factors(10)
        assert factors[2] == 1.0
        assert factors[4] == 0.5
        assert factors[5] == 0.0  # overlap takes the minimum
        outage = plan.outage_slot_mask(10)
        assert outage[:7].all() and not outage[7:].any()

    def test_faulty_capacity_floors_at_epsilon(self):
        model = FaultyCapacity(ConstantCapacity(4_000.0), np.array([0.0, 0.5]))
        assert 0.0 < model.capacity_kbps(0) <= FaultyCapacity.OUTAGE_FLOOR_KBPS
        assert model.capacity_kbps(1) == 2_000.0
        assert model.capacity_kbps(5) == 4_000.0  # past the array: healthy


class TestNoFaultBitIdentity:
    @pytest.mark.parametrize("name,factory", ALL_SCHEDULERS)
    def test_none_and_empty_plan_match_seed_path(self, name, factory):
        cfg = small_config()
        wl = generate_workload(cfg)
        seed_run = Simulation(cfg, factory(), wl).run()
        none_run = Simulation(cfg.with_(faults=None), factory(), wl).run()
        empty_run = Simulation(cfg.with_(faults=FaultPlan()), factory(), wl).run()
        assert_results_bit_identical(seed_run, none_run)
        assert_results_bit_identical(seed_run, empty_run)


class TestInjectionEfficacy:
    def test_capacity_outage_zeroes_delivery(self):
        plan = FaultPlan(capacity=(CapacityFault(start_slot=40, n_slots=10),))
        result = Simulation(
            small_config(faults=plan), DefaultScheduler()
        ).run()
        assert result.delivered_kb[40:50].sum() == 0.0
        assert result.allocation_units[40:50].sum() == 0
        assert result.delivered_kb[:40].sum() > 0.0

    def test_flow_stall_zeroes_only_named_users(self):
        plan = FaultPlan(stalls=(FlowStall(start_slot=20, n_slots=10, users=(0,)),))
        result = Simulation(
            small_config(faults=plan), DefaultScheduler()
        ).run()
        assert result.delivered_kb[20:30, 0].sum() == 0.0
        assert result.delivered_kb[20:30, 1:].sum() > 0.0

    def test_signal_blackout_changes_run(self):
        cfg = small_config()
        plan = FaultPlan(signal=(SignalBlackout(start_slot=10, n_slots=30),))
        healthy = Simulation(cfg, RTMAScheduler(), generate_workload(cfg)).run()
        faulted = Simulation(
            cfg.with_(faults=plan), RTMAScheduler(), generate_workload(cfg)
        ).run()
        assert (
            healthy.delivered_kb.tobytes() != faulted.delivered_kb.tobytes()
        )

    def test_blackout_level_reaches_scheduler(self):
        # RTMA never schedules below its threshold, so a blackout at
        # SIGNAL_MIN_DBM must suppress every affected allocation.
        plan = FaultPlan(signal=(SignalBlackout(start_slot=10, n_slots=10),))
        cfg = small_config(faults=plan)
        scheduler = RTMAScheduler(sig_threshold_dbm=constants.SIGNAL_MIN_DBM + 1.0)
        result = Simulation(cfg, scheduler).run()
        assert result.allocation_units[10:20].sum() == 0

    def test_workload_object_stays_pristine(self):
        cfg = small_config()
        wl = generate_workload(cfg)
        before = wl.signal_dbm.tobytes()
        plan = FaultPlan(signal=(SignalBlackout(start_slot=0, n_slots=50),))
        Simulation(cfg.with_(faults=plan), DefaultScheduler(), wl).run()
        assert wl.signal_dbm.tobytes() == before

    def test_dynamic_engine_applies_faults(self):
        plan = FaultPlan(capacity=(CapacityFault(start_slot=30, n_slots=10),))
        cfg = small_config(
            faults=plan,
            arrival_process="poisson",
            arrival_rate_per_slot=0.5,
        )
        assert cfg.has_churn
        result = Simulation(cfg, DefaultScheduler()).run()
        assert result.delivered_kb[30:40].sum() == 0.0


class TestAmbientPlan:
    def test_ambient_matches_attached(self):
        cfg = small_config()
        wl = generate_workload(cfg)
        plan = FaultPlan(
            signal=(SignalBlackout(start_slot=10, n_slots=10),),
            capacity=(CapacityFault(start_slot=30, n_slots=10),),
        )
        attached = Simulation(
            cfg.with_(faults=plan), DefaultScheduler(), wl
        ).run()
        with use_fault_plan(plan):
            ambient = Simulation(cfg, DefaultScheduler(), wl).run()
        assert_results_bit_identical(attached, ambient)

    def test_config_plan_wins_over_ambient(self):
        cfg = small_config()
        wl = generate_workload(cfg)
        attached_plan = FaultPlan(
            capacity=(CapacityFault(start_slot=30, n_slots=10),)
        )
        ambient_plan = FaultPlan(
            capacity=(CapacityFault(start_slot=10, n_slots=10),)
        )
        attached_only = Simulation(
            cfg.with_(faults=attached_plan), DefaultScheduler(), wl
        ).run()
        with use_fault_plan(ambient_plan):
            both = Simulation(
                cfg.with_(faults=attached_plan), DefaultScheduler(), wl
            ).run()
            ambient_only = Simulation(cfg, DefaultScheduler(), wl).run()
        # The attached plan shadows the ambient one entirely...
        assert_results_bit_identical(both, attached_only)
        # ...and the ambient plan does apply when nothing is attached.
        assert (
            ambient_only.delivered_kb.tobytes()
            != attached_only.delivered_kb.tobytes()
        )

    def test_context_restores(self):
        plan = FaultPlan(capacity=(CapacityFault(start_slot=0, n_slots=1),))
        assert current_fault_plan() is None
        with use_fault_plan(plan):
            assert current_fault_plan() is plan
        assert current_fault_plan() is None


class TestBatchGuard:
    """Fault plans are per-run data: faulted runs stack, and each run
    of the stack equals its lone run."""

    @staticmethod
    def _check_stack(make_tasks):
        from repro.sim.batch import batch_incompatibility, run_batch

        assert batch_incompatibility(make_tasks()) is None
        stacked = run_batch(make_tasks())
        lone = [Simulation(t.config, t.scheduler).run() for t in make_tasks()]
        for a, b in zip(lone, stacked):
            assert_results_bit_identical(a, b)
            assert a.signal_dbm.tobytes() == b.signal_dbm.tobytes()
        return lone

    def test_faulted_configs_stack(self):
        from repro.sim.executor import RunTask

        # Each run carries its own plan: one stalls user 1 and cuts the
        # BS, the other blacks out users 0 and 2.
        plans = (
            FaultPlan(
                capacity=(CapacityFault(start_slot=0, n_slots=5),),
                stalls=(FlowStall(start_slot=20, n_slots=30, users=(1,)),),
            ),
            FaultPlan(signal=(SignalBlackout(start_slot=10, n_slots=20, users=(0, 2)),)),
        )

        def make_tasks():
            return [
                RunTask(small_config(faults=plans[0]), DefaultScheduler()),
                RunTask(small_config(seed=1, faults=plans[1]), RTMAScheduler()),
                RunTask(small_config(seed=2), DefaultScheduler()),
            ]

        faulted, blacked, healthy = self._check_stack(make_tasks)
        assert faulted.delivered_kb[:5].sum() == 0.0
        assert faulted.delivered_kb[20:50, 1].sum() == 0.0
        assert (blacked.signal_dbm[10:30, [0, 2]] == constants.SIGNAL_MIN_DBM).all()
        assert faulted.faulted_signal_dbm is not None
        assert healthy.faulted_signal_dbm is None

    def test_ambient_plan_stacks(self):
        from repro.sim.executor import RunTask

        plan = FaultPlan(
            signal=(SignalBlackout(start_slot=30, n_slots=10),),
            capacity=(CapacityFault(start_slot=0, n_slots=5),),
        )

        def make_tasks():
            cfg = small_config()
            return [
                RunTask(cfg, DefaultScheduler()),
                RunTask(cfg.with_(seed=1), DefaultScheduler()),
            ]

        with use_fault_plan(plan):
            runs = self._check_stack(make_tasks)
        for res in runs:
            assert res.delivered_kb[:5].sum() == 0.0
            assert res.faulted_signal_dbm is not None

    def test_single_faulted_task_still_runs_via_batch_plan(self):
        from repro.sim.batch import BatchPlan
        from repro.sim.executor import RunTask

        plan = FaultPlan(capacity=(CapacityFault(start_slot=40, n_slots=10),))
        cfg = small_config(faults=plan)
        (result,) = BatchPlan([RunTask(cfg, DefaultScheduler())]).run(None)
        assert result.delivered_kb[40:50].sum() == 0.0


class TestObservability:
    def test_trace_carries_plan_and_counters(self):
        from repro.obs.instrument import Instrumentation
        from repro.obs.tracer import RecordingTracer

        plan = FaultPlan(
            signal=(SignalBlackout(start_slot=10, n_slots=10),),
            capacity=(CapacityFault(start_slot=30, n_slots=10),),
            stalls=(FlowStall(start_slot=50, n_slots=10, users=(0,)),),
        )
        cfg = small_config(faults=plan)
        tracer = RecordingTracer()
        instr = Instrumentation(tracer=tracer)
        Simulation(cfg, DefaultScheduler(), instrumentation=instr).run()
        (start,) = tracer.of_kind("run.start")
        assert start["faults"] == plan.spec()
        windows = tracer.of_kind("fault.window")
        assert sorted(w["fault"] for w in windows) == [
            "capacity",
            "signal",
            "stall",
        ]
        metrics = instr.metrics
        assert metrics.counter("fault.signal_slots").value == 10
        assert metrics.counter("fault.capacity_slots").value == 10
        assert metrics.counter("fault.stall_slots").value == 10
        assert metrics.counter("fault.outage_slots").value == 30

    def test_healthy_run_emits_no_fault_telemetry(self):
        from repro.obs.instrument import Instrumentation
        from repro.obs.tracer import RecordingTracer

        tracer = RecordingTracer()
        instr = Instrumentation(tracer=tracer)
        Simulation(small_config(), DefaultScheduler(), instrumentation=instr).run()
        assert not tracer.of_kind("fault.window")
        (start,) = tracer.of_kind("run.start")
        assert "faults" not in start
        assert not [k for k in instr.metrics.names() if k.startswith("fault.")]

    def test_config_hash_distinguishes_plans(self):
        from repro.obs.provenance import config_hash

        cfg = small_config()
        plan = FaultPlan(capacity=(CapacityFault(start_slot=0, n_slots=5),))
        assert config_hash(cfg) != config_hash(cfg.with_(faults=plan))
