"""Micro-benchmarks of the hot kernels.

These are proper repeated-timing benchmarks (unlike the one-shot
figure reproductions): the per-slot cost of each scheduler's allocate,
the RRC fleet step, and a full engine slot.  They guard the
performance envelope that makes the full-scale (Gamma = 10000)
experiments tractable.

Every benchmark's round timings are also recorded into a
:class:`~repro.obs.metrics.MetricsRegistry`; at session end the
registry snapshot is written to ``BENCH_kernels.json`` (next to this
file, or at ``$BENCH_KERNELS_JSON``) so the performance trajectory is
machine-readable run over run.

Every bench is parameterised over the kernel backends importable on
this machine (numpy always; numba when installed), so histogram names
carry a ``[numpy]`` / ``[numba]`` suffix and the ``--check`` gate only
ever compares a backend against itself — a numpy-only baseline treats
numba entries as "added", never as a cross-backend regression.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.default import DefaultScheduler
from repro.baselines.onoff import OnOffScheduler
from repro.baselines.throttling import ThrottlingScheduler
from repro.core.ema import EMAScheduler, trailing_window_min
from repro.core.rtma import RTMAScheduler
from repro.experiments.churn_sessions import churn_config
from repro.faults import CapacityFault, FaultPlan, SignalBlackout
from repro.kernels import available_backends, use_backend
from repro.net.gateway import SlotObservation
from repro.obs import Instrumentation, JsonlTraceWriter, MetricsRegistry, NullTracer
from repro.obs.analyze import timelines_from_trace
from repro.radio.rrc import RRCFleet
from repro.sim import RunTask
from repro.sim.batch import BatchPlan, _BlockScheduler, _block_key, run_batch
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation, write_traces

#: Shared registry all kernel benches report into (one file per session).
KERNEL_REGISTRY = MetricsRegistry()

#: Timed backends: the interpreted "python" loops are a correctness
#: tool, not a performance configuration, so they are never benched.
BENCH_BACKENDS = [b for b in available_backends() if b != "python"]


@pytest.fixture(params=BENCH_BACKENDS, autouse=True)
def kernel_backend(request):
    """Run every bench once per importable backend (suffixes the node
    name, and with it the recorded histogram, with the backend)."""
    with use_backend(request.param):
        yield request.param


@pytest.fixture(scope="session", autouse=True)
def _write_kernel_timings():
    """Dump the registry to BENCH_kernels.json once the session ends."""
    yield
    if not len(KERNEL_REGISTRY):
        return
    default = Path(__file__).resolve().parent / "BENCH_kernels.json"
    path = Path(os.environ.get("BENCH_KERNELS_JSON", default))
    KERNEL_REGISTRY.write_json(path)


@pytest.fixture(autouse=True)
def _record_kernel_timing(request):
    """Feed each benchmark's raw round timings into the shared registry."""
    bench = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    yield
    if bench is None or bench.stats is None:
        return
    hist = KERNEL_REGISTRY.histogram(f"bench.{request.node.name}.seconds")
    for sample in bench.stats.stats.data:
        hist.observe(sample)


def paper_slot_observation(n_users=40, budget=512, seed=0) -> SlotObservation:
    rng = np.random.default_rng(seed)
    sig = rng.uniform(-110, -50, n_users)
    return SlotObservation(
        slot=0,
        tau_s=1.0,
        delta_kb=40.0,
        unit_budget=budget,
        sig_dbm=sig,
        rate_kbps=rng.uniform(300, 600, n_users),
        link_units=np.floor((65.8 * sig + 7567.0) / 40.0).astype(np.int64),
        p_mj_per_kb=-0.167 + 1560.0 / (65.8 * sig + 7567.0),
        active=np.ones(n_users, dtype=bool),
        buffer_s=rng.uniform(0, 60, n_users),
        remaining_kb=rng.uniform(1e5, 5e5, n_users),
        idle_tail_cost_mj=rng.uniform(0, 733, n_users),
        receivable_kb=rng.uniform(1e3, 3e4, n_users),
    )


def test_rtma_allocate_slot(benchmark):
    obs = paper_slot_observation()
    sched = RTMAScheduler(sig_threshold_dbm=-100.0)
    phi = benchmark(sched.allocate, obs)
    assert phi.sum() > 0


def stacked_slot_observation(n_runs=10, n_users=40) -> SlotObservation:
    """``n_runs`` paper-like slots stacked as row segments of one slot."""
    return ragged_slot_observation([n_users] * n_runs)


def ragged_slot_observation(users) -> SlotObservation:
    """Paper-like slots of ``users[r]`` users each, stacked as row
    segments of one slot."""
    n_runs = len(users)
    parts = [paper_slot_observation(n, seed=r) for r, n in enumerate(users)]
    budgets = np.random.default_rng(n_runs).integers(256, 768, n_runs)
    rows = {
        name: np.concatenate([getattr(o, name) for o in parts])
        for name in (
            "sig_dbm", "rate_kbps", "link_units", "p_mj_per_kb", "active",
            "buffer_s", "remaining_kb", "idle_tail_cost_mj", "receivable_kb",
        )
    }
    return SlotObservation(
        slot=0,
        tau_s=1.0,
        delta_kb=40.0,
        unit_budget=int(budgets.sum()),
        run_offsets=np.concatenate(([0], np.cumsum(users))).astype(np.int64),
        run_unit_budgets=budgets.astype(np.int64),
        **rows,
    )


def test_rtma_allocate_stacked_slot(benchmark):
    """One slot of fig05's calibration grid: ten RTMA runs, one threshold
    each, stacked over 40-user segments."""
    obs = stacked_slot_observation()
    thresholds = np.linspace(-110.0, -80.0, 10)
    sched = RTMAScheduler.stack(
        [RTMAScheduler(sig_threshold_dbm=t) for t in thresholds], obs.run_offsets
    )
    phi = benchmark(sched.allocate, obs)
    assert phi.shape == (400,) and phi.sum() > 0


def test_block_schedule_slot(benchmark):
    """One slot of fig05's comparison stack: Default, Throttling, ON-OFF
    and RTMA blocks, each over 20/30/40-user runs."""
    users = (20, 30, 40)
    kinds = (
        DefaultScheduler,
        ThrottlingScheduler,
        OnOffScheduler,
        lambda: RTMAScheduler(sig_threshold_dbm=-100.0),
    )
    obs = ragged_slot_observation([n for _ in kinds for n in users])
    scheds = [make() for make in kinds for _ in users]
    sizes = users * len(kinds)
    keys = [_block_key(s, n, i) for i, (s, n) in enumerate(zip(scheds, sizes))]
    sched = _BlockScheduler(scheds, keys, obs.run_offsets)
    assert len(sched.blocks) == len(kinds)
    phi = benchmark(sched.allocate, obs)
    assert phi.shape == (obs.n_users,) and phi.sum() > 0


def test_ema_allocate_slot(benchmark):
    obs = paper_slot_observation()
    sched = EMAScheduler(40, v_param=0.1)
    sched.allocate(obs)  # seed queues outside the timer
    sched.queues.values = np.random.default_rng(1).normal(0, 10, 40)
    phi = benchmark(sched.allocate, obs)
    assert phi.shape == (40,)


def test_default_allocate_slot(benchmark):
    obs = paper_slot_observation()
    sched = DefaultScheduler()
    phi = benchmark(sched.allocate, obs)
    assert phi.sum() > 0


def test_trailing_window_min_kernel(benchmark):
    values = np.random.default_rng(0).normal(size=513)
    out = benchmark(trailing_window_min, values, 107)
    assert out.shape == values.shape


def test_rrc_fleet_step(benchmark):
    fleet = RRCFleet(40)
    tx = np.random.default_rng(0).random(40) < 0.5

    def step():
        return fleet.step(tx, 1.0)

    tail = benchmark(step)
    assert tail.shape == (40,)


@pytest.mark.parametrize("sched_name", ["default", "rtma", "ema"])
def test_engine_100_slots(benchmark, sched_name):
    cfg = SimConfig(
        n_users=20,
        n_slots=100,
        video_size_range_kb=(50_000.0, 100_000.0),
        buffer_capacity_s=60.0,
        seed=1,
    )
    factories = {
        "default": lambda: DefaultScheduler(),
        "rtma": lambda: RTMAScheduler(),
        "ema": lambda: EMAScheduler(20, v_param=0.1),
    }

    def run():
        return Simulation(cfg, factories[sched_name]()).run()

    res = benchmark.pedantic(run, rounds=2, iterations=1)
    assert res.delivered_kb.sum() > 0


@pytest.mark.parametrize(
    "mode",
    ["plain", "null-tracer", "live", "live-stacked"],
    ids=["plain", "null-tracer", "live", "live-stacked"],
)
def test_engine_200_slots_instrumentation_overhead(benchmark, mode):
    """The observability acceptance gates, against the "plain" run:

    * ``null-tracer`` — an Instrumentation bundle with the default
      ``NullTracer`` must cost < 2% wall clock.  The bundle records
      its span tree (phase spans, per-call kernel spans, 64-slot block
      spans); CI's perf-smoke job bounds that recording cost
      analytically: tight-loop floors of the recording primitives
      times a real run's span counts;
    * ``live`` — a full live telemetry plane (streaming aggregators on
      four channels plus an SLO watchdog evaluated every 64 slots)
      must cost < 3%.

    All on a 200-slot / 20-user run; compare the parametrisations.
    ``live-stacked`` is the ledger's record of what the plane costs a
    stack: four such runs (seeds 1-4) in one ``run_batch`` loop under
    the same plane, which follows each run.
    """
    cfg = SimConfig(
        n_users=20,
        n_slots=200,
        video_size_range_kb=(50_000.0, 100_000.0),
        buffer_capacity_s=60.0,
        seed=1,
    )

    def make_instr():
        if mode == "plain":
            return None
        if mode.startswith("live"):
            from repro.obs.live import LiveTelemetry

            live = LiveTelemetry(
                rules=("p95(rebuffer_s) < 1e12", "mean(slot_energy_mj) >= 0")
            )
            return Instrumentation(tracer=NullTracer(), live=live)
        return Instrumentation(tracer=NullTracer())

    def run():
        if mode == "live-stacked":
            tasks = [RunTask(cfg.with_(seed=s), DefaultScheduler()) for s in range(1, 5)]
            return run_batch(tasks, instrumentation=make_instr())[0]
        return Simulation(
            cfg, DefaultScheduler(), instrumentation=make_instr()
        ).run()

    res = benchmark.pedantic(run, rounds=5, warmup_rounds=2, iterations=1)
    assert res.delivered_kb.sum() > 0


@pytest.fixture(scope="module")
def traced_churn_run():
    """One finished EMA churn run with a signal blackout and a capacity
    outage (the bench-scale ``churn`` config, seed 1), and its RunLog."""
    plan = FaultPlan(
        signal=(SignalBlackout(start_slot=150, n_slots=60),),
        capacity=(CapacityFault(start_slot=380, n_slots=40, factor=0.0),),
    )
    cfg = churn_config("bench", seed=1).with_(faults=plan)
    batch = BatchPlan([RunTask(cfg, EMAScheduler(cfg.n_users))])
    (res,) = batch.run(record=True)
    return res, batch.run_logs[0]


def test_trace_write_read(benchmark, traced_churn_run, tmp_path):
    """A traced run's observation cost after its slot loop: its trace
    written to a file (JSON lines and the per-user column stream), then
    read back and rebuilt into a timeline."""
    res, run_log = traced_churn_run

    def write_read():
        tracer = JsonlTraceWriter(tmp_path / "trace.jsonl")
        write_traces(Instrumentation(tracer=tracer), [res], [run_log])
        tracer.close()
        return timelines_from_trace(tmp_path)

    (tl,) = benchmark.pedantic(write_read, rounds=15, warmup_rounds=1, iterations=1)
    assert tl.n_slots == 600 and tl.sessions and len(tl.fault_windows) == 2
