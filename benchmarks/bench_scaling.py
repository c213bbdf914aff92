"""Engine scaling benchmarks: slots/sec as the cell grows.

The paper evaluates 40 users; related work (Bethanabhotla et al.,
Abou-zeid et al.) evaluates hundreds.  These benches time full
``Simulation.run()`` calls for RTMA and EMA at n_users in
{10, 50, 200, 1000}, holding the paper's *per-user* load constant
(512 KB/s of serving capacity per user, 250-500 MB sessions that
outlast the horizon, 60 s client buffers, VBR rates) so every slot
carries a full-cell scheduling problem.

Round timings land in ``BENCH_scaling.json`` (next to this file, or at
``$BENCH_SCALING_JSON``) as ``bench.scaling.<sched>.u<n>.seconds``
histograms plus ``scaling.<sched>.u<n>.slots_per_sec`` gauges, a
``scaling.backend`` gauge naming the kernel backend that produced the
snapshot, and ``scaling.<sched>.u<n>.phase.<phase>_total_s`` gauges
splitting one instrumented (untimed) run into the engine's pipeline
phases — the scheduler DP lives in ``schedule``, client playback in
``playback``, and the gateway observe/transmit legs in their own
phases.  Gate a fresh run against the committed baseline with::

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py \\
        --check-scaling benchmarks/baseline_scaling.json

The gate is backend-aware (see ``conftest.py``): same-backend runs
compare p50s and hold the n=1000 slots/sec floor; a numba candidate
against the numpy baseline instead asserts the >= 3x EMA speedup.

``--batch`` additionally runs the run-stacked throughput benches:
R=16 multi_seed-shaped runs at N=50 executed serially vs through one
:func:`repro.sim.batch.run_batch` slot loop, recording
``scaling.batch.<sched>.r0016.{runs_per_sec,serial_runs_per_sec,
slots_per_sec,speedup}`` gauges and asserting the same-backend
speedup floors in :data:`BATCH_SPEEDUP_FLOOR` (2x for RTMA)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py \\
        -k batch_throughput --batch
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.kernels import resolved_backend
from repro.obs import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SLOT_PREFIX
from repro.sim.batch import run_batch
from repro.sim.config import SimConfig
from repro.sim.engine import SLOT_PHASES, Simulation
from repro.sim.executor import RunTask
from repro.sim.workload import generate_workload

#: Shared registry all scaling benches report into (one file per session).
SCALING_REGISTRY = MetricsRegistry()

#: The paper's per-user serving capacity: 20 MB/s across 40 users.
PER_USER_CAPACITY_KBPS = 512.0

N_USERS = (10, 50, 200, 1000, 2000)
#: Horizon per size, chosen so each round stays in benchmark territory.
N_SLOTS = {10: 400, 50: 300, 200: 150, 1000: 40, 2000: 20}
ROUNDS = {10: 4, 50: 4, 200: 3, 1000: 2, 2000: 2}

_WORKLOADS: dict[int, object] = {}


@pytest.fixture(scope="session", autouse=True)
def _write_scaling_timings():
    """Dump the registry to BENCH_scaling.json once the session ends."""
    yield
    if not len(SCALING_REGISTRY):
        return
    default = Path(__file__).resolve().parent / "BENCH_scaling.json"
    path = Path(os.environ.get("BENCH_SCALING_JSON", default))
    SCALING_REGISTRY.write_json(path)


def scaling_config(n_users: int) -> SimConfig:
    return SimConfig(
        n_users=n_users,
        n_slots=N_SLOTS[n_users],
        capacity_kbps=PER_USER_CAPACITY_KBPS * n_users,
        buffer_capacity_s=60.0,
        vbr_segments=30,
        seed=7,
    )


def _workload(cfg: SimConfig):
    wl = _WORKLOADS.get(cfg.n_users)
    if wl is None:
        wl = _WORKLOADS[cfg.n_users] = generate_workload(cfg)
    return wl


def _record(benchmark, sched_name: str, n_users: int) -> None:
    data = list(benchmark.stats.stats.data)
    hist = SCALING_REGISTRY.histogram(
        f"bench.scaling.{sched_name}.u{n_users:04d}.seconds"
    )
    for sample in data:
        hist.observe(sample)
    SCALING_REGISTRY.gauge(
        f"scaling.{sched_name}.u{n_users:04d}.slots_per_sec"
    ).set(N_SLOTS[n_users] / float(np.median(data)))
    SCALING_REGISTRY.gauge("scaling.backend").set(resolved_backend())


def _record_phase_split(cfg: SimConfig, sched_name: str, wl) -> None:
    """One instrumented run (outside any timer) to split the wall
    clock across the engine's phases — where does a slot go as n grows?
    """
    instr = Instrumentation()
    Simulation(cfg, _make_scheduler(sched_name, cfg), wl,
               instrumentation=instr).run()
    for phase in SLOT_PHASES:
        SCALING_REGISTRY.gauge(
            f"scaling.{sched_name}.u{cfg.n_users:04d}.phase.{phase}_total_s"
        ).set(instr.spans.total_s(SLOT_PREFIX + (phase,)))


def _make_scheduler(sched_name: str, cfg: SimConfig):
    if sched_name == "rtma":
        return RTMAScheduler(sig_threshold_dbm=-95.0)
    return EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s)


@pytest.mark.parametrize("n_users", N_USERS)
@pytest.mark.parametrize("sched_name", ["rtma", "ema"])
def test_engine_scaling(benchmark, sched_name, n_users):
    cfg = scaling_config(n_users)
    wl = _workload(cfg)

    def run():
        return Simulation(cfg, _make_scheduler(sched_name, cfg), wl).run()

    res = benchmark.pedantic(
        run, rounds=ROUNDS[n_users], iterations=1, warmup_rounds=1
    )
    assert res.delivered_kb.sum() > 0
    _record(benchmark, sched_name, n_users)
    _record_phase_split(cfg, sched_name, wl)


# --- run-stacked batch throughput (``--batch``) --------------------------

#: multi_seed-shaped batch workload: R runs of the same config at
#: different seeds, stacked into one slot loop by repro.sim.batch.
BATCH_R = 16
BATCH_N = 50
BATCH_SLOTS = 200
BATCH_ROUNDS = 3

#: Same-backend speedup floors for run_batch over serial at R=16, N=50.
#: RTMA amortises the whole slot loop across runs (>= 4x measured on
#: numpy); EMA's per-run DP kernel cannot stack across runs, so only
#: the surrounding pipeline vectorises — its floor is a non-regression
#: bound, not a headline.
BATCH_SPEEDUP_FLOOR = {"rtma": 2.0, "ema": 1.2}


@pytest.fixture
def batch_enabled(request):
    if not request.config.getoption("--batch"):
        pytest.skip("run-stacked batch benches need --batch")


def _batch_tasks(sched_name: str):
    configs = [
        SimConfig(
            n_users=BATCH_N,
            n_slots=BATCH_SLOTS,
            capacity_kbps=PER_USER_CAPACITY_KBPS * BATCH_N,
            buffer_capacity_s=60.0,
            vbr_segments=30,
            seed=s,
        )
        for s in range(BATCH_R)
    ]
    wls = _WORKLOADS.get(("batch", BATCH_N))
    if wls is None:
        wls = _WORKLOADS[("batch", BATCH_N)] = [
            generate_workload(c) for c in configs
        ]
    return [
        RunTask(cfg, _make_scheduler(sched_name, cfg), wl)
        for cfg, wl in zip(configs, wls)
    ]


@pytest.mark.parametrize("sched_name", ["rtma", "ema"])
def test_batch_throughput(benchmark, batch_enabled, sched_name):
    """Serial run-by-run vs one stacked slot loop for the same R runs.

    Records ``scaling.batch.<sched>.r0016.*`` gauges — batched and
    serial runs/sec, the stacked slots/sec, and the speedup — and
    gates the speedup against :data:`BATCH_SPEEDUP_FLOOR` (serial and
    batched legs always share a backend, so the gate is same-backend
    by construction).
    """
    # Serial reference: best of BATCH_ROUNDS full run-by-run passes
    # (fresh schedulers per pass — they are stateful).
    serial_times = []
    for _ in range(BATCH_ROUNDS):
        tasks = _batch_tasks(sched_name)
        t0 = time.perf_counter()
        for t in tasks:
            Simulation(t.config, t.scheduler, t.workload).run()
        serial_times.append(time.perf_counter() - t0)
    t_serial = float(np.median(serial_times))

    results = benchmark.pedantic(
        lambda: run_batch(_batch_tasks(sched_name)),
        rounds=BATCH_ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    assert len(results) == BATCH_R
    assert all(r.delivered_kb.sum() > 0 for r in results)

    data = list(benchmark.stats.stats.data)
    t_batch = float(np.median(data))
    hist = SCALING_REGISTRY.histogram(
        f"bench.scaling.batch.{sched_name}.r{BATCH_R:04d}.seconds"
    )
    for sample in data:
        hist.observe(sample)
    prefix = f"scaling.batch.{sched_name}.r{BATCH_R:04d}"
    SCALING_REGISTRY.gauge(f"{prefix}.runs_per_sec").set(BATCH_R / t_batch)
    SCALING_REGISTRY.gauge(f"{prefix}.serial_runs_per_sec").set(
        BATCH_R / t_serial
    )
    SCALING_REGISTRY.gauge(f"{prefix}.slots_per_sec").set(
        BATCH_R * BATCH_SLOTS / t_batch
    )
    speedup = t_serial / t_batch
    SCALING_REGISTRY.gauge(f"{prefix}.speedup").set(speedup)
    SCALING_REGISTRY.gauge("scaling.backend").set(resolved_backend())

    floor = BATCH_SPEEDUP_FLOOR[sched_name]
    assert speedup >= floor, (
        f"run_batch speedup {speedup:.2f}x for {sched_name} at "
        f"R={BATCH_R}, N={BATCH_N} is below the {floor:.1f}x floor"
    )
