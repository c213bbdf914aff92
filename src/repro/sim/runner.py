"""High-level run orchestration: comparisons, sweeps, calibration.

The paper's evaluation protocol has a two-stage structure: first run
the *default* strategy to measure ``E_default`` / ``R_default``, then
configure RTMA with ``Phi = alpha * E_default`` (or pick EMA's ``V``
for a rebuffering bound ``Omega = beta * R_default``) and re-run on
the **same workload**.  The helpers here encode that protocol so the
experiment scripts and benches stay declarative.

Every batched helper (comparisons, sweeps, multi-seed replication, the
calibration grids) routes its runs through
:func:`repro.sim.executor.map_runs`, so installing a pooled executor
(:func:`repro.sim.executor.use_executor`, or ``repro-experiments
--jobs N``) parallelises them with bit-identical results and metrics.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.baselines.default import DefaultScheduler
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.errors import ConfigurationError
from repro.obs.instrument import Instrumentation, current_instrumentation
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.executor import RunTask, map_runs
from repro.sim.results import SimulationResult
from repro.sim.workload import Workload, generate_workload

__all__ = [
    "run_scheduler",
    "compare_schedulers",
    "sweep",
    "default_reference",
    "calibrate_rtma_threshold",
    "make_rtma_for_alpha",
    "make_rtma_eq12",
    "calibrate_ema_v",
    "multi_seed",
]

log = logging.getLogger("repro.sim.runner")


def _resolve_instrumentation(
    instrumentation: Instrumentation | None,
) -> Instrumentation | None:
    """Explicit bundle wins; otherwise the ambient one (may be None)."""
    if instrumentation is not None:
        return instrumentation
    return current_instrumentation()


def run_scheduler(
    config: SimConfig,
    scheduler,
    workload: Workload | None = None,
    instrumentation: Instrumentation | None = None,
) -> SimulationResult:
    """Run one scheduler on one (optionally shared) workload."""
    return Simulation(config, scheduler, workload, instrumentation=instrumentation).run()


def compare_schedulers(
    config: SimConfig,
    schedulers: Mapping[str, object],
    workload: Workload | None = None,
    instrumentation: Instrumentation | None = None,
) -> dict[str, SimulationResult]:
    """Run several schedulers on the *identical* workload.

    Returns results keyed like the input mapping, preserving order.
    """
    if not schedulers:
        raise ConfigurationError("need at least one scheduler")
    wl = workload if workload is not None else generate_workload(config)
    instr = _resolve_instrumentation(instrumentation)
    names = list(schedulers)
    tasks = [RunTask(config, schedulers[name], wl) for name in names]
    runs = map_runs(tasks, instrumentation=instr)
    results: dict[str, SimulationResult] = {}
    for name, res in zip(names, runs):
        results[name] = res
        if instr is not None and instr.tracer.enabled:
            instr.tracer.emit(
                "compare.run", scheduler=name, pe_mj=res.pe_mj, pc_s=res.pc_s
            )
    return results


def sweep(
    base_config: SimConfig,
    axis: str,
    values: Sequence,
    scheduler_factory: Callable[[SimConfig], object],
    instrumentation: Instrumentation | None = None,
) -> list[SimulationResult]:
    """Vary one config axis, building a fresh scheduler per point.

    ``scheduler_factory`` receives the point's config — this is where
    calibrated policies (RTMA with alpha-scaled budgets) plug in.
    """
    instr = _resolve_instrumentation(instrumentation)
    tasks = []
    for value in values:
        cfg = base_config.with_(**{axis: value})
        tasks.append(RunTask(cfg, scheduler_factory(cfg)))
    results = map_runs(tasks, instrumentation=instr)
    if instr is not None:
        for value, res in zip(values, results):
            instr.metrics.counter("sweep.points").inc()
            if instr.tracer.enabled:
                instr.tracer.emit(
                    "sweep.point",
                    axis=axis,
                    value=value,
                    pe_mj=res.pe_mj,
                    pc_s=res.pc_s,
                )
    return results


def default_reference(
    config: SimConfig, workload: Workload | None = None
) -> SimulationResult:
    """The paper's reference run: the default strategy on this workload."""
    return run_scheduler(config, DefaultScheduler(), workload)


def calibrate_rtma_threshold(
    config: SimConfig,
    alpha: float,
    workload: Workload | None = None,
    iterations: int = 9,
    calibration_slots: int | None = None,
    instrumentation: Instrumentation | None = None,
) -> float:
    """Find the least-restrictive signal threshold meeting the Eq. (10)
    budget ``Phi = alpha * E_default``.

    The paper's Eq. (12) maps the budget to a signal threshold assuming
    the threshold user transmits at its *full* link rate.  In
    capacity-shared regimes the realized per-user energy sits well
    below that analytic band, so we recover the threshold the paper's
    conversion is *for* — "do not schedule users whose signal is too
    weak for the budget" — empirically: bisect the threshold on a
    shortened run until RTMA's measured PE meets ``alpha`` times the
    default strategy's PE *on the same horizon* (horizon-consistent,
    since PE dilutes once sessions complete).  Returns ``-inf`` when
    unconstrained RTMA already fits the budget.
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    instr = _resolve_instrumentation(instrumentation)
    started = time.perf_counter()
    slots = calibration_slots or min(config.n_slots, 2000)
    cal_cfg = config.with_(n_slots=slots)
    wl = None
    if workload is not None and workload.n_slots >= slots:
        wl = workload
    if wl is None:
        wl = generate_workload(cal_cfg)
    # The Default reference and the unconstrained RTMA probe share the
    # calibration workload, so they go out as one batch: one slot loop
    # when the executor stacks them.
    reference, probe = map_runs(
        [
            RunTask(cal_cfg, DefaultScheduler(), wl),
            RunTask(cal_cfg, RTMAScheduler(sig_threshold_dbm=float("-inf")), wl),
        ]
    )
    budget = alpha * reference.pe_mj
    sig_model = cal_cfg.make_signal_model()

    def note(threshold: float, pe: float) -> None:
        if instr is not None:
            instr.metrics.counter("calibration.grid_evaluations").inc()
            instr.metrics.histogram("calibration.rtma.pe_mj").observe(pe)
            if instr.tracer.enabled:
                instr.tracer.emit(
                    "calibration.rtma.point",
                    threshold_dbm=threshold,
                    pe_mj=pe,
                    budget_mj=budget,
                )

    def finish(threshold: float, feasible: bool) -> float:
        if instr is not None:
            instr.profiler.record("calibrate_rtma", time.perf_counter() - started)
            if instr.tracer.enabled:
                instr.tracer.emit(
                    "calibration.rtma.result",
                    threshold_dbm=threshold,
                    feasible=feasible,
                    alpha=alpha,
                    budget_mj=budget,
                )
        return threshold

    note(float("-inf"), probe.pe_mj)
    if probe.pe_mj <= budget:
        return finish(float("-inf"), True)
    # PE is not monotone in the threshold (a stricter threshold trades
    # transmission energy for extra tail toggling), so scan a grid
    # instead of bisecting.  Feasible -> least restrictive feasible
    # point (smallest rebuffering impact); infeasible -> best effort,
    # the PE-minimizing threshold.
    lo, hi = sig_model.sig_min, sig_model.sig_max
    # Sample densely near the weak end where clipped trace mass makes
    # eligibility jump, then evenly across the range.
    grid = np.unique(
        np.concatenate(
            [
                np.array([lo + 0.01 * (hi - lo)]),
                np.linspace(lo, hi, max(iterations, 3)),
            ]
        )
    )
    # Grid points are independent runs on one shared workload — fan
    # them out through the (possibly parallel) run executor.  Inner
    # runs stay on the *ambient* instrumentation, exactly as the
    # serial run_scheduler calls resolved it.
    tasks = [
        RunTask(cal_cfg, RTMAScheduler(sig_threshold_dbm=float(t)), wl)
        for t in grid
    ]
    grid_runs = map_runs(tasks)
    pes = np.array([res.pe_mj for res in grid_runs])
    for t, pe in zip(grid, pes):
        note(float(t), float(pe))
    feasible = pes <= budget
    if np.any(feasible):
        # Weakest feasible threshold (smallest rebuffering impact).
        return finish(float(grid[np.argmax(feasible)]), True)
    log.warning(
        "RTMA calibration infeasible: no threshold meets budget %.4g mJ "
        "(best effort PE %.4g mJ at %.1f dBm)",
        budget,
        float(pes.min()),
        float(grid[np.argmin(pes)]),
    )
    return finish(float(grid[np.argmin(pes)]), False)


def make_rtma_for_alpha(
    config: SimConfig,
    alpha: float = 1.0,
    workload: Workload | None = None,
    reference: SimulationResult | None = None,
) -> RTMAScheduler:
    """Build RTMA with ``Phi = alpha * E_default`` (Section VI-A).

    ``reference`` is accepted for API symmetry but the budget is
    re-measured on the calibration horizon for consistency (see
    :func:`calibrate_rtma_threshold`).
    """
    del reference  # budget must be horizon-consistent; re-measured inside
    threshold = calibrate_rtma_threshold(config, alpha, workload)
    return RTMAScheduler(sig_threshold_dbm=threshold)


def make_rtma_eq12(
    config: SimConfig, energy_budget_mj_per_slot: float
) -> RTMAScheduler:
    """RTMA with the paper's literal Eq. (12) threshold conversion.

    Only meaningful when the budget lies inside the analytic band
    ``[0.5*(R_min + P_tail), 0.5*(R_max + P_tail)]`` of full-rate radio
    powers; see :func:`repro.core.rtma.signal_threshold_for_energy_budget`.
    """
    radio = config.radio
    return RTMAScheduler(
        energy_budget_mj_per_slot=energy_budget_mj_per_slot,
        power_model=radio.power,
        tau_s=config.tau_s,
        p_tail_mw=radio.rrc.pd_mw,
    )


def calibrate_ema_v(
    config: SimConfig,
    rebuffering_bound_s: float,
    workload: Workload | None = None,
    v_lo: float = 1e-5,
    v_hi: float = 50.0,
    iterations: int = 12,
    calibration_slots: int | None = None,
    instrumentation: Instrumentation | None = None,
) -> float:
    """Pick EMA's ``V`` so measured PC approaches a bound ``Omega``.

    The paper states the bound (Eq. 13) but Algorithm 2 only exposes
    ``V``; Theorem 1 guarantees PC grows (at most linearly) with ``V``
    *asymptotically*, but finite-horizon PC(V) is noisy, so instead of
    bisecting we scan a geometric V grid and return the largest value
    whose measured rebuffering stays within the bound (the most
    energy-saving feasible setting).  If no grid point is feasible,
    the PC-minimizing one is returned as best effort.
    """
    if rebuffering_bound_s <= 0:
        raise ConfigurationError("rebuffering bound must be positive")
    if not 0 < v_lo < v_hi:
        raise ConfigurationError("need 0 < v_lo < v_hi")
    instr = _resolve_instrumentation(instrumentation)
    started = time.perf_counter()
    slots = calibration_slots or min(config.n_slots, 1500)
    cal_cfg = config.with_(n_slots=slots)
    # A workload shorter than the calibration horizon cannot drive the
    # inner runs (the engine rejects it); regenerate instead, matching
    # the guard in calibrate_rtma_threshold / calibrate_ema_v_to_reference.
    wl = None
    if workload is not None and workload.n_slots >= slots:
        wl = workload
    if wl is None:
        wl = generate_workload(cal_cfg)

    def note(v: float, res: SimulationResult) -> None:
        if instr is not None:
            instr.metrics.counter("calibration.grid_evaluations").inc()
            instr.metrics.histogram("calibration.ema.pc_s").observe(res.pc_s)
            instr.metrics.histogram("calibration.ema.pe_mj").observe(res.pe_mj)
            if instr.tracer.enabled:
                instr.tracer.emit(
                    "calibration.ema.point",
                    v=v,
                    pc_s=res.pc_s,
                    pe_mj=res.pe_mj,
                    bound_s=rebuffering_bound_s,
                )

    def finish(v: float, feasible: bool) -> float:
        if instr is not None:
            instr.profiler.record("calibrate_ema", time.perf_counter() - started)
            if instr.tracer.enabled:
                instr.tracer.emit(
                    "calibration.ema.result",
                    v=v,
                    feasible=feasible,
                    bound_s=rebuffering_bound_s,
                )
        return v

    grid = np.geomspace(v_lo, v_hi, max(iterations, 4))
    # Independent grid runs on one shared workload — executor fan-out,
    # ambient instrumentation for the inner runs (as before).
    tasks = [
        RunTask(
            cal_cfg,
            EMAScheduler(cal_cfg.n_users, v_param=float(v), tau_s=cal_cfg.tau_s),
            wl,
        )
        for v in grid
    ]
    grid_runs = map_runs(tasks)
    for v, res in zip(grid, grid_runs):
        note(float(v), res)
    pcs = np.array([res.pc_s for res in grid_runs])
    pes = np.array([res.pe_mj for res in grid_runs])
    feasible = np.flatnonzero(pcs <= rebuffering_bound_s)
    if feasible.size:
        # Most energy-saving feasible setting: PE(V) is not monotone
        # once tails and receiver windows bite, so pick by measured PE
        # rather than by V.
        return finish(float(grid[feasible[np.argmin(pes[feasible])]]), True)
    log.warning(
        "EMA calibration infeasible: no V meets rebuffering bound %.4g s "
        "(best effort PC %.4g s at V=%.4g)",
        rebuffering_bound_s,
        float(pcs.min()),
        float(grid[np.argmin(pcs)]),
    )
    return finish(float(grid[np.argmin(pcs)]), False)


def calibrate_ema_v_to_reference(
    config: SimConfig,
    reference_scheduler_factory: Callable[[], object],
    beta: float = 1.0,
    workload: Workload | None = None,
    iterations: int = 8,
    calibration_slots: int | None = None,
) -> float:
    """Calibrate EMA's ``V`` to ``Omega = beta * PC(reference)``.

    Both the reference rebuffering and EMA's are measured on the *same*
    shortened horizon — PC dilutes once sessions complete, so mixing
    horizons (bounding a short-horizon EMA by a long-horizon reference)
    systematically over-tightens the bound.
    """
    if beta <= 0:
        raise ConfigurationError("beta must be positive")
    slots = calibration_slots or min(config.n_slots, 1500)
    cal_cfg = config.with_(n_slots=slots)
    wl = None
    if workload is not None and workload.n_slots >= slots:
        wl = workload
    if wl is None:
        wl = generate_workload(cal_cfg)
    ref_pc = run_scheduler(cal_cfg, reference_scheduler_factory(), wl).pc_s
    omega = beta * max(ref_pc, 1e-4)
    return calibrate_ema_v(
        cal_cfg,
        omega,
        workload=wl,
        iterations=iterations,
        calibration_slots=slots,
    )


def multi_seed(
    config: SimConfig,
    scheduler_factory: Callable[[SimConfig], object],
    seeds: Iterable[int],
    instrumentation: Instrumentation | None = None,
) -> list[SimulationResult]:
    """Replicate a run across seeds (for confidence intervals)."""
    instr = _resolve_instrumentation(instrumentation)
    seeds = list(seeds)
    tasks = []
    for seed in seeds:
        cfg = config.with_(seed=seed)
        tasks.append(RunTask(cfg, scheduler_factory(cfg)))
    out = map_runs(tasks, instrumentation=instr)
    if instr is not None and instr.tracer.enabled:
        for seed, res in zip(seeds, out):
            instr.tracer.emit(
                "multi_seed.run", seed=seed, pe_mj=res.pe_mj, pc_s=res.pc_s
            )
    return out
