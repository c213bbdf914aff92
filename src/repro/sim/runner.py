"""High-level run orchestration: comparisons, sweeps, calibration.

The paper's evaluation protocol calibrates each scheduler against a
reference on the **same workload**: RTMA's budget is ``Phi = alpha *
E_default`` and EMA's rebuffering bound is ``Omega = beta *
PC_reference``.  The helpers here run that protocol in two phases per
sweep point, each one :func:`repro.sim.executor.map_runs` call:

1. *Calibration.*  The reference, RTMA's unconstrained probe and the
   threshold grid (or the reference and EMA's V grid) are independent
   runs on one shortened workload, so they go out as one task list,
   which the executor stacks into one slot loop.  The grid runs
   speculatively, even when the probe alone would settle the answer.
   One reference, probe and grid serve every alpha (or beta) of a
   point (``calibrate_rtma_threshold(..., alphas=...)``,
   ``calibrate_ema_v_to_reference(..., betas=...)``): only the final
   budget cut depends on the factor.
2. *Comparison.*  The point's full-horizon runs, with the calibrated
   parameters, go out as one more batch (:func:`compare_schedulers`).

Sweep points stay separate batches, so only one point's results are
alive at a time.  Since every helper routes its runs through
``map_runs``, installing a pooled executor
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
    "make_rtma_eq12",
    "calibrate_ema_v",
    "multi_seed",
]

log = logging.getLogger("repro.sim.runner")

#: EMA's default V search range (Algorithm 2's Lyapunov weight).
_V_LO, _V_HI = 1e-5, 50.0


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


def _one_of(name: str, scalar, plural: str, vector) -> tuple[bool, list]:
    """Validate a calibrator's scalar/vector argument pair.

    Returns whether the scalar was given, and the factors as a list.
    """
    if (scalar is None) == (vector is None):
        raise ConfigurationError(f"pass exactly one of {name}= and {plural}=")
    factors = [scalar] if vector is None else list(vector)
    if not factors:
        raise ConfigurationError(f"{plural} must not be empty")
    if any(f <= 0 for f in factors):
        raise ConfigurationError(f"{name} must be positive")
    return vector is None, factors


def _calibration_inputs(
    config: SimConfig, workload: Workload | None, slots: int
) -> tuple[SimConfig, Workload]:
    """The shortened calibration config and a workload covering it.

    A workload shorter than the calibration horizon cannot drive the
    inner runs (the engine rejects it), so it is regenerated instead.
    """
    cal_cfg = config.with_(n_slots=slots)
    if workload is None or workload.n_slots < slots:
        workload = generate_workload(cal_cfg)
    return cal_cfg, workload


def calibrate_rtma_threshold(
    config: SimConfig,
    alpha: float | None = None,
    workload: Workload | None = None,
    iterations: int = 9,
    calibration_slots: int | None = None,
    instrumentation: Instrumentation | None = None,
    *,
    alphas: Sequence[float] | None = None,
) -> float | list[float]:
    """Find the least-restrictive signal threshold meeting the Eq. (10)
    budget ``Phi = alpha * E_default``.

    The paper's Eq. (12) maps the budget to a signal threshold assuming
    the threshold user transmits at its *full* link rate.  In
    capacity-shared regimes the realized per-user energy sits well
    below that analytic band, so we recover the threshold the paper's
    conversion is *for* — "do not schedule users whose signal is too
    weak for the budget" — empirically: scan the threshold on a
    shortened run until RTMA's measured PE meets ``alpha`` times the
    default strategy's PE *on the same horizon* (horizon-consistent,
    since PE dilutes once sessions complete).  Returns ``-inf`` when
    unconstrained RTMA already fits the budget.

    Pass exactly one of ``alpha`` and ``alphas``.  With ``alphas`` the
    result is one threshold per factor, all cut from a single
    reference, probe and grid: only the final ``pe <= alpha * E_default``
    test depends on alpha.
    """
    scalar, factors = _one_of("alpha", alpha, "alphas", alphas)
    instr = _resolve_instrumentation(instrumentation)
    started = time.perf_counter()
    cal_cfg, wl = _calibration_inputs(
        config, workload, calibration_slots or min(config.n_slots, 2000)
    )
    # PE is not monotone in the threshold (a stricter threshold trades
    # transmission energy for extra tail toggling), so scan a grid
    # instead of bisecting.  Sample densely near the weak end where
    # clipped trace mass makes eligibility jump, then evenly across
    # the range.
    sig_model = cal_cfg.make_signal_model()
    lo, hi = sig_model.sig_min, sig_model.sig_max
    grid = np.unique(
        np.concatenate(
            [
                np.array([lo + 0.01 * (hi - lo)]),
                np.linspace(lo, hi, max(iterations, 3)),
            ]
        )
    )
    # The Default reference, the unconstrained probe and the grid share
    # the calibration workload, so they go out as one task list: one
    # slot loop when the executor stacks them.  The grid is evaluated
    # speculatively; it is only read when the probe misses a budget.
    # Inner runs stay on the *ambient* instrumentation.
    tasks = [
        RunTask(cal_cfg, DefaultScheduler(), wl),
        RunTask(cal_cfg, RTMAScheduler(sig_threshold_dbm=float("-inf")), wl),
    ]
    tasks += [
        RunTask(cal_cfg, RTMAScheduler(sig_threshold_dbm=float(t)), wl)
        for t in grid
    ]
    reference, probe, *grid_runs = map_runs(tasks)
    thresholds = _pick_rtma_thresholds(
        grid,
        probe.pe_mj,
        np.array([res.pe_mj for res in grid_runs]),
        factors,
        [a * reference.pe_mj for a in factors],
        instr,
        started,
    )
    return thresholds[0] if scalar else thresholds


def _pick_rtma_thresholds(
    grid: np.ndarray,
    probe_pe: float,
    pes: np.ndarray,
    alphas: list,
    budgets: list[float],
    instr: Instrumentation | None,
    started: float,
) -> list[float]:
    """Each budget's threshold from the probe's and the grid's PE.

    Feasible -> the weakest feasible threshold (smallest rebuffering
    impact); infeasible -> best effort, the PE-minimizing threshold.
    The ``calibration.*`` metrics and events record what a serial scan
    reads: the probe always, the grid only when the probe misses some
    budget.
    """
    budget_mj = budgets[0] if len(budgets) == 1 else budgets

    def note(threshold: float, pe: float) -> None:
        if instr is not None:
            instr.metrics.counter("calibration.grid_evaluations").inc()
            instr.metrics.histogram("calibration.rtma.pe_mj").observe(pe)
            if instr.tracer.enabled:
                instr.tracer.emit(
                    "calibration.rtma.point",
                    threshold_dbm=threshold,
                    pe_mj=pe,
                    budget_mj=budget_mj,
                )

    note(float("-inf"), probe_pe)
    if probe_pe > min(budgets):
        for t, pe in zip(grid, pes):
            note(float(t), float(pe))
    thresholds = []
    for alpha, budget in zip(alphas, budgets):
        feasible = pes <= budget
        if probe_pe <= budget:
            threshold, ok = float("-inf"), True
        elif np.any(feasible):
            threshold, ok = float(grid[np.argmax(feasible)]), True
        else:
            threshold, ok = float(grid[np.argmin(pes)]), False
            log.warning(
                "RTMA calibration infeasible: no threshold meets budget %.4g mJ "
                "(best effort PE %.4g mJ at %.1f dBm)",
                budget,
                float(pes.min()),
                threshold,
            )
        if instr is not None and instr.tracer.enabled:
            instr.tracer.emit(
                "calibration.rtma.result",
                threshold_dbm=threshold,
                feasible=ok,
                alpha=alpha,
                budget_mj=budget,
            )
        thresholds.append(threshold)
    if instr is not None:
        instr.profiler.record("calibrate_rtma", time.perf_counter() - started)
    return thresholds


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


def _ema_grid_tasks(
    cal_cfg: SimConfig, wl: Workload, v_lo: float, v_hi: float, iterations: int
) -> tuple[np.ndarray, list[RunTask]]:
    """EMA's geometric V grid and one calibration task per point."""
    grid = np.geomspace(v_lo, v_hi, max(iterations, 4))
    tasks = [
        RunTask(
            cal_cfg,
            EMAScheduler(cal_cfg.n_users, v_param=float(v), tau_s=cal_cfg.tau_s),
            wl,
        )
        for v in grid
    ]
    return grid, tasks


def _pick_ema_v(
    grid: np.ndarray,
    grid_runs: Sequence[SimulationResult],
    bounds: list[float],
    instr: Instrumentation | None,
    started: float,
) -> list[float]:
    """Each rebuffering bound's V from the grid's measured PC and PE.

    Feasible -> the most energy-saving feasible V (PE(V) is not
    monotone once tails and receiver windows bite, so pick by measured
    PE rather than by V); infeasible -> best effort, the PC-minimizing V.
    """
    bound_s = bounds[0] if len(bounds) == 1 else bounds
    if instr is not None:
        for v, res in zip(grid, grid_runs):
            instr.metrics.counter("calibration.grid_evaluations").inc()
            instr.metrics.histogram("calibration.ema.pc_s").observe(res.pc_s)
            instr.metrics.histogram("calibration.ema.pe_mj").observe(res.pe_mj)
            if instr.tracer.enabled:
                instr.tracer.emit(
                    "calibration.ema.point",
                    v=float(v),
                    pc_s=res.pc_s,
                    pe_mj=res.pe_mj,
                    bound_s=bound_s,
                )
    pcs = np.array([res.pc_s for res in grid_runs])
    pes = np.array([res.pe_mj for res in grid_runs])
    vs = []
    for bound in bounds:
        feasible = np.flatnonzero(pcs <= bound)
        if feasible.size:
            v, ok = float(grid[feasible[np.argmin(pes[feasible])]]), True
        else:
            v, ok = float(grid[np.argmin(pcs)]), False
            log.warning(
                "EMA calibration infeasible: no V meets rebuffering bound %.4g s "
                "(best effort PC %.4g s at V=%.4g)",
                bound,
                float(pcs.min()),
                v,
            )
        if instr is not None and instr.tracer.enabled:
            instr.tracer.emit(
                "calibration.ema.result", v=v, feasible=ok, bound_s=bound
            )
        vs.append(v)
    if instr is not None:
        instr.profiler.record("calibrate_ema", time.perf_counter() - started)
    return vs


def calibrate_ema_v(
    config: SimConfig,
    rebuffering_bound_s: float,
    workload: Workload | None = None,
    v_lo: float = _V_LO,
    v_hi: float = _V_HI,
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
    cal_cfg, wl = _calibration_inputs(
        config, workload, calibration_slots or min(config.n_slots, 1500)
    )
    # Independent grid runs on one shared workload: executor fan-out,
    # ambient instrumentation for the inner runs.
    grid, tasks = _ema_grid_tasks(cal_cfg, wl, v_lo, v_hi, iterations)
    return _pick_ema_v(grid, map_runs(tasks), [rebuffering_bound_s], instr, started)[0]


def calibrate_ema_v_to_reference(
    config: SimConfig,
    reference_scheduler_factory: Callable[[], object],
    beta: float | None = None,
    workload: Workload | None = None,
    iterations: int = 8,
    calibration_slots: int | None = None,
    *,
    betas: Sequence[float] | None = None,
) -> float | list[float]:
    """Calibrate EMA's ``V`` to ``Omega = beta * PC(reference)``.

    Both the reference rebuffering and EMA's are measured on the *same*
    shortened horizon — PC dilutes once sessions complete, so mixing
    horizons (bounding a short-horizon EMA by a long-horizon reference)
    systematically over-tightens the bound.  The reference and the V
    grid share that horizon's workload and go out as one task list, so
    the executor stacks them into one slot loop.

    Pass at most one of ``beta`` and ``betas`` (neither means
    ``beta=1.0``).  With ``betas`` the result is one V per factor, all
    chosen from a single reference and grid.
    """
    if beta is None and betas is None:
        beta = 1.0
    scalar, factors = _one_of("beta", beta, "betas", betas)
    instr = current_instrumentation()
    started = time.perf_counter()
    cal_cfg, wl = _calibration_inputs(
        config, workload, calibration_slots or min(config.n_slots, 1500)
    )
    grid, tasks = _ema_grid_tasks(cal_cfg, wl, _V_LO, _V_HI, iterations)
    reference, *grid_runs = map_runs(
        [RunTask(cal_cfg, reference_scheduler_factory(), wl)] + tasks
    )
    ref_pc = max(reference.pc_s, 1e-4)
    vs = _pick_ema_v(grid, grid_runs, [b * ref_pc for b in factors], instr, started)
    return vs[0] if scalar else vs


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
