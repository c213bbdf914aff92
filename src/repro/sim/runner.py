"""High-level run orchestration: comparisons, sweeps, calibration.

The paper's evaluation protocol calibrates each scheduler against a
reference on the **same workload**: RTMA's budget is ``Phi = alpha *
E_default`` and EMA's rebuffering bound is ``Omega = beta *
PC_reference``.  The helpers here run that protocol in two *phases*,
each one :func:`repro.sim.executor.map_runs` call over every sweep
point it is given (a point is a config and its workload; the points
do not depend on each other):

1. *Calibration* (:func:`rtma_calibration_phase`,
   :func:`ema_calibration_phase`).  Each point's reference, RTMA's
   unconstrained probe and the threshold grid (or the reference and
   EMA's V grid) are independent runs on the point's shortened
   workload, so every point's tasks go out as one task list, which the
   executor stacks into one slot loop (runs of different user counts
   included).  The grid runs speculatively, even when the probe alone
   would settle the answer.  One reference, probe and grid serve every
   alpha (or beta) of a point: only the final budget cut depends on
   the factor.
2. *Comparison* (:func:`comparison_phase`).  Every point's
   full-horizon runs, with the calibrated parameters, go out as one
   more batch.

Each phase hands every point its slice of the results, in point
order.  Every calibrating figure driver (fig02 to fig05, fig08 to
fig10) calls the phases over its points: once per driver, or once per
panel for fig04 and fig08.  :func:`calibrate_rtma_threshold` and
:func:`calibrate_ema_v_to_reference` are the phases' one-point,
one-factor case, and :func:`compare_schedulers` is the one-point
comparison.  Since every helper routes its runs through ``map_runs``,
installing a pooled executor (:func:`repro.sim.executor.use_executor`,
or ``repro-experiments --jobs N``) parallelises them with bit-identical
results and metrics.
"""

from __future__ import annotations

import logging
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
    "comparison_phase",
    "calibrate_rtma_threshold",
    "rtma_calibration_phase",
    "make_rtma_eq12",
    "calibrate_ema_v",
    "calibrate_ema_v_to_reference",
    "ema_calibration_phase",
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
    The one-point case of :func:`comparison_phase`.
    """
    (results,) = comparison_phase([(config, schedulers, workload)], instrumentation)
    return results


def comparison_phase(
    points: Sequence[tuple[SimConfig, Mapping[str, object], Workload | None]],
    instrumentation: Instrumentation | None = None,
) -> list[dict[str, SimulationResult]]:
    """Every point's schedulers on that point's workload, one batch.

    ``points`` holds ``(config, schedulers, workload)`` triples (a
    ``None`` workload is generated from the config).  Returns one dict
    per point, keyed like its mapping.
    """
    instr = _resolve_instrumentation(instrumentation)
    tasks = []
    for config, schedulers, workload in points:
        if not schedulers:
            raise ConfigurationError("need at least one scheduler")
        wl = workload if workload is not None else generate_workload(config)
        tasks += [RunTask(config, sched, wl) for sched in schedulers.values()]
    runs = iter(map_runs(tasks, instrumentation=instr))
    out = []
    for _, schedulers, _ in points:
        results = {name: next(runs) for name in schedulers}
        if instr is not None and instr.tracer.enabled:
            for name, res in results.items():
                instr.tracer.emit(
                    "compare.run", scheduler=name, pe_mj=res.pe_mj, pc_s=res.pc_s
                )
        out.append(results)
    return out


def _checked_factors(name: str, factors: Sequence[float]) -> list[float]:
    """A calibration phase's budget factors, which must be positive."""
    factors = list(factors)
    if not factors:
        raise ConfigurationError(f"need at least one {name}")
    if any(f <= 0 for f in factors):
        raise ConfigurationError(f"{name} must be positive")
    return factors


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
    weak for the budget" — empirically: scan the threshold on a
    shortened run until RTMA's measured PE meets ``alpha`` times the
    default strategy's PE *on the same horizon* (horizon-consistent,
    since PE dilutes once sessions complete).  Returns ``-inf`` when
    unconstrained RTMA already fits the budget.

    The one-point, one-factor case of :func:`rtma_calibration_phase`.
    """
    ((threshold,),) = rtma_calibration_phase(
        [(config, workload)], [alpha], iterations, calibration_slots, instrumentation
    )
    return threshold


def rtma_calibration_phase(
    points: Sequence[tuple[SimConfig, Workload | None]],
    alphas: Sequence[float],
    iterations: int = 9,
    calibration_slots: int | None = None,
    instrumentation: Instrumentation | None = None,
) -> list[list[float]]:
    """:func:`calibrate_rtma_threshold` for several ``(config,
    workload)`` points at once: every point's reference, probe and grid
    go out as one task list.  Returns one threshold per alpha for each
    point, in point order; all of a point's thresholds are cut from its
    one reference, probe and grid, since only the final
    ``pe <= alpha * E_default`` test depends on alpha.
    """
    alphas = _checked_factors("alpha", alphas)
    instr = _resolve_instrumentation(instrumentation)
    grids, tasks = [], []
    for config, workload in points:
        cal_cfg, wl = _calibration_inputs(
            config, workload, calibration_slots or min(config.n_slots, 2000)
        )
        # PE is not monotone in the threshold (a stricter threshold
        # trades transmission energy for extra tail toggling), so scan a
        # grid instead of bisecting.  Sample densely near the weak end
        # where clipped trace mass makes eligibility jump, then evenly
        # across the range.
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
        grids.append(grid)
        # The Default reference, the unconstrained probe and the grid
        # share the calibration workload.  The grid is evaluated
        # speculatively; it is only read when the probe misses a
        # budget.  Inner runs stay on the *ambient* instrumentation.
        tasks += [
            RunTask(cal_cfg, DefaultScheduler(), wl),
            RunTask(cal_cfg, RTMAScheduler(sig_threshold_dbm=float("-inf")), wl),
        ]
        tasks += [
            RunTask(cal_cfg, RTMAScheduler(sig_threshold_dbm=float(t)), wl)
            for t in grid
        ]
    runs = iter(map_runs(tasks))
    out = []
    for grid in grids:
        reference, probe = next(runs), next(runs)
        pes = np.array([next(runs).pe_mj for _ in grid])
        out.append(
            _pick_rtma_thresholds(
                grid,
                probe.pe_mj,
                pes,
                alphas,
                [a * reference.pe_mj for a in alphas],
                instr,
            )
        )
    return out


def _pick_rtma_thresholds(
    grid: np.ndarray,
    probe_pe: float,
    pes: np.ndarray,
    alphas: list,
    budgets: list[float],
    instr: Instrumentation | None,
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
    cal_cfg, wl = _calibration_inputs(
        config, workload, calibration_slots or min(config.n_slots, 1500)
    )
    # Independent grid runs on one shared workload: executor fan-out,
    # ambient instrumentation for the inner runs.
    grid, tasks = _ema_grid_tasks(cal_cfg, wl, v_lo, v_hi, iterations)
    return _pick_ema_v(grid, map_runs(tasks), [rebuffering_bound_s], instr)[0]


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
    systematically over-tightens the bound.  The reference and the V
    grid share that horizon's workload and go out as one task list, so
    the executor stacks them into one slot loop.

    The one-point, one-factor case of :func:`ema_calibration_phase`.
    """
    ((v,),) = ema_calibration_phase(
        [(config, workload)],
        reference_scheduler_factory,
        [beta],
        iterations,
        calibration_slots,
    )
    return v


def ema_calibration_phase(
    points: Sequence[tuple[SimConfig, Workload | None]],
    reference_scheduler_factory: Callable[[], object],
    betas: Sequence[float],
    iterations: int = 8,
    calibration_slots: int | None = None,
) -> list[list[float]]:
    """:func:`calibrate_ema_v_to_reference` for several ``(config,
    workload)`` points at once: every point's reference and V grid go
    out as one task list.  Returns one V per beta for each point, in
    point order; all of a point's Vs are chosen from its one reference
    and grid.
    """
    betas = _checked_factors("beta", betas)
    instr = current_instrumentation()
    grids, tasks = [], []
    for config, workload in points:
        cal_cfg, wl = _calibration_inputs(
            config, workload, calibration_slots or min(config.n_slots, 1500)
        )
        grid, grid_tasks = _ema_grid_tasks(cal_cfg, wl, _V_LO, _V_HI, iterations)
        grids.append(grid)
        tasks += [RunTask(cal_cfg, reference_scheduler_factory(), wl)] + grid_tasks
    runs = iter(map_runs(tasks))
    out = []
    for grid in grids:
        ref_pc = max(next(runs).pc_s, 1e-4)
        grid_runs = [next(runs) for _ in grid]
        out.append(_pick_ema_v(grid, grid_runs, [b * ref_pc for b in betas], instr))
    return out


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
