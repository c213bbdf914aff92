"""Simulation layer: configuration, workload, engine, metrics, sweeps.

* :mod:`repro.sim.config` — :class:`SimConfig`, the single source of
  truth for a run's parameters (paper Section VI defaults);
* :mod:`repro.sim.workload` — seeded generation of video flows and
  signal traces;
* :mod:`repro.sim.engine` — the slot-driven simulation loop wiring
  gateway, clients, RRC fleet and a scheduler;
* :mod:`repro.sim.metrics` — PE (Eq. 6), PC (Eq. 9), Jain fairness and
  CDF helpers;
* :mod:`repro.sim.results` — per-slot/per-user result arrays plus
  summaries;
* :mod:`repro.sim.runner` — comparisons on identical workloads,
  parameter sweeps, multi-seed replication, and the calibration
  helpers that set ``Phi = alpha * E_default`` / pick EMA's ``V`` for a
  target rebuffering bound;
* :mod:`repro.sim.executor` — serial and process-pool run execution
  behind one ``map_runs`` API (``repro-experiments --jobs N``);
* :mod:`repro.sim.batch` — run-stacked batch execution: R compatible
  runs share one slot loop, bit-identical to serial
  (``repro-experiments --batch R``).
"""

from repro.sim.batch import BatchPlan, batch_incompatibility, run_batch
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.executor import (
    RunExecutor,
    RunTask,
    current_executor,
    map_runs,
    use_executor,
)
from repro.sim.metrics import (
    average_energy_mj,
    average_rebuffering_s,
    jain_fairness,
    per_slot_fairness,
)
from repro.sim.results import SimulationResult, SummaryStats
from repro.sim.runner import (
    calibrate_ema_v,
    compare_schedulers,
    multi_seed,
    run_scheduler,
    sweep,
)
from repro.sim.workload import Workload, generate_workload

__all__ = [
    "SimConfig",
    "Simulation",
    "SimulationResult",
    "SummaryStats",
    "Workload",
    "generate_workload",
    "average_energy_mj",
    "average_rebuffering_s",
    "jain_fairness",
    "per_slot_fairness",
    "run_scheduler",
    "compare_schedulers",
    "sweep",
    "calibrate_ema_v",
    "multi_seed",
    "RunTask",
    "RunExecutor",
    "map_runs",
    "use_executor",
    "current_executor",
    "BatchPlan",
    "batch_incompatibility",
    "run_batch",
]
