"""The paper's primary contribution: the RTM/EM scheduling core.

* :mod:`repro.core.scheduler` — the scheduler interface all policies
  (RTMA, EMA, and every baseline) implement, and the wanted-units
  base every baseline shares;
* :mod:`repro.core.allocation` — constraint validation for Eqs. (1)-(2);
* :mod:`repro.core.rtma` — Rebuffering Time Minimization Algorithm
  (Algorithm 1) and the Eq. (12) energy-to-signal threshold;
* :mod:`repro.core.ema` — Energy Minimization Algorithm (Algorithm 2):
  Lyapunov drift-plus-penalty with an exact per-slot dynamic program,
  accelerated by a sliding-window-minimum formulation;
* :mod:`repro.core.lyapunov` — virtual queues, drift bounds and the
  Theorem 1 bound computations;
* :mod:`repro.core.knapsack` — brute-force multiple-choice-knapsack
  reference solvers used to verify the fast DP and to measure
  optimality gaps.
"""

from repro.core.scheduler import ClipScheduler, Scheduler
from repro.core.allocation import check_constraints, clip_to_constraints
from repro.core.rtma import RTMAScheduler, signal_threshold_for_energy_budget
from repro.core.ema import EMAScheduler
from repro.core.lyapunov import (
    VirtualQueues,
    drift_bound_constant,
    theorem1_energy_bound,
    theorem1_rebuffering_bound,
)
from repro.core.knapsack import exact_slot_minimum, brute_force_slot_minimum

__all__ = [
    "Scheduler",
    "ClipScheduler",
    "check_constraints",
    "clip_to_constraints",
    "RTMAScheduler",
    "signal_threshold_for_energy_budget",
    "EMAScheduler",
    "VirtualQueues",
    "drift_bound_constant",
    "theorem1_energy_bound",
    "theorem1_rebuffering_bound",
    "exact_slot_minimum",
    "brute_force_slot_minimum",
]
