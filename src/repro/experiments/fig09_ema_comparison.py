"""Fig. 9 — EMA vs SALSA vs EStreamer vs Default across user counts.

(a) energy; (b) rebuffering.  The rebuffering bound Omega is set to
EStreamer's measured rebuffering (as in the paper), then EMA's V is
calibrated to it.  Paper shape: EMA lowest energy (>= 48% vs SALSA and
default, >= 27% vs EStreamer); EStreamer's rebuffering is small.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.baselines.default import DefaultScheduler
from repro.baselines.estreamer import EStreamerScheduler
from repro.baselines.salsa import SalsaScheduler
from repro.core.ema import EMAScheduler
from repro.experiments.common import ExperimentResult, paper_config
from repro.sim.runner import calibrate_ema_v_to_reference, compare_schedulers
from repro.sim.workload import generate_workload

EXP_ID = "fig09"
TITLE = "EMA vs SALSA / EStreamer / Default"


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    base = paper_config(scale, seed)
    user_counts = (20, 30, 40) if scale == "bench" else (20, 25, 30, 35, 40)
    cal_slots = 400 if scale == "bench" else 1500

    table_pe = Table(
        ["users", "default", "salsa", "estreamer", "ema"],
        formats=["d"] + [".1f"] * 4,
        title="Fig 9a: avg energy (mJ per user-slot, session window)",
    )
    table_pc = Table(
        ["users", "default", "salsa", "estreamer", "ema"],
        formats=["d"] + [".4f"] * 4,
        title="Fig 9b: avg rebuffering (s per user-slot, session window)",
    )
    data: dict = {"users": [], "pe": {}, "pc": {}}
    for n in user_counts:
        cfg = base.with_(n_users=n)
        wl = generate_workload(cfg)
        v = calibrate_ema_v_to_reference(
            cfg,
            EStreamerScheduler,
            beta=1.0,
            workload=wl,
            iterations=6,
            calibration_slots=cal_slots,
        )
        results = compare_schedulers(
            cfg,
            {
                "default": DefaultScheduler(),
                "salsa": SalsaScheduler(),
                "estreamer": EStreamerScheduler(),
                "ema": EMAScheduler(cfg.n_users, v_param=v, tau_s=cfg.tau_s),
            },
            workload=wl,
        )
        data["users"].append(n)
        order = ("default", "salsa", "estreamer", "ema")
        for name in order:
            data["pe"].setdefault(name, []).append(results[name].pe_session_mj)
            data["pc"].setdefault(name, []).append(results[name].pc_session_s)
        table_pe.add_row([n] + [results[k].pe_session_mj for k in order])
        table_pc.add_row([n] + [results[k].pc_session_s for k in order])
    return ExperimentResult(EXP_ID, TITLE, [table_pe, table_pc], data)
