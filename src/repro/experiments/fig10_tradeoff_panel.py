"""Fig. 10 — the rebuffering-energy trade-off panel.

For user counts 20..40, plot (total energy, avg rebuffering) points
for Default, RTMA (alpha = 1) and EMA (beta = 1).  Paper shape: RTMA's
curve is the default's shifted down the rebuffering axis at equal
energy; EMA's is shifted down the energy axis at equal rebuffering.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.baselines.default import DefaultScheduler
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.experiments.common import ExperimentResult, calibration_kwargs, paper_config
from repro.sim.runner import (
    calibrate_ema_v_to_reference,
    calibrate_rtma_threshold,
    compare_schedulers,
)
from repro.sim.workload import generate_workload

EXP_ID = "fig10"
TITLE = "Rebuffering-energy trade-off panel (default / RTMA / EMA)"


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    base = paper_config(scale, seed)
    user_counts = (20, 30, 40) if scale == "bench" else (20, 25, 30, 35, 40)
    cal_slots = 400 if scale == "bench" else 1500

    table = Table(
        ["users", "scheduler", "energy (mJ)", "rebuffering (s)"],
        formats=["d", None, ".1f", ".4f"],
        title=TITLE,
    )
    data: dict = {"users": [], "points": {}}
    for n in user_counts:
        cfg = base.with_(n_users=n)
        wl = generate_workload(cfg)
        thr = calibrate_rtma_threshold(
            cfg, alpha=1.0, workload=wl, **calibration_kwargs(scale)
        )
        v = calibrate_ema_v_to_reference(
            cfg,
            DefaultScheduler,
            beta=1.0,
            workload=wl,
            iterations=6,
            calibration_slots=cal_slots,
        )
        results = compare_schedulers(
            cfg,
            {
                "default": DefaultScheduler(),
                "rtma": RTMAScheduler(sig_threshold_dbm=thr),
                "ema": EMAScheduler(cfg.n_users, v_param=v, tau_s=cfg.tau_s),
            },
            workload=wl,
        )
        data["users"].append(n)
        for name, res in results.items():
            point = (res.pe_session_mj, res.pc_session_s)
            data["points"].setdefault(name, []).append(point)
            table.add_row([n, name, point[0], point[1]])
    return ExperimentResult(EXP_ID, TITLE, [table], data)
