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
from repro.experiments.common import (
    ExperimentResult,
    calibration_kwargs,
    ema_calibration_kwargs,
    paper_config,
    users_axis,
)
from repro.sim.runner import (
    comparison_phase,
    ema_calibration_phase,
    rtma_calibration_phase,
)

EXP_ID = "fig10"
TITLE = "Rebuffering-energy trade-off panel (default / RTMA / EMA)"


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    base = paper_config(scale, seed)
    counts, points = users_axis(base, scale)

    table = Table(
        ["users", "scheduler", "energy (mJ)", "rebuffering (s)"],
        formats=["d", None, ".1f", ".4f"],
        title=TITLE,
    )
    data: dict = {"users": list(counts), "points": {}}
    thresholds = rtma_calibration_phase(points, [1.0], **calibration_kwargs(scale))
    vs = ema_calibration_phase(
        points, DefaultScheduler, [1.0], **ema_calibration_kwargs(scale)
    )
    comparisons = comparison_phase(
        [
            (
                cfg,
                {
                    "default": DefaultScheduler(),
                    "rtma": RTMAScheduler(sig_threshold_dbm=thr),
                    "ema": EMAScheduler(cfg.n_users, v_param=v, tau_s=cfg.tau_s),
                },
                wl,
            )
            for (cfg, wl), (thr,), (v,) in zip(points, thresholds, vs)
        ]
    )
    for n, results in zip(counts, comparisons):
        for name, res in results.items():
            point = (res.pe_session_mj, res.pc_session_s)
            data["points"].setdefault(name, []).append(point)
            table.add_row([n, name, point[0], point[1]])
    return ExperimentResult(EXP_ID, TITLE, [table], data)
