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
from repro.experiments.common import (
    ExperimentResult,
    ema_calibration_kwargs,
    paper_config,
    users_axis,
)
from repro.sim.runner import comparison_phase, ema_calibration_phase

EXP_ID = "fig09"
TITLE = "EMA vs SALSA / EStreamer / Default"


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    base = paper_config(scale, seed)

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
    # The points are independent: every point's calibration is one
    # phase, every point's comparison one more.
    counts, points = users_axis(base, scale)
    vs = ema_calibration_phase(
        points, EStreamerScheduler, [1.0], **ema_calibration_kwargs(scale)
    )
    comparisons = comparison_phase(
        [
            (
                cfg,
                {
                    "default": DefaultScheduler(),
                    "salsa": SalsaScheduler(),
                    "estreamer": EStreamerScheduler(),
                    "ema": EMAScheduler(cfg.n_users, v_param=v, tau_s=cfg.tau_s),
                },
                wl,
            )
            for (cfg, wl), (v,) in zip(points, vs)
        ]
    )
    order = ("default", "salsa", "estreamer", "ema")
    for n, results in zip(counts, comparisons):
        data["users"].append(n)
        for name in order:
            data["pe"].setdefault(name, []).append(results[name].pe_session_mj)
            data["pc"].setdefault(name, []).append(results[name].pc_session_s)
        table_pe.add_row([n] + [results[k].pe_session_mj for k in order])
        table_pc.add_row([n] + [results[k].pc_session_s for k in order])
    return ExperimentResult(EXP_ID, TITLE, [table_pe, table_pc], data)
