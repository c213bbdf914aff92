"""Fig. 8 — EMA energy vs user count (a) and data amount (b) for
beta in {0.8, 1.0, 1.2}, where Omega = beta * R_default.

Paper shape: EMA (beta = 1) saves > 48% energy vs the default across
scenarios; a tighter rebuffering bound (beta = 0.8) still saves, a
looser one (beta = 1.2) saves more.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.baselines.default import DefaultScheduler
from repro.core.ema import EMAScheduler
from repro.experiments.common import (
    ExperimentResult,
    ema_calibration_kwargs,
    paper_config,
    sizes_axis,
    users_axis,
)
from repro.sim.runner import comparison_phase, ema_calibration_phase

EXP_ID = "fig08"
TITLE = "EMA energy vs users / data amount, beta sweep"

BETAS = (0.8, 1.0, 1.2)


def _panel(axis, label, scale):
    xs, points = axis
    table = Table(
        [label, "default (mJ)"] + [f"ema b={b} (mJ)" for b in BETAS],
        formats=["d", ".1f"] + [".1f"] * len(BETAS),
        title=f"{TITLE} — by {label}",
    )
    # Phase 1: each point's one reference and V grid serve every beta.
    vs = ema_calibration_phase(
        points, DefaultScheduler, BETAS, **ema_calibration_kwargs(scale)
    )
    # Phase 2: every point's Default and per-beta runs as one batch.
    comparisons = comparison_phase(
        [
            (
                cfg,
                {
                    "default": DefaultScheduler(),
                    **{
                        f"beta={b}": EMAScheduler(cfg.n_users, v_param=v, tau_s=cfg.tau_s)
                        for b, v in zip(BETAS, point_vs)
                    },
                },
                wl,
            )
            for (cfg, wl), point_vs in zip(points, vs)
        ]
    )
    series: dict = {"points": list(xs)}
    for x, results in zip(xs, comparisons):
        for name, res in results.items():
            series.setdefault(name, []).append(res.pe_session_mj)
        table.add_row([x] + [res.pe_session_mj for res in results.values()])
    return table, series


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    base = paper_config(scale, seed)
    table_a, series_a = _panel(users_axis(base, scale), "users", scale)
    table_b, series_b = _panel(sizes_axis(base, scale), "avg size (MB)", scale)
    return ExperimentResult(
        EXP_ID, TITLE, [table_a, table_b], {"by_users": series_a, "by_size": series_b}
    )
