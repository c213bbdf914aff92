"""Fig. 4 — RTMA efficacy vs user count (a) and data amount (b) for
alpha in {0.8, 1.0, 1.2}.

Paper shape: a looser energy constraint (larger alpha) buys more
rebuffering reduction; even alpha = 0.8 beats the default in most
scenarios; rebuffering grows with user count and data amount.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.baselines.default import DefaultScheduler
from repro.core.rtma import RTMAScheduler
from repro.experiments.common import (
    ExperimentResult,
    calibration_kwargs,
    paper_config,
    sizes_axis,
    users_axis,
)
from repro.sim.runner import comparison_phase, rtma_calibration_phase

EXP_ID = "fig04"
TITLE = "RTMA rebuffering vs users / data amount, alpha sweep"

ALPHAS = (0.8, 1.0, 1.2)


def _panel(axis, label, scale):
    xs, points = axis
    table = Table(
        [label, "default (s)"] + [f"rtma a={a} (s)" for a in ALPHAS],
        formats=["d", ".4f"] + [".4f"] * len(ALPHAS),
        title=f"{TITLE} — by {label}",
    )
    # Phase 1: each point's one reference, probe and grid serve every alpha.
    thresholds = rtma_calibration_phase(points, ALPHAS, **calibration_kwargs(scale))
    # Phase 2: every point's Default and per-alpha runs as one batch.
    comparisons = comparison_phase(
        [
            (
                cfg,
                {
                    "default": DefaultScheduler(),
                    **{
                        f"alpha={a}": RTMAScheduler(sig_threshold_dbm=thr)
                        for a, thr in zip(ALPHAS, point_thresholds)
                    },
                },
                wl,
            )
            for (cfg, wl), point_thresholds in zip(points, thresholds)
        ]
    )
    series: dict = {"points": list(xs)}
    for x, results in zip(xs, comparisons):
        for name, res in results.items():
            series.setdefault(name, []).append(res.pc_session_s)
        table.add_row([x] + [res.pc_session_s for res in results.values()])
    return table, series


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    base = paper_config(scale, seed)
    # Fig. 4a: vary user count (capacity fixed -> contention grows).
    table_a, series_a = _panel(users_axis(base, scale), "users", scale)
    # Fig. 4b: vary mean data amount.
    table_b, series_b = _panel(sizes_axis(base, scale), "avg size (MB)", scale)
    return ExperimentResult(
        EXP_ID,
        TITLE,
        [table_a, table_b],
        {"by_users": series_a, "by_size": series_b},
    )
