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
from repro.experiments.common import ExperimentResult, calibration_kwargs, paper_config
from repro.sim.runner import calibrate_rtma_threshold, compare_schedulers
from repro.sim.workload import generate_workload

EXP_ID = "fig04"
TITLE = "RTMA rebuffering vs users / data amount, alpha sweep"

ALPHAS = (0.8, 1.0, 1.2)


def _sweep(cfg_points, label, fmt, scale):
    table = Table(
        [label, "default (s)"] + [f"rtma a={a} (s)" for a in ALPHAS],
        formats=[fmt, ".4f"] + [".4f"] * len(ALPHAS),
        title=f"{TITLE} — by {label}",
    )
    series: dict = {"points": [], "default": [], **{f"alpha={a}": [] for a in ALPHAS}}
    for point, cfg in cfg_points:
        wl = generate_workload(cfg)
        # Phase 1: one reference, probe and grid for every alpha.
        thresholds = calibrate_rtma_threshold(
            cfg, alphas=ALPHAS, workload=wl, **calibration_kwargs(scale)
        )
        # Phase 2: the point's full-horizon runs as one batch.
        results = compare_schedulers(
            cfg,
            {
                "default": DefaultScheduler(),
                **{
                    f"alpha={a}": RTMAScheduler(sig_threshold_dbm=thr)
                    for a, thr in zip(ALPHAS, thresholds)
                },
            },
            workload=wl,
        )
        series["points"].append(point)
        for name, res in results.items():
            series[name].append(res.pc_session_s)
        table.add_row([point] + [res.pc_session_s for res in results.values()])
    return table, series


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    base = paper_config(scale, seed)
    user_counts = (20, 30, 40) if scale == "bench" else (20, 25, 30, 35, 40)
    # Fig. 4a: vary user count (capacity fixed -> contention grows).
    users_points = [(n, base.with_(n_users=n)) for n in user_counts]
    table_a, series_a = _sweep(users_points, "users", "d", scale)

    # Fig. 4b: vary mean data amount (x-axis 150..550 MB in the paper,
    # scaled down proportionally at bench scale).
    scale_factor = 1.0 if scale == "full" else (150.0 * 1024.0) / (375.0 * 1024.0)
    sizes_mb = (150, 350, 550) if scale == "bench" else (150, 250, 350, 450, 550)
    size_points = [
        (mb, base.with_(mean_video_size_kb=mb * 1024.0 * scale_factor))
        for mb in sizes_mb
    ]
    table_b, series_b = _sweep(size_points, "avg size (MB)", "d", scale)

    return ExperimentResult(
        EXP_ID,
        TITLE,
        [table_a, table_b],
        {"by_users": series_a, "by_size": series_b},
    )
