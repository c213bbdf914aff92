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
from repro.experiments.common import ExperimentResult, paper_config
from repro.sim.runner import calibrate_ema_v_to_reference, compare_schedulers
from repro.sim.workload import generate_workload

EXP_ID = "fig08"
TITLE = "EMA energy vs users / data amount, beta sweep"

BETAS = (0.8, 1.0, 1.2)


def _calibration_slots(scale: str) -> int:
    return 400 if scale == "bench" else 1500


def _sweep(cfg_points, label, scale):
    table = Table(
        [label, "default (mJ)"] + [f"ema b={b} (mJ)" for b in BETAS],
        formats=["d", ".1f"] + [".1f"] * len(BETAS),
        title=f"{TITLE} — by {label}",
    )
    series: dict = {"points": [], "default": [], **{f"beta={b}": [] for b in BETAS}}
    for point, cfg in cfg_points:
        wl = generate_workload(cfg)
        # Phase 1: one reference and V grid for every beta.
        vs = calibrate_ema_v_to_reference(
            cfg,
            DefaultScheduler,
            betas=BETAS,
            workload=wl,
            iterations=6,
            calibration_slots=_calibration_slots(scale),
        )
        # Phase 2: the point's full-horizon runs as one batch.
        results = compare_schedulers(
            cfg,
            {
                "default": DefaultScheduler(),
                **{
                    f"beta={b}": EMAScheduler(cfg.n_users, v_param=v, tau_s=cfg.tau_s)
                    for b, v in zip(BETAS, vs)
                },
            },
            workload=wl,
        )
        series["points"].append(point)
        for name, res in results.items():
            series[name].append(res.pe_session_mj)
        table.add_row([point] + [res.pe_session_mj for res in results.values()])
    return table, series


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    base = paper_config(scale, seed)
    user_counts = (20, 30, 40) if scale == "bench" else (20, 25, 30, 35, 40)
    users_points = [(n, base.with_(n_users=n)) for n in user_counts]
    table_a, series_a = _sweep(users_points, "users", scale)

    scale_factor = 1.0 if scale == "full" else (150.0 * 1024.0) / (375.0 * 1024.0)
    sizes_mb = (150, 350, 550) if scale == "bench" else (150, 250, 350, 450, 550)
    size_points = [
        (mb, base.with_(mean_video_size_kb=mb * 1024.0 * scale_factor))
        for mb in sizes_mb
    ]
    table_b, series_b = _sweep(size_points, "avg size (MB)", scale)

    return ExperimentResult(
        EXP_ID, TITLE, [table_a, table_b], {"by_users": series_a, "by_size": series_b}
    )
