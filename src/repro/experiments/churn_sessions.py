"""Session churn — schedulers under a dynamic population.

Not a paper figure: the paper evaluates a fixed population that all
arrives at slot 0.  This experiment exercises the dynamic session
lifecycle (Poisson arrivals, capacity-threshold admission control,
retirement on playback completion) across the scheduler families and
reports the offered/admitted/rejected/completed session accounting
next to the paper's energy and rebuffering metrics.

The bench scale is sized for CI: every admitted session completes well
inside the horizon, so the run exercises arrivals, admission,
rejection and retirement end to end in a few seconds.  Each session
owns its fleet row for the whole run, so the four schedulers' runs
stack into one slot loop like any other comparison.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.baselines.default import DefaultScheduler
from repro.baselines.onoff import OnOffScheduler
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult
from repro.sim.config import SimConfig
from repro.sim.runner import compare_schedulers
from repro.sim.workload import generate_workload

EXP_ID = "churn"
TITLE = "Schedulers under session churn (Poisson arrivals, admission control)"


def churn_config(scale: str = "bench", seed: int = 0) -> SimConfig:
    """A dynamic-population scenario at the requested scale.

    Short sessions (a few MB) against a comfortable cell capacity, a
    Poisson arrival stream, and an admission cap below the offered
    population — so the run sees joins, rejections and retirements
    rather than one static cohort.
    """
    if scale == "bench":
        return SimConfig(
            n_users=24,
            n_slots=600,
            capacity_kbps=4_000.0,
            video_size_range_kb=(3_000.0, 8_000.0),
            buffer_capacity_s=40.0,
            seed=seed,
            arrival_process="poisson",
            arrival_rate_per_slot=0.5,
            admission="capacity-threshold",
            admission_max_active=4,
        )
    if scale == "full":
        return SimConfig(
            n_users=40,
            n_slots=4_000,
            capacity_kbps=8_000.0,
            video_size_range_kb=(4_000.0, 12_000.0),
            buffer_capacity_s=60.0,
            seed=seed,
            arrival_process="poisson",
            arrival_rate_per_slot=0.04,
            admission="capacity-threshold",
            admission_max_active=12,
        )
    raise ConfigurationError(f"unknown scale {scale!r}; use 'bench' or 'full'")


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    cfg = churn_config(scale, seed)
    wl = generate_workload(cfg)
    schedulers = {
        "default": DefaultScheduler(),
        "on-off": OnOffScheduler(),
        "rtma": RTMAScheduler(),
        "ema": EMAScheduler(cfg.n_users),
    }
    results = compare_schedulers(cfg, schedulers, wl)

    table = Table(
        [
            "scheduler",
            "PE (mJ)",
            "PC (s)",
            "offered",
            "admitted",
            "rejected",
            "completed",
        ],
        formats=["s", ".3f", ".4f", "d", "d", "d", "d"],
        title=TITLE,
    )
    data: dict = {}
    for name, res in results.items():
        summary = res.to_summary_dict()
        table.add_row(
            [
                name,
                summary["pe_session_mj"],
                summary["pc_session_s"],
                summary["sessions_offered"],
                summary["sessions_admitted"],
                summary["sessions_rejected"],
                summary["sessions_completed"],
            ]
        )
        data[name] = summary
    return ExperimentResult(EXP_ID, TITLE, [table], data)
