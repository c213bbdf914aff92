"""Fig. 2 — CDF of the per-slot Jain fairness index, RTMA vs Default.

Paper claim: "the fairness index of RTMA is larger than 0.7 for more
than 90% of time slots ... while for the default strategy, the
fairness index is below 0.2 for about 50% of slots."
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import cdf_at, tail_fraction
from repro.analysis.tables import Table
from repro.baselines.default import DefaultScheduler
from repro.experiments.common import ExperimentResult, calibration_kwargs, paper_config
from repro.sim.runner import calibrate_rtma_threshold, compare_schedulers
from repro.sim.workload import generate_workload
from repro.core.rtma import RTMAScheduler

EXP_ID = "fig02"
TITLE = "Fairness index CDF (RTMA vs default), N=40, avg 350 MB"


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    cfg = paper_config(scale, seed)
    wl = generate_workload(cfg)
    threshold, threshold_12 = calibrate_rtma_threshold(
        cfg, alphas=(1.0, 1.2), workload=wl, **calibration_kwargs(scale)
    )
    results = compare_schedulers(
        cfg,
        {
            "default": DefaultScheduler(),
            "rtma": RTMAScheduler(sig_threshold_dbm=threshold),
            "rtma (a=1.2)": RTMAScheduler(sig_threshold_dbm=threshold_12),
        },
        workload=wl,
    )
    table = Table(
        ["scheduler", "mean fairness", "P(J > 0.7)", "P(J < 0.2)"],
        formats=[None, ".3f", ".3f", ".3f"],
        title=TITLE,
    )
    data: dict = {"threshold_dbm": threshold}
    for name, res in results.items():
        fairness = res.fairness_per_slot()
        fairness = fairness[~np.isnan(fairness)]
        row = {
            "mean": float(fairness.mean()),
            "gt_07": tail_fraction(fairness, 0.7),
            "lt_02": cdf_at(fairness, 0.2),
        }
        data[name] = row
        table.add_row([name, row["mean"], row["gt_07"], row["lt_02"]])
    return ExperimentResult(EXP_ID, TITLE, [table], data)
