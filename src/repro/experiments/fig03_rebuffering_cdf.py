"""Fig. 3 — rebuffering-time CDF, RTMA vs Default.

Paper claims: with RTMA "about 90% of the slots have less than 1.5 s
rebuffering" (trivially true since c <= tau; we report the per-slot CDF
anyway), and with the default strategy "about 57% of users have a very
low unsaturated time (close to zero) but more than 20% of users have
suffered rebuffering time more than 11 s" — a statement about the
*per-user total*, whose bimodality is the resource-competition
signature.
"""

from __future__ import annotations

from repro.analysis.cdf import cdf_at, tail_fraction
from repro.analysis.tables import Table
from repro.experiments.common import ExperimentResult
from repro.experiments.fig02_fairness_rtma import rtma_vs_default

EXP_ID = "fig03"
TITLE = "Rebuffering-time CDF (RTMA vs default)"


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    _, results = rtma_vs_default(scale, seed)
    table = Table(
        [
            "scheduler",
            "mean total rebuf (s/user)",
            "P(total < 1 s)",
            "P(total > 11 s)",
            "max total (s)",
        ],
        formats=[None, ".2f", ".3f", ".3f", ".1f"],
        title=TITLE,
    )
    data: dict = {}
    for name, res in results.items():
        totals = res.per_user_total_rebuffering_s()
        row = {
            "mean_total_s": float(totals.mean()),
            "frac_below_1s": cdf_at(totals, 1.0),
            "frac_above_11s": tail_fraction(totals, 11.0),
            "max_total_s": float(totals.max()),
        }
        data[name] = row
        table.add_row(
            [
                name,
                row["mean_total_s"],
                row["frac_below_1s"],
                row["frac_above_11s"],
                row["max_total_s"],
            ]
        )
    data["reduction"] = 1.0 - (
        data["rtma"]["mean_total_s"] / max(data["default"]["mean_total_s"], 1e-12)
    )
    return ExperimentResult(EXP_ID, TITLE, [table], data)
