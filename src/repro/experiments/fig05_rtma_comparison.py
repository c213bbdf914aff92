"""Fig. 5 — RTMA vs Throttling vs ON-OFF vs Default across user counts.

(a) average rebuffering time; (b) average energy with the tail-energy
component broken out (the paper's black bars).  Paper shape: RTMA
lowest rebuffering everywhere (>= 68% reduction at 40 users); RTMA's
energy below the default's (alpha = 1) and slightly above ON-OFF's.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.baselines.default import DefaultScheduler
from repro.baselines.onoff import OnOffScheduler
from repro.baselines.throttling import ThrottlingScheduler
from repro.core.rtma import RTMAScheduler
from repro.experiments.common import (
    ExperimentResult,
    calibration_kwargs,
    paper_config,
    users_axis,
)
from repro.sim.runner import comparison_phase, rtma_calibration_phase

EXP_ID = "fig05"
TITLE = "RTMA vs Throttling / ON-OFF / Default"


def run(scale: str = "bench", seed: int = 0) -> ExperimentResult:
    base = paper_config(scale, seed)

    table_pc = Table(
        ["users", "default", "throttling", "on-off", "rtma"],
        formats=["d"] + [".4f"] * 4,
        title="Fig 5a: avg rebuffering (s per user-slot, session window)",
    )
    table_pe = Table(
        ["users", "default", "throttling", "on-off", "rtma", "rtma tail"],
        formats=["d"] + [".1f"] * 5,
        title="Fig 5b: avg energy (mJ per user-slot, session window)",
    )
    data: dict = {"users": [], "pc": {}, "pe": {}, "tail": {}}
    # The points are independent: every point's calibration is one
    # phase, every point's comparison one more.
    counts, points = users_axis(base, scale)
    thresholds = rtma_calibration_phase(points, [1.0], **calibration_kwargs(scale))
    comparisons = comparison_phase(
        [
            (
                cfg,
                {
                    "default": DefaultScheduler(),
                    "throttling": ThrottlingScheduler(),
                    "on-off": OnOffScheduler(),
                    "rtma": RTMAScheduler(sig_threshold_dbm=thr),
                },
                wl,
            )
            for (cfg, wl), (thr,) in zip(points, thresholds)
        ]
    )
    for n, results in zip(counts, comparisons):
        data["users"].append(n)
        mask_sums = {}
        for name, res in results.items():
            mask = res.session_mask()
            pc = res.pc_session_s
            pe = res.pe_session_mj
            tail = float(res.energy_tail_mj[mask].mean())
            data["pc"].setdefault(name, []).append(pc)
            data["pe"].setdefault(name, []).append(pe)
            data["tail"].setdefault(name, []).append(tail)
            mask_sums[name] = (pc, pe, tail)
        table_pc.add_row(
            [n] + [mask_sums[k][0] for k in ("default", "throttling", "on-off", "rtma")]
        )
        table_pe.add_row(
            [n]
            + [mask_sums[k][1] for k in ("default", "throttling", "on-off", "rtma")]
            + [mask_sums["rtma"][2]]
        )
    return ExperimentResult(EXP_ID, TITLE, [table_pc, table_pe], data)
