"""The four benchmark workloads.

Each workload is a closed loop of *iterations*: one iteration is one
complete piece of work a user asks for (a figure panel, a multi-seed
replication, a traced churn experiment with its analysis and report),
started only after the previous one has finished.  ``prepare`` runs
before the timed section and is part of set-up; ``iterate`` is timed
and returns an :class:`Outcome` whose digests the worker compares
across iterations of the same seed.

Why these four (see README.md for the measured spread of each):

* ``rtma_panel`` -- the Fig. 5 protocol through the ``fig05`` driver.
  Loads the fixed-population engine body, the gateway, the client
  fleet, the RRC fleet and RTMA's rounds kernel; EMA's DP is idle.
* ``ema_panel`` -- the Fig. 9 protocol through the ``fig09`` driver.
  Loads EMA's allocation and the ``ema_dp`` kernel.
* ``stacked_seeds`` -- ``multi_seed`` of Default, RTMA and EMA through
  the run-stacked batch engine (``RunExecutor(jobs=1, batch_size=R)``).
  Bypasses the per-run engine body; loads ``sim.batch`` and the
  ``*_batch`` kernels, and has the largest working set.
* ``churn_traced`` -- the ``churn`` driver's dynamic population with a
  signal blackout and a capacity outage, under the program's own full
  instrumentation (JSONL trace, spans, metrics), followed by
  ``repro-analyze``'s invariant checks and the HTML report.  The only
  workload that loads the dynamic engine body, sessions/admission,
  faults and obs.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Runs stacked per slot loop on ``stacked_seeds`` (= seeds per scheduler).
STACK_R = 16
#: Fixed scheduler parameters for ``stacked_seeds`` (no calibration).
STACK_RTMA_THRESHOLD_DBM = -95.0
STACK_EMA_V = 1.0

#: Where ``churn_traced`` writes its run directory (inside the checkout).
CHURN_DIR = Path(".bench_build") / "perfbench" / "churn"


def _canonical(value):
    if isinstance(value, dict):
        return {
            str(k): _canonical(v) for k, v in value.items() if k != "phase_timings"
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def digest(value) -> str:
    """SHA-256 of a canonical JSON rendering (floats at full precision).

    Wall-clock ``phase_timings`` entries are dropped: they are the only
    field of a run summary that is not a function of the inputs.
    """
    text = json.dumps(_canonical(value), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite_numbers(value) -> bool:
    """Every number in a nested result is finite or an explicit NaN gap."""
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, float):
        return not math.isinf(value)
    return True


@dataclass
class Outcome:
    """What one iteration produced, for the worker's output checks."""

    #: Digest of every reported number of the iteration.
    digest: str
    #: One digest per simulation run whose result is reported (empty
    #: when the workload reports only an aggregate, as the panels do).
    run_digests: list[str] = field(default_factory=list)
    #: Runs that failed a check of their own (invariant violations,
    #: malformed results); counted as failed operations.
    bad_runs: int = 0
    #: Extra exact counts this iteration produced (trace events, ...).
    counts: dict = field(default_factory=dict)


class Workload:
    name = ""

    def prepare(self, seed: int):
        """Inputs for ``iterate``; runs before the timed section."""
        return seed

    def iterate(self, state) -> Outcome:
        raise NotImplementedError

    def final_check(self, state, outcome: Outcome) -> int:
        """Untimed cross-check of the first iteration after the loop;
        returns the runs that failed it."""
        return 0

    def cleanup(self, state) -> None:
        """Remove what an iteration left behind (untimed)."""


def _panel_outcome(data: dict, schedulers: tuple[str, ...], metrics: tuple[str, ...]) -> Outcome:
    bad = 0
    n_points = len(data["users"])
    for metric in metrics:
        for name in schedulers:
            series = data[metric].get(name, [])
            if len(series) != n_points or not all(
                isinstance(v, float) and math.isfinite(v) and v >= 0 for v in series
            ):
                bad += 1
    return Outcome(digest(data), bad_runs=bad)


class RtmaPanel(Workload):
    name = "rtma_panel"

    def iterate(self, seed) -> Outcome:
        from repro.experiments import fig05_rtma_comparison

        data = fig05_rtma_comparison.run(scale="bench", seed=seed).data
        return _panel_outcome(
            data, ("default", "throttling", "on-off", "rtma"), ("pc", "pe", "tail")
        )


class EmaPanel(Workload):
    name = "ema_panel"

    def iterate(self, seed) -> Outcome:
        from repro.experiments import fig09_ema_comparison

        data = fig09_ema_comparison.run(scale="bench", seed=seed).data
        return _panel_outcome(
            data, ("default", "salsa", "estreamer", "ema"), ("pc", "pe")
        )


class StackedSeeds(Workload):
    name = "stacked_seeds"

    def prepare(self, seed: int):
        from repro.experiments.common import paper_config

        cfg = paper_config("bench", seed).with_(kernel_backend="numpy")
        seeds = [seed * STACK_R + i for i in range(STACK_R)]
        return cfg, seeds

    @staticmethod
    def _factories():
        from repro.baselines.default import DefaultScheduler
        from repro.core.ema import EMAScheduler
        from repro.core.rtma import RTMAScheduler

        return (
            ("default", lambda c: DefaultScheduler()),
            ("rtma", lambda c: RTMAScheduler(sig_threshold_dbm=STACK_RTMA_THRESHOLD_DBM)),
            ("ema", lambda c: EMAScheduler(c.n_users, v_param=STACK_EMA_V, tau_s=c.tau_s)),
        )

    def iterate(self, state) -> Outcome:
        from repro.sim.executor import RunExecutor, use_executor
        from repro.sim.runner import multi_seed

        cfg, seeds = state
        summaries = []
        with use_executor(RunExecutor(jobs=1, batch_size=STACK_R)):
            for _, factory in self._factories():
                for res in multi_seed(cfg, factory, seeds):
                    summaries.append(res.to_summary_dict())
        bad = sum(1 for s in summaries if not _finite_numbers(s))
        return Outcome(
            digest(summaries), [digest(s) for s in summaries], bad_runs=bad
        )

    def final_check(self, state, outcome: Outcome) -> int:
        """Re-run every run of the iteration one by one (no stacking).

        Each run's summary digest must equal the stacked run's.  The 48
        serial runs take about four stacked iterations, so they run once,
        after the timed loop, on two pool workers.
        """
        from repro.sim.executor import RunExecutor, use_executor
        from repro.sim.runner import multi_seed

        cfg, seeds = state
        with use_executor(RunExecutor(jobs=2, batch_size=1)):
            serial = [
                digest(res.to_summary_dict())
                for _, factory in self._factories()
                for res in multi_seed(cfg, factory, seeds)
            ]
        return sum(a != b for a, b in zip(serial, outcome.run_digests)) + abs(
            len(serial) - len(outcome.run_digests)
        )


class ChurnTraced(Workload):
    name = "churn_traced"

    def prepare(self, seed: int):
        from repro.faults import CapacityFault, FaultPlan, SignalBlackout

        plan = FaultPlan(
            signal=(SignalBlackout(start_slot=150, n_slots=60),),
            capacity=(CapacityFault(start_slot=380, n_slots=40, factor=0.0),),
        )
        return seed, plan

    def iterate(self, state) -> Outcome:
        from repro.experiments.registry import run_experiment
        from repro.faults import use_fault_plan
        from repro.obs.analyze import check_trace
        from repro.obs.instrument import Instrumentation
        from repro.obs.report import write_report
        from repro.obs.spans import SpanRecorder
        from repro.obs.tracer import JsonlTraceWriter

        seed, plan = state
        out_dir = CHURN_DIR
        trace_path = out_dir / "trace.jsonl"
        tracer = JsonlTraceWriter(trace_path)
        spans = SpanRecorder()
        instr = Instrumentation(tracer=tracer, spans=spans)
        try:
            with use_fault_plan(plan):
                result = run_experiment("churn", scale="bench", seed=seed, instrumentation=instr)
        finally:
            tracer.close()
        instr.metrics.write_json(out_dir / "metrics.json")
        spans.write_artifacts(out_dir)
        checked = check_trace(trace_path)
        write_report(out_dir, title=f"churn (bench, seed {seed})")

        summaries = [result.data[name] for name in result.data]
        bad = sum(1 for _, report in checked if not report.ok)
        if len(checked) != len(summaries):
            bad += abs(len(summaries) - len(checked))
        for summary in summaries:
            if summary["sessions_admitted"] + summary["sessions_rejected"] != summary["sessions_offered"]:
                bad += 1
            elif summary["sessions_completed"] > summary["sessions_admitted"]:
                bad += 1
        violations = sum(len(report.violations) for _, report in checked)
        return Outcome(
            digest({"runs": result.data, "violations": violations}),
            [digest(s) for s in summaries],
            bad_runs=bad,
            counts={
                "obs.trace_events": tracer.n_events,
                "obs.trace_bytes": trace_path.stat().st_size,
                "obs.violations": violations,
            },
        )

    def cleanup(self, state) -> None:
        shutil.rmtree(CHURN_DIR, ignore_errors=True)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (RtmaPanel(), EmaPanel(), StackedSeeds(), ChurnTraced())
}
