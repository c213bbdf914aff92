"""Experiment registry and the ``repro-experiments`` CLI.

``repro-experiments list`` shows the available experiments;
``repro-experiments run fig02 [--scale bench|full] [--seed N]`` runs
one (or ``all``) and prints its tables.  ``--markdown`` emits the
EXPERIMENTS.md-ready rendering.  ``--jobs N`` installs a process-pool
:class:`~repro.sim.executor.RunExecutor` for the duration of the run,
parallelising every sweep / comparison / calibration grid underneath
(results, metrics and traces are bit-identical to ``--jobs 1``).
Consecutive compatible runs are stacked into one vectorized slot loop
(:mod:`repro.sim.batch`), split into one group per worker — also
bit-identical.  ``--batch R`` caps a stack at R runs; ``--batch 1``
runs every run in its own loop.

Live telemetry flags (see :mod:`repro.obs.live` and the
"Watching a run live" section of EXPERIMENTS.md):

* ``--export out/prom.txt`` — push Prometheus-text + JSON snapshots
  while the run executes (``repro-watch out/prom.json`` tails them);
* ``--serve 9464`` — stdlib HTTP pull endpoint (``/metrics``,
  ``/metrics.json``) for the run's duration;
* ``--watch`` — render the terminal dashboard to stderr every second;
* ``--slo "p95(rebuffer_s) < 0.5"`` (repeatable) + ``--slo-action
  warn|abort`` — online SLO watchdog; ``abort`` exits with code 3 on
  the first violation.

Any live flag enables executor heartbeats when ``--jobs > 1``.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from collections.abc import Callable
from contextlib import nullcontext

from repro.errors import ConfigurationError
from repro.experiments import (
    churn_sessions,
    fig02_fairness_rtma,
    fig03_rebuffering_cdf,
    fig04_rtma_efficacy,
    fig05_rtma_comparison,
    fig06_fairness_ema,
    fig07_power_cdf,
    fig08_ema_efficacy,
    fig09_ema_comparison,
    fig10_tradeoff_panel,
    theorem1_bounds,
)
from repro.experiments.common import SCALES, ExperimentResult
from repro.obs.instrument import Instrumentation, use_instrumentation
from repro.sim.executor import RunExecutor, use_executor

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig02": fig02_fairness_rtma.run,
    "fig03": fig03_rebuffering_cdf.run,
    "fig04": fig04_rtma_efficacy.run,
    "fig05": fig05_rtma_comparison.run,
    "fig06": fig06_fairness_ema.run,
    "fig07": fig07_power_cdf.run,
    "fig08": fig08_ema_efficacy.run,
    "fig09": fig09_ema_comparison.run,
    "fig10": fig10_tradeoff_panel.run,
    "theorem1": theorem1_bounds.run,
    "churn": churn_sessions.run,
}


def run_experiment(
    exp_id: str,
    scale: str = "bench",
    seed: int = 0,
    instrumentation: Instrumentation | None = None,
) -> ExperimentResult:
    """Run one experiment by id.

    With ``instrumentation``, the bundle is made ambient for the whole
    experiment (see :func:`repro.obs.instrument.use_instrumentation`):
    every inner simulation — including the dozens of hidden calibration
    runs — traces, counts, and profiles into it.
    """
    try:
        runner = EXPERIMENTS[exp_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    if instrumentation is None:
        return runner(scale=scale, seed=seed)
    with use_instrumentation(instrumentation):
        if instrumentation.tracer.enabled:
            instrumentation.tracer.emit("experiment.start", exp_id=exp_id, scale=scale, seed=seed)
        result = runner(scale=scale, seed=seed)
        if instrumentation.tracer.enabled:
            instrumentation.tracer.emit("experiment.end", exp_id=exp_id)
        return result


def main(argv: list[str] | None = None) -> int:
    from repro.obs.cli import add_version_argument

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the paper's evaluation figures.",
    )
    add_version_argument(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("exp_id", help="experiment id (e.g. fig02) or 'all'")
    run_p.add_argument("--scale", choices=SCALES, default="bench")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--markdown", action="store_true", help="emit markdown tables"
    )
    run_p.add_argument(
        "--report-dir",
        default=None,
        help="trace each experiment and write trace.jsonl + metrics.json + "
        "report.html under <report-dir>/<exp_id>/",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for batched runs (sweeps, comparisons, "
        "calibration grids); results are bit-identical to --jobs 1",
    )
    run_p.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="R",
        help="cap on runs stacked per slot loop (run-stacked batching). "
        "Consecutive compatible runs of a sweep/multi-seed/calibration "
        "grid execute as one vectorized batch, split into one group per "
        "--jobs worker; no cap by default, --batch 1 runs every run "
        "alone. Results are bit-identical at every setting",
    )
    run_p.add_argument(
        "--watch",
        action="store_true",
        help="render the live dashboard to stderr every second",
    )
    run_p.add_argument(
        "--export",
        default=None,
        metavar="PROM_PATH",
        help="push Prometheus-text (+ sibling .json) snapshots here "
        "while the run executes",
    )
    run_p.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics and /metrics.json on 127.0.0.1:PORT for "
        "the run's duration (0 picks a free port)",
    )
    run_p.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="RULE",
        help='online SLO rule, e.g. "p95(rebuffer_s) < 0.5" (repeatable)',
    )
    run_p.add_argument(
        "--slo-action",
        choices=("warn", "abort"),
        default="warn",
        help="what a firing SLO rule does (abort exits with code 3)",
    )
    run_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject a fault plan into every run: a FaultPlan.spec() "
        'JSON string (e.g. \'{"signal": [{"start_slot": 100, '
        '"n_slots": 50}]}\') or @file to read one from disk',
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0

    live_on = bool(
        args.watch or args.export or args.serve is not None or args.slo
    )
    live = server = None
    stop_watch = threading.Event()
    if live_on:
        from repro.errors import SloViolation
        from repro.obs.live import (
            LiveTelemetry,
            MetricsServer,
            SnapshotExporter,
            logging_setup,
        )
        from repro.obs.live.watch import render_dashboard

        logging_setup()
        exporter = SnapshotExporter(args.export) if args.export else None
        live = LiveTelemetry(
            rules=tuple(args.slo), action=args.slo_action, exporter=exporter
        )
        if args.serve is not None:
            server = MetricsServer(live.snapshot, port=args.serve).start()
            live.server = server
            print(f"[metrics endpoint: {server.url}]", file=sys.stderr)
        if args.watch:

            def _watch_loop() -> None:
                while not stop_watch.wait(1.0):
                    stamp = time.strftime("%H:%M:%S")
                    frame = render_dashboard(live.snapshot())
                    print(
                        f"── live {stamp} " + "─" * 24 + f"\n{frame}",
                        file=sys.stderr,
                        flush=True,
                    )

            threading.Thread(
                target=_watch_loop, name="repro-live-watch", daemon=True
            ).start()

    fault_ctx = nullcontext()
    if args.faults is not None:
        import json

        from repro.faults import FaultPlan, use_fault_plan

        raw = args.faults
        if raw.startswith("@"):
            with open(raw[1:]) as f:
                raw = f.read()
        fault_ctx = use_fault_plan(FaultPlan.from_spec(json.loads(raw)))

    heartbeat_s = 1.0 if (live_on and args.jobs > 1) else None
    ids = list(EXPERIMENTS) if args.exp_id == "all" else [args.exp_id]
    exit_code = 0
    try:
        with fault_ctx, use_executor(
            RunExecutor(
                jobs=args.jobs,
                heartbeat_s=heartbeat_s,
                batch_size=args.batch,
            )
        ):
            for exp_id in ids:
                start = time.perf_counter()
                if args.report_dir is not None:
                    result = _run_with_report(exp_id, args, live=live)
                else:
                    instr = Instrumentation(live=live) if live is not None else None
                    result = run_experiment(
                        exp_id,
                        scale=args.scale,
                        seed=args.seed,
                        instrumentation=instr,
                    )
                elapsed = time.perf_counter() - start
                print(result.to_markdown() if args.markdown else result.render())
                print(f"[{exp_id} done in {elapsed:.1f}s]\n", file=sys.stderr)
    except Exception as exc:
        if live_on and isinstance(exc, SloViolation):
            print(f"[aborted: {exc}]", file=sys.stderr)
            exit_code = 3
        else:
            raise
    finally:
        stop_watch.set()
        if server is not None:
            server.stop()
        if live is not None:
            live.close()
            if args.export:
                print(f"[snapshots: {args.export}]", file=sys.stderr)
    return exit_code


def _run_with_report(exp_id: str, args, live=None) -> ExperimentResult:
    """Run one experiment fully traced and leave a reviewable run dir."""
    from pathlib import Path

    from repro.obs.report import write_report
    from repro.obs.tracer import JsonlTraceWriter

    out_dir = Path(args.report_dir) / exp_id
    tracer = JsonlTraceWriter(out_dir / "trace.jsonl")
    instr = Instrumentation(tracer=tracer, live=live)
    try:
        result = run_experiment(
            exp_id, scale=args.scale, seed=args.seed, instrumentation=instr
        )
    finally:
        tracer.close()
    instr.metrics.write_json(out_dir / "metrics.json")
    report = write_report(out_dir, title=f"{exp_id} ({args.scale}, seed {args.seed})")
    print(f"[{exp_id} report: {report}]", file=sys.stderr)
    return result


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
