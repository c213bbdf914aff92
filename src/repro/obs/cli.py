"""``repro-trace`` — run an experiment with full observability.

Runs either a named experiment from the registry or the built-in
``quickstart`` scenario with a :class:`~repro.obs.instrument.Instrumentation`
bundle attached, then writes these artifacts into the output directory:

* ``trace.jsonl`` — one structured JSON event per line (>= 1 per
  simulated slot, plus calibration and EMA-queue events);
* ``trace.columns.npy`` — each run's per-user ``(n_slots, N)`` grids,
  appended as ``.npy`` arrays; the run's ``run.start`` event names them
  and their byte offset (see :mod:`repro.obs.tracer`);
* ``manifest.json`` — provenance: config hash, seed, package version,
  git revision, wall time, event count;
* ``metrics.json`` — the final counters/gauges/histograms snapshot;
* ``spans.json`` / ``spans.collapsed.txt`` / ``spans.speedscope.json``
  — the hierarchical span tree (run → slot-block → phase → kernel; see
  :mod:`repro.obs.spans`), as raw state, collapsed-stack text, and a
  speedscope profile;

and prints the span tree's calls, total and self time per node.

This module also hosts :func:`add_version_argument`, the shared
``--version`` helper every ``repro-*`` console script installs.  An existing trace
in the output directory is never silently overwritten — pass
``--force``, which also removes a stale column stream.  ``--gzip``
writes ``trace.jsonl.gz`` and ``trace.columns.npy.gz`` instead (the
analysis tools read both), and ``--report`` additionally renders the
self-contained ``report.html`` (see :mod:`repro.obs.report`).

Examples::

    repro-trace quickstart --report             # small contended cell
    repro-trace fig05 --scale bench --seed 1    # a registry experiment
    repro-trace fig02 --out /tmp/fig02-trace --gzip --force
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

from repro.analysis.tables import summary_table
from repro.obs.instrument import Instrumentation, use_instrumentation
from repro.obs.provenance import build_manifest
from repro.obs.tracer import JsonlTraceWriter, columns_path

__all__ = ["main", "QUICKSTART", "add_version_argument"]

log = logging.getLogger("repro.obs.cli")


def add_version_argument(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Install the standard ``--version`` flag on a ``repro-*`` parser.

    Prints ``<prog> <version>`` sourced from package metadata and
    exits — one helper so every console script reports identically.
    """
    from repro import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    return parser

#: The built-in smoke scenario: a small contended cell that finishes in
#: seconds (used by CI to validate the tracing pipeline end to end).
QUICKSTART = "quickstart"


def _quickstart_config():
    from repro.sim.config import SimConfig

    return SimConfig(
        n_users=8,
        n_slots=300,
        capacity_kbps=4 * 1024.0,
        video_size_range_kb=(20_000.0, 40_000.0),
        vbr_segments=30,
        buffer_capacity_s=60.0,
        seed=7,
    )


def _run_quickstart(instr: Instrumentation, seed: int) -> tuple[object, str]:
    from repro.baselines.default import DefaultScheduler
    from repro.core.ema import EMAScheduler
    from repro.core.rtma import RTMAScheduler
    from repro.sim.runner import compare_schedulers

    cfg = _quickstart_config().with_(seed=seed)
    with use_instrumentation(instr):
        results = compare_schedulers(
            cfg,
            {
                "default": DefaultScheduler(),
                "rtma": RTMAScheduler(),
                "ema": EMAScheduler(cfg.n_users, v_param=0.5, tau_s=cfg.tau_s),
            },
        )
    table = summary_table(
        results, title=f"quickstart: {cfg.n_users} users, {cfg.n_slots} slots"
    )
    return cfg, table.render()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Run an experiment with slot-level tracing, metrics, "
        "and phase profiling enabled.",
    )
    parser.add_argument(
        "target",
        help=f"experiment id from the registry (e.g. fig05) or {QUICKSTART!r}",
    )
    parser.add_argument("--scale", default="bench", help="experiment scale")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default=None,
        help="output directory (default: trace_<target>/)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing trace in the output directory",
    )
    parser.add_argument(
        "--gzip",
        action="store_true",
        help="write trace.jsonl.gz (repro-analyze/-report read both)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="also render report.html into the output directory",
    )
    add_version_argument(parser)
    args = parser.parse_args(argv)

    out_dir = Path(args.out if args.out is not None else f"trace_{args.target}")
    out_dir.mkdir(parents=True, exist_ok=True)
    existing = [
        p for p in (out_dir / "trace.jsonl", out_dir / "trace.jsonl.gz") if p.exists()
    ]
    if existing and not args.force:
        log.warning("refusing to overwrite %s (run with --force)", existing[0])
        print(
            f"error: {existing[0]} already exists; pass --force to overwrite",
            file=sys.stderr,
        )
        return 2
    for stale in existing:
        log.warning("overwriting existing trace %s (--force)", stale)
        stale.unlink()
        columns_path(stale).unlink(missing_ok=True)
    trace_name = "trace.jsonl.gz" if args.gzip else "trace.jsonl"
    tracer = JsonlTraceWriter(out_dir / trace_name)
    instr = Instrumentation(tracer=tracer)

    started = time.perf_counter()
    if args.target == QUICKSTART:
        config, rendering = _run_quickstart(instr, args.seed)
        manifest_extra = {"target": QUICKSTART}
    else:
        from repro.experiments.common import paper_config
        from repro.experiments.registry import run_experiment

        result = run_experiment(
            args.target, scale=args.scale, seed=args.seed, instrumentation=instr
        )
        rendering = result.render()
        # Experiments derive every inner run from the scale's base
        # config; its hash pins the whole family.
        config = paper_config(args.scale, args.seed)
        manifest_extra = {"target": args.target, "scale": args.scale}
    wall_time = time.perf_counter() - started
    tracer.close()

    manifest = build_manifest(
        config,
        n_trace_events=tracer.n_events,
        **manifest_extra,
    )
    manifest.wall_time_s = wall_time
    manifest_path = manifest.write_json(out_dir / "manifest.json")
    metrics_path = instr.metrics.write_json(out_dir / "metrics.json")
    span_paths = instr.spans.write_artifacts(out_dir)
    report_path = None
    if args.report:
        from repro.obs.report import write_report

        report_path = write_report(out_dir, title=f"{args.target} (seed {args.seed})")

    print(rendering)
    print()
    print(instr.spans.render_table())
    print()
    print(f"trace:    {tracer.path} ({tracer.n_events} events)")
    print(f"manifest: {manifest_path}")
    print(f"metrics:  {metrics_path}")
    for span_path in span_paths:
        print(f"spans:    {span_path}")
    backend_line = f"backend:  {manifest.kernel_backend}"
    if manifest.numba_version is not None:
        backend_line += f" (numba {manifest.numba_version})"
    if manifest.kernel_compile_times_s:
        total_compile = sum(manifest.kernel_compile_times_s.values())
        backend_line += f", jit compile {total_compile:.2f}s"
    print(backend_line)
    if report_path is not None:
        print(f"report:   {report_path}")
    print(f"wall time: {wall_time:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
