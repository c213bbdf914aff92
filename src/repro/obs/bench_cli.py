"""``repro-bench`` — the benchmark history ledger front end.

Three subcommands over :mod:`repro.obs.perf`:

* ``record`` — append one or more ``BENCH_*.json`` snapshots (as
  written by ``benchmarks/bench_kernels.py`` / ``bench_scaling.py``)
  to ``benchmarks/history.jsonl``, stamped with git SHA, backend,
  numba version, and the machine fingerprint;
* ``trend`` — render the ledger as a self-contained HTML dashboard
  (per-metric sparklines + change-point verdicts);
* ``check`` — noise-aware regression gate: the latest record per
  (source, backend, machine) group is judged against the bootstrap CI
  of its trailing window.  Exits 3 on a regression verdict; a gate
  with nothing to compare WARNs (and ticks ``perf.gate_skipped``)
  instead of passing silently.

Examples::

    repro-bench record benchmarks/BENCH_kernels.json
    repro-bench trend --out benchmarks/trend.html
    repro-bench check --window 8 --min-effect 0.05
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from repro.obs.perf import (
    DEFAULT_BOOTSTRAP,
    DEFAULT_LEDGER,
    DEFAULT_MIN_EFFECT,
    DEFAULT_WINDOW,
    check_against_history,
    load_ledger,
    machine_fingerprint,
    record_snapshot,
    trend_html,
    warn_gate_skipped,
)
from repro.obs.provenance import short_revision

__all__ = ["main"]

log = logging.getLogger("repro.obs.bench_cli")


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError

    status = 0
    for snapshot in args.snapshots:
        try:
            record = record_snapshot(
                snapshot,
                ledger_path=args.ledger,
                backend=args.backend,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        rev = short_revision(record.git_rev)
        print(
            f"recorded {record.source} ({len(record.entries)} metric(s), "
            f"backend {record.backend}, machine {record.machine_id}, "
            f"rev {rev}) -> {args.ledger}"
        )
    return status


def _cmd_trend(args: argparse.Namespace) -> int:
    records = load_ledger(args.ledger)
    if not records:
        print(f"error: ledger {args.ledger} is empty", file=sys.stderr)
        return 2
    html = trend_html(
        records,
        backend=args.backend,
        window=args.window,
        min_effect=args.min_effect,
        title=f"Benchmark trend ({len(records)} run(s))",
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html, encoding="utf-8")
    print(f"trend dashboard: {out} ({len(records)} ledger record(s))")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    records = load_ledger(args.ledger)
    if args.backend is not None:
        records = [r for r in records if r.backend == args.backend]
    if args.this_machine:
        local = machine_fingerprint()["id"]
        records = [r for r in records if r.machine_id == local]
    if not records:
        warn_gate_skipped(
            f"ledger {args.ledger} has no records"
            + (f" for backend {args.backend!r}" if args.backend else "")
            + (" on this machine" if args.this_machine else "")
        )
        return 0
    groups: dict[tuple[str, str, str], list] = {}
    for record in records:
        groups.setdefault(
            (record.source, record.backend, record.machine_id), []
        ).append(record)
    failed = False
    for (source, backend, machine), group in sorted(groups.items()):
        latest = group[-1]
        check = check_against_history(
            group[:-1],
            latest,
            window=args.window,
            min_effect=args.min_effect,
            n_boot=DEFAULT_BOOTSTRAP,
        )
        header = f"[{source} · {backend} · {machine}]"
        if check.compared == 0:
            warn_gate_skipped(
                f"{header} no comparable history "
                f"({len(group) - 1} prior record(s), need >= 3 per metric)"
            )
            continue
        print(header)
        print(check.render())
        if not check.ok:
            failed = True
    if failed:
        print("repro-bench check: REGRESSED", file=sys.stderr)
        return 3
    print("repro-bench check: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.obs.cli import add_version_argument

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Record, trend, and regression-check benchmark history.",
    )
    add_version_argument(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger",
            default=str(DEFAULT_LEDGER),
            help=f"history ledger path (default: {DEFAULT_LEDGER})",
        )
        p.add_argument(
            "--backend",
            default=None,
            help="restrict to one kernel backend (default: all / autodetect)",
        )

    p_record = sub.add_parser(
        "record", help="append BENCH_*.json snapshots to the ledger"
    )
    _common(p_record)
    p_record.add_argument(
        "snapshots",
        nargs="+",
        help="bench snapshot files (benchmarks/BENCH_kernels.json, ...)",
    )
    p_record.set_defaults(func=_cmd_record)

    p_trend = sub.add_parser("trend", help="render the HTML trend dashboard")
    _common(p_trend)
    p_trend.add_argument(
        "--out",
        default="benchmarks/trend.html",
        help="output HTML path (default: benchmarks/trend.html)",
    )
    p_trend.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p_trend.add_argument("--min-effect", type=float, default=DEFAULT_MIN_EFFECT)
    p_trend.set_defaults(func=_cmd_trend)

    p_check = sub.add_parser(
        "check", help="change-point check the latest record per group"
    )
    _common(p_check)
    p_check.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help=f"trailing-window size (default: {DEFAULT_WINDOW})",
    )
    p_check.add_argument(
        "--min-effect",
        type=float,
        default=DEFAULT_MIN_EFFECT,
        help="minimum relative delta a verdict needs "
        f"(default: {DEFAULT_MIN_EFFECT})",
    )
    p_check.add_argument(
        "--this-machine",
        action="store_true",
        help="only consider ledger records from this machine's fingerprint",
    )
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
