"""Benchmark history ledger with noise-aware regression detection.

``BENCH_kernels.json`` / ``BENCH_scaling.json`` are one-shot snapshots
— each bench session overwrites the last, so the performance
*trajectory* across commits was invisible and the ``--check`` gates
compared against hand-pinned baseline files.  This module gives the
benches longitudinal memory:

* :func:`record_snapshot` appends one :class:`BenchRecord` per bench
  run to ``benchmarks/history.jsonl`` — every per-kernel p50/p95 and
  slots/sec gauge, stamped with the git revision, kernel backend,
  numba version, and a machine fingerprint so entries are only ever
  compared like-for-like;
* :func:`check_against_history` replaces fixed p50 floors with a
  **bootstrap change-point test**: the candidate p50 is judged against
  a confidence interval of the trailing window's median, resampled
  with a seeded RNG, plus a minimum-effect floor so microsecond jitter
  can never fire the gate;
* :func:`trend_html` renders the ledger as a self-contained dashboard
  (per-kernel sparklines, latest verdicts) in the same zero-external-
  assets style as ``repro-report``.

A gate that cannot run — no ledger, or no comparable entries for this
backend + machine — must not pass *silently*: :func:`warn_gate_skipped`
logs one WARN line and ticks a ``perf.gate_skipped`` counter on the
ambient instrumentation bundle (when one is active) so the skip is
visible in metrics exports.  The ``repro-bench`` CLI
(:mod:`repro.obs.bench_cli`) fronts all of this.
"""

from __future__ import annotations

import hashlib
import html
import json
import logging
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.provenance import short_revision, tree_revision

__all__ = [
    "machine_fingerprint",
    "BenchRecord",
    "bench_entries",
    "record_snapshot",
    "load_ledger",
    "ChangePoint",
    "bootstrap_median_ci",
    "classify_change",
    "check_against_history",
    "HistoryCheck",
    "trend_html",
    "warn_gate_skipped",
    "DEFAULT_LEDGER",
]

log = logging.getLogger("repro.obs.perf")

#: Repo-relative default ledger location (resolved against cwd by the
#: CLI; tests and CI pass explicit paths).
DEFAULT_LEDGER = Path("benchmarks") / "history.jsonl"

#: Trailing-window and bootstrap defaults for the change-point test.
DEFAULT_WINDOW = 8
DEFAULT_BOOTSTRAP = 2000
#: Minimum relative effect a verdict needs — deltas inside ±5% of the
#: baseline median never regress/improve regardless of CI tightness.
DEFAULT_MIN_EFFECT = 0.05

#: Backend tokens recognised inside "[...]" bench-name suffixes when a
#: snapshot carries no explicit ``*.backend`` info entry.
KERNEL_BACKENDS = frozenset({"numpy", "numba", "python"})


def machine_fingerprint() -> dict[str, Any]:
    """A stable description of the benching host.

    The ``id`` is a short hash over the fields that move timings
    (machine/processor/python/numpy) — ledger comparisons only ever
    pool entries with equal ids, so laptop numbers never gate a CI
    runner or vice versa.
    """
    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode("utf-8")
    ).hexdigest()
    info["id"] = digest[:12]
    return info


def bench_entries(snapshot: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    """Flatten a ``BENCH_*.json`` metrics snapshot to ledger entries.

    Timing histograms keep their p50/p95/mean/count; numeric gauges
    (``scaling.*.slots_per_sec``, phase totals) become single-value
    entries under ``{"value": ...}``.
    """
    out: dict[str, dict[str, float]] = {}
    for name, summary in (snapshot.get("histograms") or {}).items():
        if not isinstance(summary, Mapping) or not summary.get("count"):
            continue
        out[name] = {
            key: float(summary[key])
            for key in ("count", "mean", "p50", "p95", "min", "max")
            if key in summary
        }
    for name, value in (snapshot.get("gauges") or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = {"value": float(value)}
    return out


@dataclass
class BenchRecord:
    """One bench session appended to the history ledger."""

    recorded_at: float
    source: str
    git_rev: str | None
    backend: str
    numba_version: str | None
    machine: dict[str, Any]
    entries: dict[str, dict[str, float]]
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def machine_id(self) -> str:
        return str(self.machine.get("id", "unknown"))

    def as_dict(self) -> dict[str, Any]:
        return {
            "recorded_at": self.recorded_at,
            "source": self.source,
            "git_rev": self.git_rev,
            "backend": self.backend,
            "numba_version": self.numba_version,
            "machine": self.machine,
            "entries": self.entries,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchRecord":
        return cls(
            recorded_at=float(payload.get("recorded_at", 0.0)),
            source=str(payload.get("source", "unknown")),
            git_rev=payload.get("git_rev"),
            backend=str(payload.get("backend", "unknown")),
            numba_version=payload.get("numba_version"),
            machine=dict(payload.get("machine") or {}),
            entries={
                str(k): dict(v) for k, v in (payload.get("entries") or {}).items()
            },
            extra=dict(payload.get("extra") or {}),
        )


def _snapshot_backend(snapshot: Mapping[str, Any]) -> str | None:
    """The backend a snapshot was produced under, when it recorded one."""
    for section in ("info", "gauges"):
        for key, value in (snapshot.get(section) or {}).items():
            if key.endswith(".backend") or key == "scaling.backend":
                if isinstance(value, str):
                    return value
    # bench_kernels embeds the kernel_backend fixture param in every
    # histogram name — "bench.test_x[numpy].seconds" or
    # "bench.test_y[numpy-ema].seconds" — so scan bracket groups for a
    # known backend token.
    for name in (snapshot.get("histograms") or {}):
        start = name.find("[")
        while start != -1:
            end = name.find("]", start)
            if end == -1:
                break
            for token in name[start + 1 : end].split("-"):
                if token in KERNEL_BACKENDS:
                    return token
            start = name.find("[", end)
    return None


def record_snapshot(
    snapshot_path: str | Path,
    ledger_path: str | Path = DEFAULT_LEDGER,
    source: str | None = None,
    backend: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> BenchRecord:
    """Append one bench snapshot to the JSONL ledger; returns the record.

    The record's ``git_rev`` is the revision of the checkout this package
    lives in, marked ``+dirty:<hash>`` when uncommitted changes are
    measured (see :func:`repro.obs.provenance.tree_revision`).
    """
    snapshot_path = Path(snapshot_path)
    if not snapshot_path.exists():
        raise ConfigurationError(f"no bench snapshot at {snapshot_path}")
    snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
    entries = bench_entries(snapshot)
    if not entries:
        raise ConfigurationError(f"{snapshot_path} holds no bench timings")
    if source is None:
        stem = snapshot_path.stem.lower()
        source = "scaling" if "scaling" in stem else (
            "kernels" if "kernel" in stem else stem
        )
    if backend is None:
        backend = _snapshot_backend(snapshot) or "unknown"
    from repro.kernels import numba_version

    record = BenchRecord(
        recorded_at=time.time(),
        source=source,
        git_rev=tree_revision(),
        backend=backend,
        numba_version=numba_version(),
        machine=machine_fingerprint(),
        entries=entries,
        extra=dict(extra or {}),
    )
    ledger_path = Path(ledger_path)
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    with ledger_path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
    return record


def load_ledger(ledger_path: str | Path) -> list[BenchRecord]:
    """All ledger records, oldest first (malformed lines are skipped)."""
    ledger_path = Path(ledger_path)
    if not ledger_path.exists():
        return []
    records: list[BenchRecord] = []
    for line in ledger_path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(BenchRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            log.warning("skipping malformed ledger line: %s", exc)
    records.sort(key=lambda r: r.recorded_at)
    return records


# -- change-point detection --------------------------------------------------


@dataclass(frozen=True)
class ChangePoint:
    """Verdict for one metric against its trailing window."""

    name: str
    #: ``regressed`` | ``improved`` | ``ok`` | ``insufficient``
    verdict: str
    candidate: float
    baseline_median: float | None
    ci_lo: float | None
    ci_hi: float | None
    window: int
    #: Relative delta of candidate vs the window median (NaN when
    #: there is no usable window).
    rel_delta: float

    @property
    def is_failure(self) -> bool:
        return self.verdict == "regressed"

    def __str__(self) -> str:
        if self.verdict == "insufficient":
            return (
                f"{self.verdict:>12}  {self.name}  "
                f"({self.window} prior run(s), need >= 3)"
            )
        sign = "+" if self.rel_delta >= 0 else ""
        return (
            f"{self.verdict:>12}  {self.name}  "
            f"{self.baseline_median:.6g} -> {self.candidate:.6g} "
            f"({sign}{self.rel_delta * 100.0:.1f}%, "
            f"CI [{self.ci_lo:.6g}, {self.ci_hi:.6g}], n={self.window})"
        )


def bootstrap_median_ci(
    values: Iterable[float],
    n_boot: int = DEFAULT_BOOTSTRAP,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float, float]:
    """``(median, ci_lo, ci_hi)`` of the sample median via the bootstrap.

    Deterministic for a given ``seed`` — the gate's verdict must be a
    function of the ledger, not of the RNG draw.
    """
    sample = np.asarray(list(values), dtype=float)
    if sample.size == 0:
        raise ConfigurationError("bootstrap needs at least one value")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must lie in (0, 1)")
    median = float(np.median(sample))
    if sample.size == 1:
        return median, median, median
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, sample.size, size=(int(n_boot), sample.size))
    medians = np.median(sample[draws], axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo = float(np.quantile(medians, alpha))
    hi = float(np.quantile(medians, 1.0 - alpha))
    return median, lo, hi


def _metric_seed(name: str) -> int:
    """Stable per-metric bootstrap seed (metric name hash)."""
    return int.from_bytes(
        hashlib.sha256(name.encode("utf-8")).digest()[:4], "little"
    )


def classify_change(
    name: str,
    window_values: list[float],
    candidate: float,
    min_effect: float = DEFAULT_MIN_EFFECT,
    n_boot: int = DEFAULT_BOOTSTRAP,
    lower_is_better: bool = True,
) -> ChangePoint:
    """Noise-aware verdict of ``candidate`` against its trailing window.

    A candidate **regresses** only when it falls outside the bootstrap
    CI of the window median *and* beyond the minimum relative effect —
    both guards must trip, so neither a noisy window (wide CI) nor a
    tight-but-tiny shift (sub-``min_effect``) can fail the gate.
    Windows of fewer than 3 runs return ``insufficient``.
    """
    window = [float(v) for v in window_values]
    if len(window) < 3:
        return ChangePoint(
            name, "insufficient", float(candidate), None, None, None,
            len(window), float("nan"),
        )
    median, ci_lo, ci_hi = bootstrap_median_ci(
        window, n_boot=n_boot, seed=_metric_seed(name)
    )
    scale = abs(median) if median != 0.0 else 1.0
    rel_delta = (float(candidate) - median) / scale
    worse = candidate > ci_hi if lower_is_better else candidate < ci_lo
    better = candidate < ci_lo if lower_is_better else candidate > ci_hi
    effect = abs(rel_delta) > float(min_effect)
    if worse and effect:
        verdict = "regressed"
    elif better and effect:
        verdict = "improved"
    else:
        verdict = "ok"
    return ChangePoint(
        name, verdict, float(candidate), median, ci_lo, ci_hi,
        len(window), rel_delta,
    )


def _entry_value(entry: Mapping[str, float]) -> float | None:
    """The comparable scalar of a ledger entry: p50, else the gauge value."""
    if "p50" in entry:
        return float(entry["p50"])
    if "value" in entry:
        return float(entry["value"])
    return None


def _direction(name: str) -> bool:
    """True when lower is better (timings); slots/sec gauges invert."""
    return "slots_per_sec" not in name and "speedup" not in name


@dataclass
class HistoryCheck:
    """All change-point verdicts of one candidate vs the ledger."""

    points: list[ChangePoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Metrics with no usable trailing window (gate skipped for them).
    skipped: int = 0

    @property
    def failures(self) -> list[ChangePoint]:
        return [p for p in self.points if p.is_failure]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def compared(self) -> int:
        return sum(1 for p in self.points if p.verdict != "insufficient")

    def render(self) -> str:
        lines = [str(p) for p in self.points if p.verdict != "ok"]
        lines.extend(f"        note  {n}" for n in self.notes)
        n_ok = sum(1 for p in self.points if p.verdict == "ok")
        n_imp = sum(1 for p in self.points if p.verdict == "improved")
        lines.append(
            f"checked {self.compared} metric(s) against the ledger: "
            f"{n_ok} ok, {n_imp} improved, {len(self.failures)} regressed, "
            f"{self.skipped} without history"
        )
        return "\n".join(lines)


def check_against_history(
    ledger: list[BenchRecord] | str | Path,
    candidate: BenchRecord,
    window: int = DEFAULT_WINDOW,
    min_effect: float = DEFAULT_MIN_EFFECT,
    n_boot: int = DEFAULT_BOOTSTRAP,
    match_machine: bool = True,
) -> HistoryCheck:
    """Change-point-check every candidate entry against the ledger.

    Only prior records with the same ``source``, ``backend`` and
    (by default) machine fingerprint feed a metric's trailing window —
    cross-environment timings are never comparable.
    """
    if not isinstance(ledger, list):
        ledger = load_ledger(ledger)
    prior = [
        r
        for r in ledger
        if r.source == candidate.source
        and r.backend == candidate.backend
        and (not match_machine or r.machine_id == candidate.machine_id)
        and r is not candidate
        # A freshly-appended candidate re-read from disk is a distinct
        # object — exclude it (and anything newer) by timestamp too.
        and r.recorded_at < candidate.recorded_at
    ]
    check = HistoryCheck()
    if not prior:
        check.notes.append(
            f"no ledger history for source={candidate.source!r} "
            f"backend={candidate.backend!r} machine={candidate.machine_id}"
        )
    for name in sorted(candidate.entries):
        cand_value = _entry_value(candidate.entries[name])
        if cand_value is None:
            continue
        window_values = [
            value
            for r in prior[-window:]
            if name in r.entries
            and (value := _entry_value(r.entries[name])) is not None
        ]
        point = classify_change(
            name,
            window_values,
            cand_value,
            min_effect=min_effect,
            n_boot=n_boot,
            lower_is_better=_direction(name),
        )
        check.points.append(point)
        if point.verdict == "insufficient":
            check.skipped += 1
    return check


def warn_gate_skipped(reason: str, metrics=None) -> None:
    """One visible WARN (plus a ``perf.gate_skipped`` counter) for a
    perf gate that passed only because it had nothing to compare.

    ``metrics`` is any :class:`~repro.obs.metrics.MetricsRegistry`;
    ``None`` falls back to the ambient instrumentation bundle's.
    """
    log.warning("perf gate skipped: %s", reason)
    print(f"WARN: perf gate skipped: {reason}")
    if metrics is None:
        from repro.obs.instrument import current_instrumentation

        instr = current_instrumentation()
        metrics = instr.metrics if instr is not None else None
    if metrics is not None:
        metrics.counter("perf.gate_skipped").inc()


# -- trend dashboard ---------------------------------------------------------

_TREND_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 70em; color: #1a1a2e; }
h1 { font-size: 1.4em; border-bottom: 2px solid #16324f; padding-bottom: .2em; }
table { border-collapse: collapse; font-size: .85em; }
th, td { border: 1px solid #c8d0d8; padding: .25em .55em; text-align: right; }
th { background: #eef2f6; }
td.label { text-align: left; font-family: ui-monospace, monospace; }
.ok { color: #176e2c; } .bad { color: #a61b1b; font-weight: 600; }
.improved { color: #1b6e4f; } .skip { color: #6a737d; }
.meta { color: #555; font-size: .85em; }
"""


def _trend_sparkline(values: list[float], width: int = 160, height: int = 34) -> str:
    from repro.obs.report import svg_sparkline

    return svg_sparkline(values, width=width, height=height)


def trend_html(
    ledger: list[BenchRecord] | str | Path,
    backend: str | None = None,
    machine_id: str | None = None,
    window: int = DEFAULT_WINDOW,
    min_effect: float = DEFAULT_MIN_EFFECT,
    title: str = "Benchmark trend",
) -> str:
    """Self-contained HTML dashboard over the ledger.

    One row per metric: sparkline of its whole recorded history,
    latest value, delta vs the trailing window, and the change-point
    verdict — grouped by (source, backend).
    """
    if not isinstance(ledger, list):
        ledger = load_ledger(ledger)
    if backend is not None:
        ledger = [r for r in ledger if r.backend == backend]
    if machine_id is not None:
        ledger = [r for r in ledger if r.machine_id == machine_id]
    groups: dict[tuple[str, str, str], list[BenchRecord]] = {}
    for record in ledger:
        groups.setdefault(
            (record.source, record.backend, record.machine_id), []
        ).append(record)

    sections: list[str] = []
    for (source, rec_backend, rec_machine), records in sorted(groups.items()):
        latest = records[-1]
        check = check_against_history(
            records[:-1], latest, window=window, min_effect=min_effect
        ) if len(records) > 1 else HistoryCheck()
        verdicts = {p.name: p for p in check.points}
        names = sorted({n for r in records for n in r.entries})
        rows: list[str] = []
        for name in names:
            series = [
                value
                for r in records
                if name in r.entries
                and (value := _entry_value(r.entries[name])) is not None
            ]
            if not series:
                continue
            point = verdicts.get(name)
            if point is None or point.verdict == "insufficient":
                verdict_cell = "<td class='skip'>no history</td>"
                delta_cell = "<td class='skip'>—</td>"
            else:
                css = {
                    "regressed": "bad", "improved": "improved", "ok": "ok",
                }[point.verdict]
                verdict_cell = f"<td class='{css}'>{point.verdict}</td>"
                sign = "+" if point.rel_delta >= 0 else ""
                delta_cell = (
                    f"<td class='{css}'>{sign}{point.rel_delta * 100.0:.1f}%</td>"
                )
            rows.append(
                f"<tr><td class='label'>{html.escape(name)}</td>"
                f"<td>{_trend_sparkline(series)}</td>"
                f"<td>{series[-1]:.6g}</td>{delta_cell}{verdict_cell}"
                f"<td>{len(series)}</td></tr>"
            )
        stamp = time.strftime(
            "%Y-%m-%d %H:%M", time.localtime(latest.recorded_at)
        )
        rev = short_revision(latest.git_rev)
        sections.append(
            f"<h2>{html.escape(source)} · backend <code>"
            f"{html.escape(rec_backend)}</code> · machine <code>"
            f"{html.escape(rec_machine)}</code></h2>"
            f"<p class='meta'>{len(records)} run(s), latest {stamp} @ "
            f"<code>{html.escape(rev)}</code></p>"
            "<table><tr><th>metric</th><th>history</th><th>latest</th>"
            "<th>Δ vs window</th><th>verdict</th><th>runs</th></tr>"
            + "".join(rows)
            + "</table>"
        )
    body = "".join(sections) if sections else "<p>ledger is empty</p>"
    page_title = html.escape(title)
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{page_title}</title><style>{_TREND_CSS}</style></head>"
        f"<body><h1>{page_title}</h1>{body}</body></html>\n"
    )
