"""Trace analysis: timeline reconstruction and invariant checking.

A traced run writes one ``slot`` event per simulated slot (with
per-user vectors), plus ``run.start`` / ``run.end`` boundaries and
``ema.queues`` virtual-queue snapshots.  This module turns that
stream back into structured :class:`RunTimeline` objects — per-user
buffer/energy/allocation grids, rebuffer events, RRC state residency,
the DCH/FACH/tail energy split — and runs a pluggable **invariant
checker** over each run:

* ``buffer.non_negative`` — buffer occupancy and rebuffering never go
  negative (Eq. 7/8);
* ``allocation.capacity`` — allocations respect the per-link cap
  (Eq. 1), the BS unit budget (Eq. 2), and deliveries never exceed
  allocations;
* ``rtma.energy_budget`` — RTMA never schedules a user below its
  Eq. (12) signal threshold, and (when a numeric ``Phi`` was
  configured) per-user-slot energy stays within the Eq. (10)/(12)
  envelope ``2 * Phi``;
* ``ema.virtual_queues`` — EMA's traced ``PC_i(n)`` snapshots are
  consistent with the Eq. (16) update recomputed from deliveries, the
  queues never grow faster than real time, and the per-slot Lyapunov
  drift respects the Eq. (18) bound ``B`` behind Theorem 1.

Every violation carries the slot/user coordinates plus the expected
and actual values, so a corrupted or regressed run is localisable
without rerunning it.  Traces are read *streaming* (JSON-lines, plain
or gzip) — memory scales with one run's grids, not the file.  A run
whose ``run.start`` names its per-user columns gets its grids from the
``.npy`` stream beside the trace (:class:`repro.obs.tracer.ColumnReader`),
one array per column; a trace whose ``slot`` events carry their
``users`` payload inline reads as before.

``repro-analyze <run_dir>`` is the CLI: prints each run's summary and
invariant results, exit status 1 when any invariant is violated.
``repro-analyze --export-jsonl OUT <run_dir>`` instead writes the trace
with every ``slot`` event's ``users`` payload inline, as one JSON-lines
file (:func:`export_jsonl`).
"""

from __future__ import annotations

import argparse
import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.tracer import ColumnReader, JsonlTraceWriter, inline_columns
from repro.radio.rrc import RRCParams, fleet_state_grid_from_tx, tail_split_from_tx

__all__ = [
    "open_trace",
    "iter_trace_events",
    "RunTimeline",
    "RebufferEvent",
    "timelines_from_events",
    "timelines_from_trace",
    "timeline_from_result",
    "export_jsonl",
    "Violation",
    "InvariantChecker",
    "NonNegativeBufferChecker",
    "CapacityChecker",
    "RTMAEnergyBudgetChecker",
    "EMAQueueChecker",
    "SessionConservationChecker",
    "FaultInjectionChecker",
    "DEFAULT_CHECKERS",
    "InvariantReport",
    "check_invariants",
    "check_trace",
    "resolve_trace_path",
    "main",
]

_NONFINITE = {"inf": float("inf"), "-inf": float("-inf"), "nan": float("nan")}


def _definitize(value: Any) -> Any:
    """Undo the writer's non-finite sanitisation (``'inf'`` -> ``inf``)."""
    if isinstance(value, str):
        return _NONFINITE.get(value, value)
    return value


def open_trace(path: str | Path):
    """Open a trace for reading, transparently handling gzip.

    Compression is detected by the ``.gz`` suffix or the gzip magic
    bytes, so renamed files still open correctly.
    """
    path = Path(path)
    if path.suffix != ".gz":
        with path.open("rb") as f:
            if f.read(2) != b"\x1f\x8b":
                return path.open("r", encoding="utf-8")
    return gzip.open(path, "rt", encoding="utf-8")


def iter_trace_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Stream the trace's events as dicts, one per line."""
    with open_trace(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: invalid trace line ({exc})"
                ) from None


def resolve_trace_path(target: str | Path) -> Path:
    """``target`` may be a trace file or a run directory containing one."""
    target = Path(target)
    if target.is_dir():
        for name in ("trace.jsonl", "trace.jsonl.gz"):
            candidate = target / name
            if candidate.exists():
                return candidate
        raise ConfigurationError(f"no trace.jsonl[.gz] in {target}")
    if not target.exists():
        raise ConfigurationError(f"no such trace: {target}")
    return target


@dataclass(frozen=True)
class RebufferEvent:
    """One contiguous stall: ``total_s`` seconds over ``[start, end]``."""

    user: int
    start_slot: int
    end_slot: int
    total_s: float


@dataclass
class RunTimeline:
    """One simulation run reconstructed from its trace events.

    ``grids`` holds the per-``(slot, user)`` arrays keyed like the
    ``slot`` event's ``users`` payload (``phi``, ``delivered_kb``,
    ``buffer_s``, ``rebuffering_s``, ``energy_trans_mj``,
    ``energy_tail_mj``, ``link_units``, ``sig_dbm``, ``rate_kbps``,
    ``active``); it is empty for pre-per-user traces, in which case
    only the aggregate ``totals`` series are available and grid-based
    invariants report themselves as skipped.
    """

    scheduler: str | None = None
    n_users: int = 0
    n_slots: int = 0
    tau_s: float = 1.0
    delta_kb: float = float("nan")
    seed: int | None = None
    params: dict[str, Any] = field(default_factory=dict)
    rrc: RRCParams | None = None
    #: Per-slot aggregate series (``unit_budget``, ``delivered_kb``,
    #: ``energy_trans_mj``, ``energy_tail_mj``, ``rebuffering_s``,
    #: ``mean_buffer_s``, ``allocated_units``).
    totals: dict[str, np.ndarray] = field(default_factory=dict)
    grids: dict[str, np.ndarray] = field(default_factory=dict)
    #: Slots at which ``ema.queues`` snapshots were taken, and the
    #: snapshots themselves, shape ``(len(slots), n_users)``.
    ema_queue_slots: np.ndarray | None = None
    ema_queues: np.ndarray | None = None
    #: Session lifecycle events (``session.start`` / ``session.reject``
    #: / ``session.end``) in trace order; empty for fixed-population
    #: runs, which emit none.
    sessions: list[dict[str, Any]] = field(default_factory=list)
    #: The ``run.start`` event's ``faults`` spec (a
    #: :meth:`repro.faults.FaultPlan.spec` dict) when the run injected
    #: faults, else ``None``.
    faults: dict[str, Any] | None = None
    #: ``fault.window`` events in trace order (one per injected window).
    fault_windows: list[dict[str, Any]] = field(default_factory=list)
    #: The ``run.end`` event's summary fields, when present.
    end_summary: dict[str, Any] = field(default_factory=dict)

    @property
    def has_user_grids(self) -> bool:
        return bool(self.grids)

    @property
    def energy_mj(self) -> np.ndarray | None:
        """Per-(slot, user) total energy, Eq. (5)."""
        if "energy_trans_mj" not in self.grids:
            return None
        return self.grids["energy_trans_mj"] + self.grids["energy_tail_mj"]

    @property
    def tx_mask(self) -> np.ndarray | None:
        if "delivered_kb" not in self.grids:
            return None
        return self.grids["delivered_kb"] > 0.0

    def rebuffer_events(self, min_s: float = 0.0) -> list[RebufferEvent]:
        """Contiguous per-user stall periods, longest first."""
        rebuf = self.grids.get("rebuffering_s")
        if rebuf is None:
            return []
        events: list[RebufferEvent] = []
        for user in range(rebuf.shape[1]):
            stalled = rebuf[:, user] > 0.0
            if not stalled.any():
                continue
            edges = np.flatnonzero(np.diff(np.concatenate(([0], stalled.view(np.int8), [0]))))
            for start, stop in zip(edges[::2], edges[1::2]):
                total = float(rebuf[start:stop, user].sum())
                if total > min_s:
                    events.append(RebufferEvent(user, int(start), int(stop - 1), total))
        events.sort(key=lambda e: -e.total_s)
        return events

    def rrc_state_grid(self) -> np.ndarray | None:
        """Per-(slot, user) RRC codes (0=DCH, 1=FACH, 2=IDLE) from tx history."""
        tx = self.tx_mask
        if tx is None:
            return None
        return fleet_state_grid_from_tx(tx, self.tau_s, self.rrc)

    def rrc_residency(self) -> dict[str, np.ndarray] | None:
        """Per-user slot counts in each RRC state."""
        grid = self.rrc_state_grid()
        if grid is None:
            return None
        return {
            "dch": (grid == 0).sum(axis=0),
            "fach": (grid == 1).sum(axis=0),
            "idle": (grid == 2).sum(axis=0),
        }

    def energy_split_mj(self) -> dict[str, float] | None:
        """Run-total energy split: transmission vs DCH-tail vs FACH-tail.

        ``None`` on dynamic runs: the split is reconstructed from the
        transmission history assuming every user rides its tail to the
        end, but retirement cuts tails short, so the reconstruction
        over-counts.
        """
        tx = self.tx_mask
        if tx is None or "energy_trans_mj" not in self.grids or self.sessions:
            return None
        dch, fach = tail_split_from_tx(tx, self.tau_s, self.rrc)
        return {
            "trans_mj": float(self.grids["energy_trans_mj"].sum()),
            "tail_dch_mj": float(dch.sum()),
            "tail_fach_mj": float(fach.sum()),
        }

    def session_rows(self) -> list[dict[str, Any]]:
        """Per-session lifecycle table reconstructed from the events.

        One dict per session that produced any lifecycle event, sorted
        by arrival, with ``user``, ``start_slot``/``end_slot`` (``None``
        while unresolved), and ``outcome`` (``completed`` / ``active`` /
        ``rejected``).
        """
        by_user: dict[int, dict[str, Any]] = {}
        for ev in self.sessions:
            user = int(ev.get("user", -1))
            row = by_user.setdefault(
                user, {"user": user, "start_slot": None, "end_slot": None,
                       "outcome": None}
            )
            kind = ev.get("kind")
            if kind == "session.start":
                row["start_slot"] = int(ev["slot"])
                row["outcome"] = "active"
            elif kind == "session.end":
                row["end_slot"] = int(ev["slot"])
                row["outcome"] = "completed"
            elif kind == "session.reject":
                row["start_slot"] = int(ev["slot"])
                row["outcome"] = "rejected"
        return sorted(
            by_user.values(),
            key=lambda r: (r["start_slot"] if r["start_slot"] is not None else -1,
                           r["user"]),
        )

    def summary(self) -> dict[str, Any]:
        """Flat per-run aggregates (for tables and the HTML report)."""
        out: dict[str, Any] = {
            "scheduler": self.scheduler,
            "n_users": self.n_users,
            "n_slots": self.n_slots,
        }
        for key in ("delivered_kb", "energy_trans_mj", "energy_tail_mj", "rebuffering_s"):
            series = self.totals.get(key)
            if series is not None:
                out[f"total_{key}"] = float(series.sum())
        if self.has_user_grids:
            out["rebuffer_events"] = len(self.rebuffer_events())
            split = self.energy_split_mj()
            if split:
                out.update(split)
        out.update({f"end_{k}": v for k, v in self.end_summary.items()})
        return out


_TOTAL_KEYS = (
    "unit_budget",
    "allocated_units",
    "delivered_kb",
    "rebuffering_s",
    "energy_trans_mj",
    "energy_tail_mj",
    "mean_buffer_s",
)
_GRID_DTYPES = {
    "phi": np.int64,
    "link_units": np.int64,
    "active": bool,
}


class _RunBuilder:
    """Accumulates one run's events and finalises into a RunTimeline.

    ``columns`` are the run's per-user grids by name, when its ``slot``
    events do not carry them inline.
    """

    def __init__(
        self,
        start_event: dict[str, Any] | None = None,
        columns: dict[str, np.ndarray] | None = None,
    ):
        self.timeline = RunTimeline()
        self.columns = columns
        self.slot_rows: list[dict[str, Any]] = []
        self.user_rows: list[dict[str, Any]] = []
        self.queue_rows: list[tuple[int, list[float]]] = []
        self.session_rows: list[dict[str, Any]] = []
        if start_event is not None:
            tl = self.timeline
            tl.scheduler = start_event.get("scheduler")
            tl.n_users = int(start_event.get("n_users", 0))
            tl.n_slots = int(start_event.get("n_slots", 0))
            tl.tau_s = float(_definitize(start_event.get("tau_s", 1.0)))
            tl.delta_kb = float(_definitize(start_event.get("delta_kb", float("nan"))))
            tl.seed = start_event.get("seed")
            tl.params = {
                k: _definitize(v) for k, v in (start_event.get("params") or {}).items()
            }
            rrc = start_event.get("rrc")
            if rrc:
                tl.rrc = RRCParams(**{k: float(v) for k, v in rrc.items()})
            tl.faults = start_event.get("faults")

    @property
    def last_slot(self) -> int:
        return self.slot_rows[-1]["slot"] if self.slot_rows else -1

    def add_slot(self, event: dict[str, Any]) -> None:
        self.slot_rows.append(event)
        users = event.get("users")
        if users is not None:
            self.user_rows.append(users)

    def finalize(self) -> RunTimeline | None:
        if not self.slot_rows and self.timeline.scheduler is None:
            return None
        tl = self.timeline
        tl.n_slots = max(tl.n_slots, len(self.slot_rows))
        # One conversion per column: numpy parses the writer's
        # 'inf'/'-inf'/'nan' strings into float columns itself.
        for key in _TOTAL_KEYS:
            if self.slot_rows and key in self.slot_rows[0]:
                tl.totals[key] = np.asarray(
                    [e.get(key, 0) for e in self.slot_rows], dtype=float
                )
        if self.columns is not None:
            for key, grid in self.columns.items():
                if len(grid) != len(self.slot_rows):
                    raise ConfigurationError(
                        f"run {tl.scheduler!r}: column {key!r} has {len(grid)} "
                        f"rows for {len(self.slot_rows)} slot events"
                    )
                tl.grids[key] = np.asarray(grid, dtype=_GRID_DTYPES.get(key, float))
            tl.n_users = tl.grids[next(iter(tl.grids))].shape[1]
        elif self.user_rows and len(self.user_rows) == len(self.slot_rows):
            for key in self.user_rows[0]:
                tl.grids[key] = np.asarray(
                    [users[key] for users in self.user_rows],
                    dtype=_GRID_DTYPES.get(key, float),
                )
            tl.n_users = tl.grids[next(iter(tl.grids))].shape[1]
        if self.queue_rows:
            tl.ema_queue_slots = np.array([s for s, _ in self.queue_rows], dtype=np.int64)
            tl.ema_queues = np.asarray([pc for _, pc in self.queue_rows], dtype=float)
        tl.sessions = self.session_rows
        return tl


def timelines_from_events(
    events: Iterable[dict[str, Any]], columns=None
) -> list[RunTimeline]:
    """Segment an event stream into runs and reconstruct each timeline.

    Runs are delimited by ``run.start`` events; traces recorded before
    those existed are segmented by the slot counter resetting.
    ``columns(start)`` returns the per-user grids of the run whose
    ``run.start`` event is ``start`` (``None`` when its ``slot`` events
    carry them inline), as a :class:`~repro.obs.tracer.ColumnReader`
    does for a trace file.
    """
    timelines: list[RunTimeline] = []
    builder: _RunBuilder | None = None

    def flush():
        nonlocal builder
        if builder is not None:
            tl = builder.finalize()
            if tl is not None:
                timelines.append(tl)
        builder = None

    for event in events:
        kind = event.get("kind")
        if kind == "run.start":
            flush()
            if "columns" in event and columns is None:
                raise ConfigurationError(
                    "a run's per-user columns are in the trace's column "
                    "stream: read the file with timelines_from_trace"
                )
            builder = _RunBuilder(event, columns(event) if columns else None)
        elif kind == "slot":
            if builder is None or event["slot"] <= builder.last_slot:
                flush()
                builder = _RunBuilder()
            builder.add_slot(event)
        elif kind == "ema.queues":
            if builder is not None:
                builder.queue_rows.append((int(event["slot"]), event["pc_s"]))
        elif kind in ("session.start", "session.reject", "session.end"):
            if builder is not None:
                builder.session_rows.append(event)
        elif kind == "fault.window":
            if builder is not None:
                builder.timeline.fault_windows.append(event)
        elif kind == "run.end":
            if builder is not None:
                builder.timeline.end_summary = {
                    k: _definitize(v)
                    for k, v in event.items()
                    if k not in ("kind", "scheduler", "n_slots")
                }
                flush()
    flush()
    return timelines


def timelines_from_trace(path: str | Path) -> list[RunTimeline]:
    """Read a ``trace.jsonl`` / ``trace.jsonl.gz`` (and its column
    stream) into timelines."""
    path = resolve_trace_path(path)
    with ColumnReader(path) as columns:
        return timelines_from_events(iter_trace_events(path), columns)


def timeline_from_result(result, params: dict[str, Any] | None = None) -> RunTimeline:
    """Build a timeline from an in-memory :class:`~repro.sim.results.SimulationResult`.

    The result gives the events and per-user columns a traced run writes
    (:func:`repro.sim.engine.trace_events`, which recomputes the per-slot
    link caps and unit budgets), read back like a trace, so every
    checker runs as on a trace.  ``params`` plays the role of the
    ``run.start`` scheduler parameters.
    """
    from repro.sim.engine import trace_events

    events, columns = trace_events(result, params=params)
    (tl,) = timelines_from_events(
        ({"kind": kind, **fields} for kind, fields in events), lambda start: columns
    )
    return tl


def export_jsonl(target: str | Path, out: str | Path) -> int:
    """Write the trace at ``target`` to ``out`` with every ``slot``
    event's ``users`` payload inline; returns the event count.

    A trace that already holds its payloads inline is copied event for
    event.  ``out`` is plain JSON lines, whatever ``target``'s form.
    """
    path = resolve_trace_path(target)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with ColumnReader(path) as columns, out.open("w", encoding="utf-8") as f:
        writer = JsonlTraceWriter(f)
        events = ((event.pop("kind"), event) for event in iter_trace_events(path))
        for kind, fields in inline_columns(events, columns):
            writer.emit(kind, **fields)
    return writer.n_events


# -- invariant checking ----------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One invariant violation, localised to slot/user coordinates."""

    invariant: str
    slot: int | None
    user: int | None
    expected: float | None
    actual: float | None
    message: str

    def __str__(self) -> str:
        where = f"slot {self.slot}" if self.slot is not None else "run"
        if self.user is not None:
            where += f", user {self.user}"
        detail = ""
        if self.expected is not None or self.actual is not None:
            detail = f" (expected {self.expected!r}, actual {self.actual!r})"
        return f"[{self.invariant}] {where}: {self.message}{detail}"


class InvariantChecker:
    """Base class: subclasses define ``name``, ``skip_reason``, ``check``."""

    name = "invariant"

    def skip_reason(self, tl: RunTimeline) -> str | None:
        """Non-``None`` explains why this checker cannot run on ``tl``."""
        return None

    def check(self, tl: RunTimeline) -> list[Violation]:
        raise NotImplementedError

    def _violation(
        self,
        slot: int | None,
        user: int | None,
        expected: float | None,
        actual: float | None,
        message: str,
    ) -> Violation:
        return Violation(self.name, slot, user, expected, actual, message)


def _coords(mask: np.ndarray) -> list[tuple[int, int]]:
    return [(int(s), int(u)) for s, u in np.argwhere(mask)]


class NonNegativeBufferChecker(InvariantChecker):
    """Eq. (7)/(8): buffer occupancy and rebuffering are non-negative."""

    name = "buffer.non_negative"

    def __init__(self, tol: float = 1e-9):
        self.tol = tol

    def skip_reason(self, tl: RunTimeline) -> str | None:
        if "buffer_s" not in tl.grids:
            return "trace has no per-user buffer grid"
        return None

    def check(self, tl: RunTimeline) -> list[Violation]:
        out = []
        for key, label in (("buffer_s", "buffer occupancy"), ("rebuffering_s", "rebuffering")):
            grid = tl.grids.get(key)
            if grid is None:
                continue
            for slot, user in _coords(grid < -self.tol):
                out.append(
                    self._violation(
                        slot, user, 0.0, float(grid[slot, user]),
                        f"negative {label} (Eq. 7)",
                    )
                )
        return out


class CapacityChecker(InvariantChecker):
    """Eqs. (1)-(2): link caps, BS budget, deliveries within allocations."""

    name = "allocation.capacity"

    def __init__(self, tol_kb: float = 1e-6):
        self.tol_kb = tol_kb

    def skip_reason(self, tl: RunTimeline) -> str | None:
        if "phi" not in tl.grids:
            return "trace has no per-user allocation grid"
        return None

    def check(self, tl: RunTimeline) -> list[Violation]:
        out = []
        phi = tl.grids["phi"]
        for slot, user in _coords(phi < 0):
            out.append(
                self._violation(slot, user, 0.0, float(phi[slot, user]),
                                "negative allocation")
            )
        link = tl.grids.get("link_units")
        if link is not None:
            for slot, user in _coords(phi > link):
                out.append(
                    self._violation(
                        slot, user, float(link[slot, user]), float(phi[slot, user]),
                        "allocation exceeds per-link cap (Eq. 1)",
                    )
                )
        budget = tl.totals.get("unit_budget")
        if budget is not None and len(budget) == phi.shape[0]:
            used = phi.sum(axis=1)
            for slot in np.flatnonzero(used > budget):
                out.append(
                    self._violation(
                        int(slot), None, float(budget[slot]), float(used[slot]),
                        "total allocation exceeds BS unit budget (Eq. 2)",
                    )
                )
        delivered = tl.grids.get("delivered_kb")
        if delivered is not None and np.isfinite(tl.delta_kb):
            over = delivered > phi * tl.delta_kb + self.tol_kb
            for slot, user in _coords(over):
                out.append(
                    self._violation(
                        slot, user, float(phi[slot, user] * tl.delta_kb),
                        float(delivered[slot, user]),
                        "delivered more than allocated",
                    )
                )
        return out


class RTMAEnergyBudgetChecker(InvariantChecker):
    """RTMA's Eq. (10)/(12) energy discipline.

    Two conditions, each only when its parameter was traced:

    * a user below the signal threshold ``phi_sig`` is never scheduled
      (the enforceable form of Eq. 12);
    * with a numeric budget ``Phi``, no user-slot's energy exceeds
      ``2 * Phi``: Eq. (12) sets ``Phi`` as the *mean* of the
      full-rate transmission branch at threshold signal and the slot
      tail branch, and radio power decreases with signal strength, so
      each branch — hence any compliant slot — is bounded by the sum
      ``2 * Phi``.
    """

    name = "rtma.energy_budget"

    def __init__(self, tol: float = 1e-9):
        self.tol = tol

    def skip_reason(self, tl: RunTimeline) -> str | None:
        params = tl.params
        if "sig_threshold_dbm" not in params and "energy_budget_mj_per_slot" not in params:
            return "run does not declare an RTMA threshold or energy budget"
        if "phi" not in tl.grids:
            return "trace has no per-user allocation grid"
        return None

    def check(self, tl: RunTimeline) -> list[Violation]:
        out = []
        phi = tl.grids["phi"]
        threshold = tl.params.get("sig_threshold_dbm")
        sig = tl.grids.get("sig_dbm")
        if threshold is not None and np.isfinite(threshold) and sig is not None:
            below = (phi > 0) & (sig < threshold - self.tol)
            for slot, user in _coords(below):
                out.append(
                    self._violation(
                        slot, user, float(threshold), float(sig[slot, user]),
                        "scheduled below the Eq. (12) signal threshold",
                    )
                )
        budget = tl.params.get("energy_budget_mj_per_slot")
        energy = tl.energy_mj
        if budget is not None and np.isfinite(budget) and energy is not None:
            cap = 2.0 * float(budget)
            for slot, user in _coords(energy > cap + self.tol):
                out.append(
                    self._violation(
                        slot, user, cap, float(energy[slot, user]),
                        "user-slot energy exceeds the Eq. (10) budget envelope",
                    )
                )
        return out


class EMAQueueChecker(InvariantChecker):
    """EMA's Eq. (16) queues and the Theorem 1 drift bound.

    Recomputes ``PC_i(n+1) = PC_i(n) + tau - t_i(n)`` from the traced
    deliveries and required rates and compares against the snapshot the
    scheduler emitted, checks that no established queue grows faster
    than real time (``tau`` per slot), and that each slot's Lyapunov
    drift term ``0.5 * sum_i dPC_i^2`` stays within the Eq. (18)
    constant ``B = 0.5 * sum_i (tau^2 + t_max^2)`` that Theorem 1's
    ``B/V`` trade-off rests on.  Queue-seeding slots (each user's first
    active slot, where EMA applies its place-holder backlog) are
    excluded — the seed is a policy choice, not an Eq. (16) step.
    """

    name = "ema.virtual_queues"

    def __init__(self, tol: float = 1e-6):
        self.tol = tol

    def skip_reason(self, tl: RunTimeline) -> str | None:
        if tl.ema_queues is None:
            return "run has no ema.queues snapshots"
        if not {"delivered_kb", "rate_kbps", "active"} <= tl.grids.keys():
            return "trace has no per-user delivery/rate grids"
        if tl.ema_queues.shape[1] != tl.grids["active"].shape[1]:
            return "ema.queues snapshots are not one queue per user"
        return None

    def check(self, tl: RunTimeline) -> list[Violation]:
        out = []
        pc = tl.ema_queues
        slots = tl.ema_queue_slots
        delivered = tl.grids["delivered_kb"]
        rate = tl.grids["rate_kbps"]
        active = tl.grids["active"]
        tau = tl.tau_s
        floor = tl.params.get("queue_floor_s")
        n_slots = delivered.shape[0]

        # Each user's first active slot: the EMA seeding step happens
        # there, so Eq. (16) consistency is only checkable afterwards.
        ever_active = active.cumsum(axis=0) > 0
        established = np.zeros_like(active)
        established[1:] = ever_active[:-1]

        with np.errstate(divide="ignore", invalid="ignore"):
            t_grid = np.where(rate > 0, delivered / rate, 0.0)
        t_max = float(t_grid.max(initial=0.0))
        b_const = 0.5 * pc.shape[1] * (tau**2 + t_max**2)

        for j in range(1, pc.shape[0]):
            slot = int(slots[j])
            if slots[j] != slots[j - 1] + 1 or slot >= n_slots:
                continue  # non-contiguous snapshots: nothing to recompute
            est = established[slot]
            expected = np.where(active[slot], pc[j - 1] + tau - t_grid[slot], pc[j - 1])
            if floor is not None:
                expected = np.maximum(expected, floor)
            err = np.abs(pc[j] - expected)
            bad = est & (err > self.tol * np.maximum(1.0, np.abs(expected)))
            for user in np.flatnonzero(bad):
                out.append(
                    self._violation(
                        slot, int(user), float(expected[user]), float(pc[j, user]),
                        "virtual queue inconsistent with Eq. (16) update",
                    )
                )
            delta = pc[j] - pc[j - 1]
            too_fast = est & (delta > tau + self.tol)
            for user in np.flatnonzero(too_fast & ~bad):
                out.append(
                    self._violation(
                        slot, int(user), tau, float(delta[user]),
                        "virtual queue grew faster than real time (Eq. 16)",
                    )
                )
            drift_term = 0.5 * float((delta[est] ** 2).sum())
            if drift_term > b_const * (1 + self.tol) + self.tol:
                out.append(
                    self._violation(
                        slot, None, b_const, drift_term,
                        "Lyapunov drift exceeds the Eq. (18) bound B (Theorem 1)",
                    )
                )
        return out


class SessionConservationChecker(InvariantChecker):
    """Dynamic-run session conservation.

    Three families of checks, all driven by the ``session.start`` /
    ``session.reject`` / ``session.end`` lifecycle events:

    * event sanity — no duplicate lifecycle events per session, no
      session both admitted and rejected, every end paired with (and
      not preceding) its start;
    * conservation — the ``run.end`` event's ``sessions`` counters
      agree with the event counts, and ``admitted == completed +
      still-active`` at the end of the run;
    * residency — no data unit is allocated (and no media delivered)
      to a session outside its ``[start, end]`` residency window, nor
      ever to a session that was rejected or never arrived.
    """

    name = "session.conservation"

    def skip_reason(self, tl: RunTimeline) -> str | None:
        if not tl.sessions:
            return "run has no session lifecycle events"
        return None

    def check(self, tl: RunTimeline) -> list[Violation]:
        out: list[Violation] = []
        started: dict[int, int] = {}
        rejected: dict[int, int] = {}
        ended: dict[int, int] = {}
        buckets = {
            "session.start": started,
            "session.reject": rejected,
            "session.end": ended,
        }
        for ev in tl.sessions:
            bucket = buckets.get(ev.get("kind"))
            if bucket is None:
                continue
            user = int(ev.get("user", -1))
            slot = int(ev.get("slot", -1))
            if user in bucket:
                out.append(
                    self._violation(
                        slot, user, None, None, f"duplicate {ev['kind']} event"
                    )
                )
            bucket[user] = slot
        for user in sorted(started.keys() & rejected.keys()):
            out.append(
                self._violation(
                    rejected[user], user, None, None,
                    "session both admitted and rejected",
                )
            )
        for user, slot in sorted(ended.items()):
            if user not in started:
                out.append(
                    self._violation(
                        slot, user, None, None, "session ended without a start"
                    )
                )
            elif slot < started[user]:
                out.append(
                    self._violation(
                        slot, user, float(started[user]), float(slot),
                        "session ended before it started",
                    )
                )

        counts = tl.end_summary.get("sessions") or {}
        for key, actual in (
            ("admitted", len(started)),
            ("rejected", len(rejected)),
            ("completed", len(ended)),
        ):
            expected = counts.get(key)
            if expected is not None and int(expected) != actual:
                out.append(
                    self._violation(
                        None, None, float(expected), float(actual),
                        f"run.end sessions.{key} disagrees with the "
                        f"session event count",
                    )
                )
        admitted = counts.get("admitted")
        completed = counts.get("completed")
        active = counts.get("active")
        if None not in (admitted, completed, active):
            if int(admitted) != int(completed) + int(active):
                out.append(
                    self._violation(
                        None, None, float(admitted),
                        float(int(completed) + int(active)),
                        "admitted != completed + still-active at run.end",
                    )
                )

        phi = tl.grids.get("phi")
        if phi is not None:
            n_slots, n_users = phi.shape
            resident = np.zeros((n_slots, n_users), dtype=bool)
            for user, slot in started.items():
                if 0 <= user < n_users and slot < n_slots:
                    end = ended.get(user, n_slots - 1)
                    resident[max(slot, 0) : end + 1, user] = True
            activity = phi != 0
            delivered = tl.grids.get("delivered_kb")
            if delivered is not None and delivered.shape == phi.shape:
                activity = activity | (delivered != 0.0)
            for slot, user in _coords(activity & ~resident):
                out.append(
                    self._violation(
                        slot, user, 0.0, float(phi[slot, user]),
                        "data allocated outside the session's residency window",
                    )
                )
        return out


class FaultInjectionChecker(InvariantChecker):
    """Injected faults actually bit: the traced grids reflect the plan.

    The ``run.start`` event of a faulted run carries the
    :meth:`repro.faults.FaultPlan.spec` dict, which this checker
    replays against the recorded grids:

    * signal blackouts — every affected (slot, user) cell of the traced
      ``sig_dbm`` grid equals the blackout level;
    * capacity outages (``factor == 0``) — the traced ``unit_budget``
      is zero across the window, so no allocation (and hence no
      delivery) can clear Eq. (2) there; degradation windows
      (``0 < factor < 1``) must not exceed ``factor`` times the
      largest un-faulted slot budget;
    * flow stalls — the traced ``delivered_kb`` is zero for every
      stalled (slot, user) cell;
    * the ``fault.window`` event count matches the plan.

    Note the Eq. (1)-(2) :class:`CapacityChecker` needs no fault
    awareness: it compares allocations against the *traced* per-slot
    budgets and link caps, which already reflect the injected outages.
    This checker closes the other direction — that the injection was
    not silently dropped.
    """

    name = "fault.injection"

    def __init__(self, tol: float = 1e-9):
        self.tol = tol

    def skip_reason(self, tl: RunTimeline) -> str | None:
        if tl.faults is None:
            return "run declares no fault plan"
        if not tl.has_user_grids:
            return "trace has no per-user grids"
        return None

    def check(self, tl: RunTimeline) -> list[Violation]:
        from repro.faults import FaultPlan

        out: list[Violation] = []
        plan = FaultPlan.from_spec(tl.faults)
        n_slots = tl.n_slots

        sig = tl.grids.get("sig_dbm")
        if sig is not None:
            for w in plan.signal:
                lo = min(w.start_slot, n_slots)
                hi = min(w.start_slot + w.n_slots, n_slots)
                users = (
                    range(sig.shape[1]) if w.users is None else w.users
                )
                for user in users:
                    if user >= sig.shape[1]:
                        continue
                    col = sig[lo:hi, user]
                    bad = np.flatnonzero(np.abs(col - w.level_dbm) > 1e-6)
                    for off in bad:
                        out.append(
                            self._violation(
                                lo + int(off), int(user), float(w.level_dbm),
                                float(col[off]),
                                "signal inside a blackout window is not at "
                                "the blackout level",
                            )
                        )

        budget = tl.totals.get("unit_budget")
        if budget is not None and plan.capacity:
            healthy = ~plan.capacity_slot_mask(len(budget))
            ceiling = float(budget[healthy].max()) if healthy.any() else None
            for w in plan.capacity:
                lo = min(w.start_slot, len(budget))
                hi = min(w.start_slot + w.n_slots, len(budget))
                window = budget[lo:hi]
                if w.factor == 0.0:
                    for off in np.flatnonzero(window > self.tol):
                        out.append(
                            self._violation(
                                lo + int(off), None, 0.0, float(window[off]),
                                "non-zero unit budget inside a capacity "
                                "outage window",
                            )
                        )
                elif ceiling is not None:
                    cap = w.factor * ceiling + 1.0  # integer budget rounding
                    for off in np.flatnonzero(window > cap):
                        out.append(
                            self._violation(
                                lo + int(off), None, cap, float(window[off]),
                                "unit budget inside a degradation window "
                                "exceeds the degraded capacity",
                            )
                        )

        delivered = tl.grids.get("delivered_kb")
        if delivered is not None:
            for w in plan.stalls:
                lo = min(w.start_slot, n_slots)
                hi = min(w.start_slot + w.n_slots, n_slots)
                for user in w.users:
                    if user >= delivered.shape[1]:
                        continue
                    col = delivered[lo:hi, user]
                    for off in np.flatnonzero(col > self.tol):
                        out.append(
                            self._violation(
                                lo + int(off), int(user), 0.0, float(col[off]),
                                "media delivered to a stalled flow",
                            )
                        )

        if tl.fault_windows:
            expected = len(plan.signal) + len(plan.capacity) + len(plan.stalls)
            if len(tl.fault_windows) != expected:
                out.append(
                    self._violation(
                        None, None, float(expected),
                        float(len(tl.fault_windows)),
                        "fault.window event count disagrees with the "
                        "run.start fault plan",
                    )
                )
        return out


DEFAULT_CHECKERS: tuple[InvariantChecker, ...] = (
    NonNegativeBufferChecker(),
    CapacityChecker(),
    RTMAEnergyBudgetChecker(),
    EMAQueueChecker(),
    SessionConservationChecker(),
    FaultInjectionChecker(),
)


@dataclass
class InvariantReport:
    """Outcome of running the checkers over one timeline."""

    scheduler: str | None
    checked: list[str]
    skipped: dict[str, str]
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self, max_violations: int = 20) -> str:
        lines = [
            f"invariants [{self.scheduler or 'unknown'}]: "
            f"{len(self.checked)} checked, {len(self.skipped)} skipped, "
            f"{len(self.violations)} violation(s)"
        ]
        for name, reason in sorted(self.skipped.items()):
            lines.append(f"  skip {name}: {reason}")
        for violation in self.violations[:max_violations]:
            lines.append(f"  {violation}")
        if len(self.violations) > max_violations:
            lines.append(f"  ... and {len(self.violations) - max_violations} more")
        return "\n".join(lines)


def check_invariants(
    tl: RunTimeline, checkers: Iterable[InvariantChecker] | None = None
) -> InvariantReport:
    """Run the (default or given) invariant checkers over one timeline."""
    checkers = tuple(checkers) if checkers is not None else DEFAULT_CHECKERS
    checked: list[str] = []
    skipped: dict[str, str] = {}
    violations: list[Violation] = []
    for checker in checkers:
        reason = checker.skip_reason(tl)
        if reason is not None:
            skipped[checker.name] = reason
            continue
        checked.append(checker.name)
        violations.extend(checker.check(tl))
    return InvariantReport(tl.scheduler, checked, skipped, violations)


def check_trace(
    path: str | Path, checkers: Iterable[InvariantChecker] | None = None
) -> list[tuple[RunTimeline, InvariantReport]]:
    """Timelines + invariant reports for every run in a trace."""
    return [
        (tl, check_invariants(tl, checkers)) for tl in timelines_from_trace(path)
    ]


def main(argv: list[str] | None = None) -> int:
    from repro.obs.cli import add_version_argument

    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Reconstruct per-run timelines from a trace and check "
        "the paper's invariants (Eqs. 1-2, 7, 10/12, 16/18).",
    )
    add_version_argument(parser)
    parser.add_argument("target", help="run directory or trace.jsonl[.gz] path")
    parser.add_argument(
        "--max-violations", type=int, default=20,
        help="cap on violations printed per run (default 20)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=24,
        help="cap on per-session lifecycle rows printed per run (default 24)",
    )
    parser.add_argument(
        "--export-jsonl", metavar="OUT", default=None,
        help="write the trace to OUT with every slot event's per-user "
        "payload inline, instead of checking it",
    )
    args = parser.parse_args(argv)

    if args.export_jsonl is not None:
        n_events = export_jsonl(args.target, args.export_jsonl)
        print(f"exported {n_events} events to {args.export_jsonl}")
        return 0

    reports = check_trace(args.target)
    if not reports:
        print("no runs found in trace")
        return 1
    any_violation = False
    for tl, report in reports:
        summary = tl.summary()
        print(
            f"run: {tl.scheduler or 'unknown'}  "
            f"({tl.n_users} users x {tl.n_slots} slots)"
        )
        for key in sorted(k for k in summary if k.startswith("total_")):
            print(f"  {key}: {summary[key]:.3f}")
        split = tl.energy_split_mj()
        if split:
            print(
                "  energy split: trans {trans_mj:.1f} mJ, "
                "tail DCH {tail_dch_mj:.1f} mJ, tail FACH {tail_fach_mj:.1f} mJ".format(
                    **split
                )
            )
        stalls = tl.rebuffer_events()
        if stalls:
            worst = stalls[0]
            print(
                f"  rebuffer events: {len(stalls)} "
                f"(worst: user {worst.user}, slots {worst.start_slot}-"
                f"{worst.end_slot}, {worst.total_s:.2f}s)"
            )
        counts = tl.end_summary.get("sessions")
        if counts:
            print(
                "  sessions: offered {offered}, admitted {admitted}, "
                "rejected {rejected}, completed {completed}, "
                "active at end {active}".format(**counts)
            )
        rows = tl.session_rows()
        for row in rows[: args.max_sessions]:
            start = "-" if row["start_slot"] is None else row["start_slot"]
            end = "-" if row["end_slot"] is None else row["end_slot"]
            print(
                f"    session {row['user']}: slots {start}..{end} "
                f"[{row['outcome'] or 'unknown'}]"
            )
        if len(rows) > args.max_sessions:
            print(f"    ... and {len(rows) - args.max_sessions} more sessions")
        print(report.render(args.max_violations))
        print()
        any_violation = any_violation or not report.ok
    return 1 if any_violation else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
