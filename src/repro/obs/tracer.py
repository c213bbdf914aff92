"""Structured per-slot event tracing.

A *tracer* receives a stream of structured events — one dict per call —
from the instrumented simulation pipeline: per-slot engine summaries,
EMA virtual-queue snapshots, calibration grid points and results.
Three implementations cover the useful design space:

* :class:`NullTracer` — the default everywhere; every method is a
  no-op so the hot loop pays only a dispatch per event site;
* :class:`RecordingTracer` — keeps events in memory (tests, notebooks);
* :class:`JsonlTraceWriter` — streams events to a JSON-lines file, one
  event per line, with NumPy arrays/scalars converted to plain JSON.

Events are free-form: a ``kind`` string plus arbitrary keyword fields.
A traced run hands its tracer, in one :meth:`Tracer.write_run` call,
its events, derived from its finished result (see
:func:`repro.sim.engine.trace_events`), and its per-user
``(n_slots, N)`` grids, by name.  Where its ``slot`` events go, this
module decides:

* a :class:`JsonlTraceWriter` on a path appends the grids to an
  append-only ``.npy`` stream beside the trace, ``<stem>.columns.npy``
  (``<stem>.columns.npy.gz`` beside a ``.gz`` trace; the stem is the
  trace name without ``.jsonl[.gz]``), one
  :func:`numpy.lib.format.write_array` record per grid, and records the
  run's byte offset and column names in its ``run.start`` event under
  ``columns``, so its ``slot`` events carry only the slot totals.  The
  stream holds no timestamps, so its bytes are deterministic, and it is
  flushed at each run's end, before the run's events are written;
* every other tracer gets each ``slot`` event's per-user vectors inline,
  as its ``users`` payload (:func:`inline_columns`).  So does
  ``repro-analyze --export-jsonl``, which re-inlines a trace's stream
  through the same helper, and :class:`ColumnReader` reads a run's
  grids back.

The per-user vectors reach the encoder as plain Python lists, converted
a block of :data:`INLINE_BLOCK_SLOTS` slots at a time, so it never calls
back into Python for them; the ``_jsonify`` hook fires just for the
rare fields that are still NumPy objects, such as the ``pc_s`` array of
an ``ema.queues`` snapshot.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "JsonlTraceWriter",
    "ColumnReader",
    "columns_path",
    "inline_columns",
]

#: Slots of per-user columns converted to Python lists at a time when
#: they are inlined into ``slot`` events.
INLINE_BLOCK_SLOTS = 64

_GZIP_MAGIC = b"\x1f\x8b"


def columns_path(trace_path: str | Path) -> Path:
    """The column stream beside a trace: ``<stem>.columns.npy[.gz]``."""
    trace_path = Path(trace_path)
    name = trace_path.name
    gz = name.endswith(".gz")
    stem = name.removesuffix(".gz").removesuffix(".jsonl")
    return trace_path.with_name(f"{stem}.columns.npy" + (".gz" if gz else ""))


def inline_columns(events, load):
    """``events`` with each ``slot`` event's per-user ``users`` payload inline.

    ``events`` are ``(kind, fields)`` pairs of one or more runs.
    ``load(start)`` returns the columns (name -> ``(n_slots, N)`` grid)
    of the run whose ``run.start`` fields are ``start``, or ``None`` when
    the run's ``slot`` events carry their payload already.  A
    ``run.start``'s ``columns`` record is dropped, so the result is the
    trace as it reads with every payload inline.
    """
    columns = None
    lo = hi = 0
    for kind, fields in events:
        if kind == "run.start":
            columns, lo, hi = load(fields), 0, 0
            if "columns" in fields:
                fields = {k: v for k, v in fields.items() if k != "columns"}
        elif kind == "slot" and columns is not None:
            s = fields["slot"]
            if not lo <= s < hi:
                lo, hi = s, s + INLINE_BLOCK_SLOTS
                rows = {name: grid[lo:hi].tolist() for name, grid in columns.items()}
            fields = {**fields, "users": {name: row[s - lo] for name, row in rows.items()}}
        yield kind, fields


class Tracer:
    """Base tracer interface.

    Subclasses override :meth:`emit`; ``enabled`` lets instrumented
    code skip expensive event *construction* (not just emission) when
    the tracer is a no-op.
    """

    #: Whether events should be constructed and emitted at all.
    enabled: bool = True

    def emit(self, kind: str, /, **fields: Any) -> None:
        """Record one structured event."""
        raise NotImplementedError

    def write_run(self, events, columns: dict[str, np.ndarray]) -> None:
        """Record one run: its ``(kind, fields)`` events, in order, and
        its per-user columns (name -> ``(n_slots, N)`` grid, one row per
        ``slot`` event).  By default every event is emitted, each
        ``slot`` event with its columns' row inline (:func:`inline_columns`).
        """
        for kind, fields in inline_columns(events, lambda start: columns):
            self.emit(kind, **fields)

    def close(self) -> None:
        """Flush and release any underlying resources (default no-op)."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTracer(Tracer):
    """Zero-overhead tracer: drops every event.

    This is the default tracer of an :class:`~repro.obs.instrument.Instrumentation`
    bundle, so attaching instrumentation for metrics/profiling alone
    costs nothing on the tracing side.
    """

    enabled = False

    def emit(self, kind: str, /, **fields: Any) -> None:
        pass


class RecordingTracer(Tracer):
    """In-memory tracer; ``events`` is a list of plain dicts.

    Each event dict carries its ``kind`` under the ``"kind"`` key plus
    the emitted fields, in emission order.
    """

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, kind: str, /, **fields: Any) -> None:
        self.events.append({"kind": kind, **fields})

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        """All recorded events of one kind, in order."""
        return [e for e in self.events if e["kind"] == kind]


def _jsonify(value: Any) -> Any:
    """Convert NumPy containers/scalars to JSON-serialisable types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


def _sanitize(value: Any) -> Any:
    """Replace non-finite floats with their ``repr`` strings, recursively.

    ``json.dumps`` serialises floats natively — the ``default`` hook is
    never consulted for them — so without this pass ``inf``/``nan``
    would land in the file as the bare ``Infinity``/``NaN`` tokens,
    which are not valid JSON.
    """
    if isinstance(value, float):  # np.float64 is a float subclass
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    if isinstance(value, np.generic):
        return _sanitize(value.item())
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    return value


def _gzip(path: Path, mode: str):
    """A gzip file whose header holds no timestamp, so equal bytes in
    give equal bytes out."""
    return gzip.GzipFile(path, mode, mtime=0)


class JsonlTraceWriter(Tracer):
    """Streams events to a JSON-lines file (one JSON object per line).

    Parameters
    ----------
    path_or_file:
        A filesystem path (opened for writing, parent directories
        created) or an already-open text file object (not closed by
        :meth:`close` unless this writer opened it).  A path ending in
        ``.gz`` is written gzip-compressed — long sweeps shrink by
        ~20x and :mod:`repro.obs.analyze` reads both forms
        transparently.  On a path, each run's per-user columns go to
        the stream :func:`columns_path` names (compressed too beside a
        ``.gz`` trace), which opening the writer replaces; on a file
        object they go inline into the ``slot`` events.
    """

    def __init__(self, path_or_file: str | Path | io.TextIOBase):
        self._columns = None
        if isinstance(path_or_file, (str, Path)):
            path = Path(path_or_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.suffix == ".gz":
                self._file = io.TextIOWrapper(_gzip(path, "wb"), encoding="utf-8")
            else:
                self._file = path.open("w", encoding="utf-8")
            self._owns_file = True
            self.path: Path | None = path
            self.columns_path: Path | None = columns_path(path)
            self.columns_path.unlink(missing_ok=True)
        else:
            if not hasattr(path_or_file, "write"):
                raise ConfigurationError("need a path or a writable file object")
            self._file = path_or_file
            self._owns_file = False
            self.path = self.columns_path = None
        self.n_events = 0

    def emit(self, kind: str, /, **fields: Any) -> None:
        record = {"kind": kind, **fields}
        try:
            line = json.dumps(record, default=_jsonify, allow_nan=False)
        except ValueError:
            # A non-finite float somewhere in the record: take the slow
            # path so 'inf'/'-inf'/'nan' survive as strings and the file
            # stays strict JSON.
            line = json.dumps(_sanitize(record), allow_nan=False)
        self._file.write(line + "\n")
        self.n_events += 1

    def write_run(self, events, columns: dict[str, np.ndarray]) -> None:
        if self.columns_path is None:
            return super().write_run(events, columns)
        if self._columns is None:
            gz = self.columns_path.suffix == ".gz"
            self._columns = (_gzip if gz else Path.open)(self.columns_path, "wb")
        record = {"offset": self._columns.tell(), "names": list(columns)}
        for grid in columns.values():
            np.lib.format.write_array(
                self._columns, np.ascontiguousarray(grid), allow_pickle=False
            )
        # The run's columns are in the stream before any of its events.
        self._columns.flush()
        for kind, fields in events:
            if kind == "run.start":
                fields = {**fields, "columns": record}
            self.emit(kind, **fields)

    def close(self) -> None:
        if self._columns is not None:
            self._columns.close()
        if self._owns_file and not self._file.closed:
            self._file.close()
        elif not self._file.closed:
            self._file.flush()


class ColumnReader:
    """Reads runs' per-user columns back from the stream beside a trace.

    Call it with a ``run.start`` event's fields: it returns the run's
    columns (name -> grid, one :func:`numpy.lib.format.read_array` per
    column, no pickles), or ``None`` for a run whose ``slot`` events
    carry them inline.  The stream opens on first use, gzip detected by
    its magic bytes; a missing, truncated or corrupt stream raises a
    :class:`~repro.errors.ConfigurationError` that names the file.
    """

    def __init__(self, trace_path: str | Path):
        self.path = columns_path(trace_path)
        self._file = None

    def __call__(self, start: dict[str, Any]) -> dict[str, np.ndarray] | None:
        record = start.get("columns")
        if record is None:
            return None
        if self._file is None:
            try:
                with self.path.open("rb") as f:
                    gz = f.read(2) == _GZIP_MAGIC
                self._file = gzip.open(self.path, "rb") if gz else self.path.open("rb")
            except OSError as exc:
                raise ConfigurationError(
                    f"{self.path}: cannot open the trace's column stream ({exc})"
                ) from None
        try:
            self._file.seek(record["offset"])
            return {
                name: np.lib.format.read_array(self._file, allow_pickle=False)
                for name in record["names"]
            }
        except (ValueError, EOFError, OSError) as exc:
            raise ConfigurationError(
                f"{self.path}: truncated or corrupt column stream ({exc})"
            ) from None

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "ColumnReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
