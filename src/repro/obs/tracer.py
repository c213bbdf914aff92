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
A traced run writes one ``"slot"`` event per simulated slot, derived
from its finished result (see :func:`repro.sim.engine.trace_events`).
Those events carry plain Python numbers and lists only, so the
encoder's ``_jsonify`` hook fires just for the rare fields that are
still NumPy objects, such as the ``pc_s`` array of an ``ema.queues``
snapshot.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Tracer", "NullTracer", "RecordingTracer", "JsonlTraceWriter"]


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
        transparently.
    """

    def __init__(self, path_or_file: str | Path | io.TextIOBase):
        if isinstance(path_or_file, (str, Path)):
            path = Path(path_or_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.suffix == ".gz":
                self._file = gzip.open(path, "wt", encoding="utf-8")
            else:
                self._file = path.open("w", encoding="utf-8")
            self._owns_file = True
            self.path: Path | None = path
        else:
            if not hasattr(path_or_file, "write"):
                raise ConfigurationError("need a path or a writable file object")
            self._file = path_or_file
            self._owns_file = False
            self.path = None
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

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()
        elif not self._file.closed:
            self._file.flush()
