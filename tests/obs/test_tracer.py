"""Tests for the structured event tracers."""

import io
import json
import math

import numpy as np
import pytest

from repro.obs.tracer import (
    ColumnReader,
    JsonlTraceWriter,
    NullTracer,
    RecordingTracer,
    columns_path,
)


class TestNullTracer:
    def test_disabled_flag(self):
        assert NullTracer().enabled is False

    def test_emit_is_noop(self):
        t = NullTracer()
        t.emit("slot", slot=0, value=1.0)
        t.close()

    def test_context_manager(self):
        with NullTracer() as t:
            t.emit("x")


class TestRecordingTracer:
    def test_records_kind_and_fields(self):
        t = RecordingTracer()
        t.emit("slot", slot=3, delivered_kb=12.5)
        t.emit("calibration.point", v=0.1)
        assert len(t.events) == 2
        assert t.events[0]["kind"] == "slot"
        assert t.events[0]["slot"] == 3
        assert t.of_kind("slot") == [t.events[0]]
        assert t.of_kind("missing") == []

    def test_enabled(self):
        assert RecordingTracer().enabled is True


class TestJsonlTraceWriter:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as t:
            t.emit("slot", slot=0, delivered_kb=1.5)
            t.emit("slot", slot=1, delivered_kb=0.0)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        events = [json.loads(line) for line in lines]
        assert events[0]["kind"] == "slot"
        assert events[1]["slot"] == 1
        assert t.n_events == 2

    def test_numpy_values_serialised(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as t:
            t.emit(
                "queues",
                vec=np.array([1.0, 2.0]),
                count=np.int64(7),
                scalar=np.float64(0.5),
            )
        event = json.loads(path.read_text())
        assert event["vec"] == [1.0, 2.0]
        assert event["count"] == 7
        assert event["scalar"] == 0.5

    def test_non_finite_floats_survive_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as t:
            t.emit("edge", value=float("inf"), other=float("nan"))
        # Strict JSON: no bare Infinity/NaN tokens in the file.
        event = json.loads(path.read_text(), parse_constant=lambda s: pytest.fail(s))
        assert isinstance(event["value"], str)
        assert isinstance(event["other"], str)
        assert math.isinf(float(event["value"]))

    def test_enabled_and_path(self, tmp_path):
        t = JsonlTraceWriter(tmp_path / "t.jsonl")
        assert t.enabled is True
        assert t.path == tmp_path / "t.jsonl"
        t.close()


class TestWriteRun:
    EVENTS = [
        ("run.start", {"n_users": 2}),
        ("slot", {"slot": 0, "delivered_kb": 1.5}),
        ("ema.queues", {"slot": 1}),
        ("slot", {"slot": 1, "delivered_kb": 0.0}),
        ("run.end", {}),
    ]
    COLUMNS = {
        "phi": np.array([[1, 2], [3, 4]]),
        "sig_dbm": np.array([[-80.0, float("-inf")], [-90.5, -70.0]]),
        "active": np.array([[True, False], [False, True]]),
    }

    def test_stream_path_names_the_stem(self):
        assert columns_path("d/trace.jsonl").as_posix() == "d/trace.columns.npy"
        assert columns_path("d/run.jsonl.gz").as_posix() == "d/run.columns.npy.gz"

    def test_file_object_and_recorder_get_the_payload_inline(self):
        buf = io.StringIO()
        JsonlTraceWriter(buf).write_run(iter(self.EVENTS), self.COLUMNS)
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert events[3] == {
            "kind": "slot",
            "slot": 1,
            "delivered_kb": 0.0,
            "users": {"phi": [3, 4], "sig_dbm": [-90.5, -70.0], "active": [False, True]},
        }
        # Non-finite values stay strict JSON.
        assert events[1]["users"]["sig_dbm"] == [-80.0, "-inf"]
        recorder = RecordingTracer()
        recorder.write_run(iter(self.EVENTS), self.COLUMNS)
        assert recorder.events[3]["users"]["phi"] == [3, 4]
        assert [e["kind"] for e in recorder.events] == [k for k, _ in self.EVENTS]

    def test_path_streams_the_columns(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as t:
            t.write_run(iter(self.EVENTS), self.COLUMNS)
            t.write_run(iter(self.EVENTS), self.COLUMNS)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert t.n_events == len(events) == 10
        assert not any("users" in e for e in events)
        starts = [e for e in events if e["kind"] == "run.start"]
        assert starts[0]["columns"] == {"offset": 0, "names": ["phi", "sig_dbm", "active"]}
        assert starts[1]["columns"]["offset"] == t.columns_path.stat().st_size // 2
        with ColumnReader(path) as read:
            assert read({"n_users": 2}) is None
            for start in reversed(starts):
                columns = read(start)
                assert list(columns) == list(self.COLUMNS)
                for name, grid in self.COLUMNS.items():
                    assert columns[name].dtype == grid.dtype
                    assert columns[name].tobytes() == grid.tobytes()

    def test_null_tracer_drops_runs(self):
        NullTracer().write_run(iter(self.EVENTS), self.COLUMNS)
