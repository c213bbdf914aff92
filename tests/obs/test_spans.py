"""Unit tests of the hierarchical span profiler (:mod:`repro.obs.spans`)."""

from __future__ import annotations

import json

import pytest

from repro.obs.spans import (
    ROOT,
    SLOT_PREFIX,
    SpanRecorder,
    activate_spans,
    current_spans,
    flamegraph_svg,
)


class TestInterning:
    def test_same_path_same_node(self):
        r = SpanRecorder()
        a = r.path_node(("run", "slots", "playback"))
        b = r.path_node(("run", "slots", "playback"))
        assert a == b
        assert r.path_node(("run", "slots")) != a

    def test_slot_phase_id_lives_under_slot_prefix(self):
        r = SpanRecorder()
        nid = r.slot_phase_id("schedule")
        assert nid == r.path_node(SLOT_PREFIX + ("schedule",))

    def test_interning_order_is_first_touch(self):
        r = SpanRecorder()
        r.add(r.path_node(("run", "slots", "b")), 0.1)
        r.add(r.path_node(("run", "slots", "a")), 0.1)
        assert list(r.state()) == ["run", "run;slots", "run;slots;b", "run;slots;a"]

    def test_state_skips_registered_but_unused_leaves(self):
        r = SpanRecorder()
        r.add(r.path_node(("run", "slots", "used")), 0.1)
        r.path_node(("run", "slots", "unused"))
        assert "run;slots;unused" not in r.state()

    def test_capacity_growth_beyond_initial(self):
        r = SpanRecorder(capacity=2)
        for i in range(100):
            r.add(r.node(ROOT, f"n{i}"), 0.001)
        assert len(r.state()) == 100
        assert all(v == [1, 0.001] for v in r.state().values())


class TestRecording:
    def test_add_accumulates_count_and_total(self):
        r = SpanRecorder()
        nid = r.path_node(("run",))
        r.add(nid, 0.5)
        r.add(nid, 0.25)
        assert r.state()["run"] == [2, 0.75]

    def test_adder_closure_equivalent_to_add(self):
        r = SpanRecorder()
        nid = r.path_node(("run", "slots"))
        add = r.adder(nid)
        add(0.125)
        add(0.125)
        r.add(nid, 0.25)
        assert r.state()["run;slots"] == [3, 0.5]

    def test_span_context_manager_nests(self):
        r = SpanRecorder()
        with r.span("run"):
            with r.span("slots"):
                with r.span("playback"):
                    pass
                with r.span("playback"):
                    pass
        state = r.state()
        assert state["run"][0] == 1
        assert state["run;slots"][0] == 1
        assert state["run;slots;playback"][0] == 2
        assert state["run;slots;playback"][1] > 0.0

    def test_span_records_on_exception(self):
        r = SpanRecorder()
        with pytest.raises(ValueError):
            with r.span("run"):
                raise ValueError("boom")
        assert r.state()["run"][0] == 1

    def test_self_time_subtracts_children(self):
        r = SpanRecorder()
        parent = r.path_node(("run",))
        child = r.path_node(("run", "slots"))
        r.add(parent, 1.0)
        r.add(child, 0.25)
        assert r.self_total_s(parent) == pytest.approx(0.75)
        assert r.self_total_s(child) == pytest.approx(0.25)

    def test_reset_clears_tree(self):
        r = SpanRecorder()
        r.add(r.path_node(("run",)), 1.0)
        r.reset()
        assert r.state() == {}
        # A reset recorder interns from scratch (old adders are stale).
        r.add(r.path_node(("run",)), 2.0)
        assert r.state()["run"] == [1, 2.0]


class TestMerge:
    def test_merge_state_adds_counts_and_totals(self):
        a = SpanRecorder()
        a.add(a.path_node(("run",)), 1.0)
        a.add(a.path_node(("run", "slots")), 0.5)
        b = SpanRecorder()
        b.merge_state(a.state())
        b.merge_state(a.state())
        assert b.state() == {"run": [2, 2.0], "run;slots": [2, 1.0]}

    def test_merge_interns_in_state_order(self):
        """Merging worker states in task order reproduces the serial
        interning order — the structure side of the pooled-vs-serial
        bit-identity contract."""
        a = SpanRecorder()
        for name in ("playback", "observe", "schedule"):
            a.add(a.slot_phase_id(name), 0.001)
        merged = SpanRecorder()
        merged.merge_state(a.state())
        assert list(merged.state()) == list(a.state())

    def test_merge_into_prepopulated_recorder(self):
        a = SpanRecorder()
        a.add(a.path_node(("run",)), 1.0)
        b = SpanRecorder()
        b.add(b.path_node(("run", "slots", "rrc")), 0.125)
        b.merge_state(a.state())
        state = b.state()
        assert state["run"] == [1, 1.0]
        assert state["run;slots;rrc"] == [1, 0.125]


class TestAmbient:
    def test_activate_and_current(self):
        assert current_spans() is None
        r = SpanRecorder()
        with activate_spans(r):
            assert current_spans() is r
            inner = SpanRecorder()
            with activate_spans(inner):
                assert current_spans() is inner
            assert current_spans() is r
        assert current_spans() is None


def _engine_shaped_recorder() -> SpanRecorder:
    r = SpanRecorder()
    r.add(r.path_node(("run",)), 1.0)
    r.add(r.path_node(("run", "slots")), 0.9, )
    r.add(r.slot_phase_id("playback"), 0.2)
    r.add(r.slot_phase_id("schedule"), 0.5)
    r.add(r.path_node(SLOT_PREFIX + ("schedule", "kernel:ema_dp[numpy]")), 0.3)
    return r


class TestExports:
    def test_collapsed_stacks_are_self_time_microseconds(self):
        r = _engine_shaped_recorder()
        lines = dict(
            line.rsplit(" ", 1) for line in r.to_collapsed().splitlines()
        )
        assert lines["run;slots;schedule;kernel:ema_dp[numpy]"] == "300000"
        # schedule's self time = 0.5 - 0.3 child.
        assert lines["run;slots;schedule"] == "200000"

    def test_speedscope_profile_shape(self):
        r = _engine_shaped_recorder()
        profile = r.to_speedscope("unit")
        assert profile["$schema"].startswith("https://www.speedscope.app")
        assert profile["profiles"][0]["type"] == "sampled"
        frames = [f["name"] for f in profile["shared"]["frames"]]
        assert "kernel:ema_dp[numpy]" in frames
        prof = profile["profiles"][0]
        assert len(prof["samples"]) == len(prof["weights"])
        # Weights cover the tree's total self time.
        assert sum(prof["weights"]) == pytest.approx(1.0, rel=1e-6)

    def test_flamegraph_svg_from_recorder_and_state(self):
        r = _engine_shaped_recorder()
        svg_a = flamegraph_svg(r)
        svg_b = flamegraph_svg(r.state())
        for svg in (svg_a, svg_b):
            assert svg.startswith("<svg")
            assert svg.endswith("</svg>")
            assert "kernel:ema_dp[numpy]" in svg
            assert "<script" not in svg  # self-contained, no scripts
        assert svg_a == svg_b

    def test_flamegraph_empty_state(self):
        assert "<svg" in flamegraph_svg({})

    def test_write_artifacts_round_trip(self, tmp_path):
        r = _engine_shaped_recorder()
        paths = r.write_artifacts(tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "spans.collapsed.txt",
            "spans.json",
            "spans.speedscope.json",
        ]
        state = json.loads((tmp_path / "spans.json").read_text())
        assert state == r.state()
        restored = SpanRecorder()
        restored.merge_state(state)
        assert restored.state() == r.state()

    def test_render_table_lists_tree_depth_first(self):
        r = _engine_shaped_recorder()
        table = r.render_table()
        rows = table.splitlines()
        assert any("kernel:ema_dp[numpy]" in row for row in rows)
        # Depth-first: run before slots before phases.
        idx = {name: i for i, row in enumerate(rows)
               for name in ("run", "slots", "schedule") if row.strip().startswith(name)}
        assert idx["run"] < idx["slots"] < idx["schedule"]

    def test_summary_totals(self):
        r = _engine_shaped_recorder()
        summary = r.summary()
        assert summary["run"]["total_s"] == pytest.approx(1.0)
        node = summary["run;slots;schedule"]
        assert node["count"] == 1
        assert node["self_s"] == pytest.approx(0.2)
