"""SLO rule parsing and the online watchdog: firing, edge-triggering,
per-run edge state, and the abort action.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, SloViolation
from repro.obs.live import SloWatchdog, parse_rule, rules_from_spec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer


class TestParseRule:
    def test_full_grammar(self):
        rule = parse_rule("p95(rebuffer_s) < 0.5")
        assert rule.agg == "p95"
        assert rule.channel == "rebuffer_s"
        assert rule.op == "<"
        assert rule.threshold == 0.5
        assert rule.key == "p95(rebuffer_s)"

    def test_bare_channel_means_last(self):
        rule = parse_rule("slot_energy_mj <= 120")
        assert rule.agg == "last"
        assert rule.channel == "slot_energy_mj"

    def test_unit_suffix_is_cosmetic(self):
        assert parse_rule("max(rebuffer_s) < 2s").threshold == 2.0
        assert parse_rule("mean(slot_energy_mj) <= 1.5e2mj").threshold == 150.0

    @pytest.mark.parametrize(
        "op,holds_at_1,holds_at_3",
        [("<", True, False), ("<=", True, False), (">", False, True), (">=", False, True)],
    )
    def test_operators(self, op, holds_at_1, holds_at_3):
        rule = parse_rule(f"mean(x) {op} 2")
        assert rule.holds(1.0) is holds_at_1
        assert rule.holds(3.0) is holds_at_3

    @pytest.mark.parametrize(
        "bad",
        ["", "p95(rebuffer_s)", "p95(rebuffer_s) ~ 0.5", "median(x) < 1", "p999(x) < 1"],
    )
    def test_rejects_bad_rules(self, bad):
        with pytest.raises(ConfigurationError):
            parse_rule(bad)

    def test_dotted_channel_names(self):
        rule = parse_rule("engine.slots >= 100")
        assert rule.channel == "engine.slots"


def _resolver(values):
    """Resolver over a {channel: value} dict (None for missing)."""

    def resolve(agg, channel):
        return values.get(channel)

    return resolve


def _run(metrics=None, tracer=None):
    """One run's edge state and sinks, as the live plane's streams hold them."""
    return SimpleNamespace(violated=set(), metrics=metrics, tracer=tracer)


class TestSloWatchdog:
    def test_fires_once_per_violation_edge(self):
        metrics = MetricsRegistry()
        tracer = RecordingTracer()
        dog = SloWatchdog(["mean(x) < 1"])
        run = _run(metrics, tracer)
        assert dog.evaluate(_resolver({"x": 0.5}), run) == []
        fired = dog.evaluate(_resolver({"x": 2.0}), run)
        assert len(fired) == 1
        assert fired[0]["observed"] == 2.0
        # Still violated: no new alert.
        assert dog.evaluate(_resolver({"x": 3.0}), run) == []
        assert dog.n_alerts == 1
        assert metrics.counter("slo.alerts").value == 1
        assert metrics.counter("slo.alerts.mean(x)").value == 1
        events = [e for e in tracer.events if e["kind"] == "slo.alert"]
        assert len(events) == 1

    def test_clear_and_refire(self):
        tracer = RecordingTracer()
        dog = SloWatchdog(["mean(x) < 1"])
        run = _run(tracer=tracer)
        dog.evaluate(_resolver({"x": 2.0}), run)
        dog.evaluate(_resolver({"x": 0.5}), run)  # recovers -> slo.clear
        assert [e["kind"] for e in tracer.events] == ["slo.alert", "slo.clear"]
        assert len(dog.evaluate(_resolver({"x": 2.0}), run)) == 1
        assert dog.n_alerts == 2

    def test_refires_in_each_run(self):
        # Each run has its own edge state and sinks: a violation a
        # previous run already alerted fires again in the next run.
        dog = SloWatchdog(["mean(x) < 1"])
        runs = [_run(MetricsRegistry()) for _ in range(2)]
        for run in runs:
            assert len(dog.evaluate(_resolver({"x": 2.0}), run)) == 1
            assert dog.evaluate(_resolver({"x": 2.0}), run) == []
            assert run.violated == {"mean(x)"}
            assert run.metrics.counter("slo.alerts").value == 1
        assert dog.n_alerts == 2

    def test_no_data_skips_rule(self):
        dog = SloWatchdog(["p95(rebuffer_s) < 0.5"])
        run = _run()
        assert dog.evaluate(_resolver({}), run) == []
        assert dog.evaluate(_resolver({"rebuffer_s": float("nan")}), run) == []
        assert dog.n_alerts == 0

    def test_abort_raises_after_emitting(self):
        metrics = MetricsRegistry()
        dog = SloWatchdog(["max(e) <= 10"], action="abort")
        with pytest.raises(SloViolation) as err:
            dog.evaluate(_resolver({"e": 50.0}), _run(metrics), slot=7)
        assert err.value.observed == 50.0
        assert metrics.counter("slo.alerts").value == 1
        assert dog.alerts[-1]["slot"] == 7

    def test_alert_tail_is_bounded(self):
        dog = SloWatchdog(["mean(x) < 1"])
        for _ in range(200):
            dog.evaluate(_resolver({"x": 2.0}), _run())
        assert dog.n_alerts == 200
        assert len(dog.alerts) <= 64

    def test_bad_action_rejected(self):
        with pytest.raises(ConfigurationError):
            SloWatchdog([], action="explode")

    def test_spec_round_trip(self):
        dog = SloWatchdog(["p95(x) < 1", "mean(y) >= 0"], action="abort")
        rebuilt = rules_from_spec(dog.spec())
        assert [r.text for r in rebuilt.rules] == [r.text for r in dog.rules]
        assert rebuilt.action == "abort"
        assert rules_from_spec(None) is None
        assert rules_from_spec({"rules": []}) is None
