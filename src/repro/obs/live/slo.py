"""Declarative SLO rules evaluated online against the live aggregators.

A rule is a one-line invariant over a telemetry channel::

    p95(rebuffer_s) < 0.5        # paper's rebuffering bound Omega
    max(slot_energy_mj) <= 120   # per-slot energy bound Phi (+ tol)
    worker_stall_s <= 30
    mean(rebuffer_s) < 0.1

Grammar: ``[agg(]channel[)] OP number[unit]`` where ``agg`` is one of
``p50``/``p90``/``p95``/``p99`` (any ``pNN``), ``mean``, ``std``,
``min``, ``max``, ``last``, ``count``; a bare channel means
``last(channel)``.  A trailing unit suffix (``s``, ``mj``, ``kb``) on
the number is cosmetic and stripped.

The :class:`SloWatchdog` evaluates its rules against a *resolver*
(``resolver(agg, channel) -> float | None``; ``None`` = no data yet,
rule skipped).  Alerts are edge-triggered: one ``slo.alert`` event +
counter increment when a rule transitions into violation, one
``slo.clear`` when it recovers; each run keeps its own edge state.
``action="abort"`` raises :class:`~repro.errors.SloViolation` after
emitting the alert, which aborts the run's slot loop through the
engine's shutdown path (the trace still ends with ``run.abort`` and
flushes).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ConfigurationError, SloViolation

__all__ = ["SloRule", "parse_rule", "SloWatchdog"]

log = logging.getLogger("repro.obs.live.slo")

_RULE_RE = re.compile(
    r"""^\s*
    (?:(?P<agg>[A-Za-z_]\w*)\s*\(\s*(?P<channel>[\w.]+)\s*\)   # agg(channel)
      |(?P<bare>[\w.]+))                                        # bare channel
    \s*(?P<op><=|>=|==|!=|<|>)\s*
    (?P<value>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
    \s*(?P<unit>[A-Za-z_%]*)\s*$""",
    re.VERBOSE,
)

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_KNOWN_AGGS = ("mean", "std", "min", "max", "last", "value", "count", "sum")


@dataclass(frozen=True)
class SloRule:
    """One parsed rule: ``agg(channel) op threshold``.

    The rule *holds* while the comparison is true; an alert fires on
    the transition to false.
    """

    agg: str
    channel: str
    op: str
    threshold: float
    text: str

    @property
    def key(self) -> str:
        """Stable identifier used in metric names and alert events."""
        return f"{self.agg}({self.channel})"

    def holds(self, observed: float) -> bool:
        return _OPS[self.op](observed, self.threshold)


def parse_rule(text: str) -> SloRule:
    """Parse one rule string (see module docstring for the grammar)."""
    m = _RULE_RE.match(text)
    if m is None:
        raise ConfigurationError(
            f"unparseable SLO rule {text!r} (expected 'agg(channel) OP number')"
        )
    agg = m.group("agg")
    channel = m.group("channel") or m.group("bare")
    if agg is None:
        agg = "last"
    agg = agg.lower()
    if not (agg in _KNOWN_AGGS or re.fullmatch(r"p\d{1,2}", agg)):
        raise ConfigurationError(
            f"unknown aggregate {agg!r} in SLO rule {text!r} "
            f"(expected one of {_KNOWN_AGGS} or pNN)"
        )
    return SloRule(
        agg=agg,
        channel=channel,
        op=m.group("op"),
        threshold=float(m.group("value")),
        text=text.strip(),
    )


class SloWatchdog:
    """Evaluates a rule set against live aggregates, firing structured alerts.

    Parameters
    ----------
    rules:
        Rule strings or pre-parsed :class:`SloRule` objects.
    action:
        ``"warn"`` (default) logs + emits + counts; ``"abort"``
        additionally raises :class:`~repro.errors.SloViolation` on the
        first firing alert.
    """

    def __init__(
        self,
        rules: Iterable[str | SloRule],
        action: str = "warn",
    ):
        if action not in ("warn", "abort"):
            raise ConfigurationError("action must be 'warn' or 'abort'")
        self.rules: list[SloRule] = [
            r if isinstance(r, SloRule) else parse_rule(r) for r in rules
        ]
        self.action = action
        #: Every alert fired so far, most recent last (bounded).
        self.alerts: list[dict] = []
        self.n_alerts = 0

    def evaluate(
        self,
        resolver: Callable[[str, str], float | None],
        run,
        slot: int | None = None,
        context: str | None = None,
    ) -> list[dict]:
        """Evaluate every rule; returns the alerts that fired *this* call.

        ``run`` is the evaluated run's edge state and sinks: its
        ``violated`` set of rule keys, and its ``metrics`` and ``tracer``
        (either may be None).  Alerts tick ``slo.alerts`` plus a
        per-rule ``slo.alerts.<key>`` counter and emit ``slo.alert`` /
        ``slo.clear`` trace events.  Each run keeps its own state, so a
        rule a previous run violated fires again in the next run.
        """
        violated, metrics, tracer = run.violated, run.metrics, run.tracer
        fired: list[dict] = []
        abort_alert: dict | None = None
        for rule in self.rules:
            observed = resolver(rule.agg, rule.channel)
            if observed is None or observed != observed:  # None or NaN: no data
                continue
            if rule.holds(observed):
                if rule.key in violated:
                    violated.discard(rule.key)
                    if tracer is not None and tracer.enabled:
                        tracer.emit(
                            "slo.clear", rule=rule.text, observed=float(observed)
                        )
                continue
            if rule.key in violated:
                continue  # still violated; already alerted
            violated.add(rule.key)
            alert = {
                "rule": rule.text,
                "key": rule.key,
                "observed": float(observed),
                "threshold": rule.threshold,
                "op": rule.op,
            }
            if slot is not None:
                alert["slot"] = int(slot)
            if context is not None:
                alert["context"] = context
            fired.append(alert)
            self.n_alerts += 1
            self.alerts.append(alert)
            del self.alerts[:-64]  # keep a bounded tail for snapshots
            log.warning(
                "SLO violated: %s (observed %.6g, bound %s %.6g)%s",
                rule.text,
                observed,
                rule.op,
                rule.threshold,
                f" at slot {slot}" if slot is not None else "",
            )
            if metrics is not None:
                metrics.counter("slo.alerts").inc()
                metrics.counter(f"slo.alerts.{rule.key}").inc()
            if tracer is not None and tracer.enabled:
                tracer.emit("slo.alert", **alert)
            if self.action == "abort" and abort_alert is None:
                abort_alert = alert
        if abort_alert is not None:
            raise SloViolation(
                f"SLO rule {abort_alert['rule']!r} violated "
                f"(observed {abort_alert['observed']:.6g})",
                rule=abort_alert["rule"],
                observed=abort_alert["observed"],
            )
        return fired

    def spec(self) -> dict:
        """Picklable description (rules as text) for shipping to workers."""
        return {"rules": [r.text for r in self.rules], "action": self.action}

    def __len__(self) -> int:
        return len(self.rules)


def rules_from_spec(spec: dict | None) -> "SloWatchdog | None":
    """Rebuild a watchdog from :meth:`SloWatchdog.spec` (None-safe)."""
    if not spec or not spec.get("rules"):
        return None
    return SloWatchdog(spec["rules"], action=spec.get("action", "warn"))


__all__.append("rules_from_spec")
