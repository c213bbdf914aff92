"""The live telemetry plane: one object tying aggregators, watchdog,
heartbeats, and export together.

A :class:`LiveTelemetry` rides the :class:`~repro.obs.instrument.Instrumentation`
bundle as its optional fourth facet (``instr.live``).  It follows every
run of a slot loop, a stack's runs included: :meth:`begin_run` gives
each run a :class:`RunStream`, and every ``watch_every`` slots (and at
the last slot) the loop calls :meth:`observe_block` once per run, with
one cell-aggregated value per slot of the block, read from the run's
own result grids; everything downstream — P²/Welford aggregation, SLO
rule evaluation, heartbeat emission, snapshot export — hangs off that
one call, so the overhead stays inside the <3% budget benched in
``benchmarks/bench_kernels.py``.  The resolver, snapshot and
heartbeats read the stream observed last.

Live telemetry is strictly observational (bit-identical result grids
with it on or off — ``tests/integration/test_live_equivalence.py``)
with one sanctioned exception: a watchdog rule with ``action="abort"``
raises :class:`~repro.errors.SloViolation`, and the engine's shutdown
path turns that into a flushed trace ending in ``run.abort``: every
run of the loop is cut at that slot.

Channels fed by the engine (per-slot, cell-aggregated):

==================  ====================================================
``rebuffer_s``      summed rebuffering accrued this slot (Eq. 8)
``slot_energy_mj``  transmission + tail energy this slot (Eqs. 3-5)
``delivered_kb``    media shipped this slot
``buffer_s``        mean client buffer level
``active_users``    resident population, sampled at each watch tick
``outage_slots``    injected-fault slots per watch block (repro.faults)
``slots_per_s``     engine throughput (wall-clock EWMA; scalar channel)
``worker_stall_s``  max heartbeat silence across pool workers (parent)
==================  ====================================================

``outage_slots`` counts the slots of each observation block with any
injected fault window active (signal blackout, capacity outage, flow
stall), so SLO rules can react to degraded-network conditions —
``sum(outage_slots) < 500`` bounds total injected downtime, and
``max(outage_slots) < 64`` fires when a whole watch block is dark.
Healthy runs feed constant zeros.

Determinism note: a run's aggregates and rule evaluations depend only
on its own slot stream (a fresh stream per run, evaluated every
``watch_every`` slots), so alert counts and ``slo.*`` trace positions
are reproducible run-over-run and do not depend on how runs are
grouped into loops or workers.  Rules over a registry name (such as
``slo.alerts``) read the bundle as of the loop's start, and a pool
worker's private bundle under ``--jobs N``; only ``slots_per_s`` and
``worker_stall_s`` are wall-clock-derived, and rules over those are
inherently timing-dependent.
"""

from __future__ import annotations

import logging
import time
from typing import Any

from repro.obs.live.aggregators import Ewma, StreamStat
from repro.obs.live.exporter import MetricsServer, SnapshotExporter
from repro.obs.live.heartbeat import HeartbeatEmitter, HeartbeatMonitor
from repro.obs.live.slo import SloRule, SloWatchdog

__all__ = ["LiveTelemetry"]

log = logging.getLogger("repro.obs.live")

#: Channels reset at every run boundary (per-run streaming stats).
#: ``active_users`` is fed once per watch tick (the users active at the
#: block's last slot) rather than per slot — it tracks the churning
#: population of churn runs for SLO rules like
#: ``max(active_users) < 32``.
_RUN_CHANNELS = (
    "rebuffer_s",
    "slot_energy_mj",
    "delivered_kb",
    "buffer_s",
    "active_users",
    "outage_slots",
)
#: Channels carrying P² quantile sketches by default — the two the
#: paper's constraints bound (rebuffering Omega, per-slot energy Phi).
#: Sketches are the only per-sample Python cost in the batched tick
#: path, so the other channels keep vectorized min/max/mean/std only;
#: a pNN SLO rule on any channel adds the sketch it needs.
_SKETCHED_CHANNELS = ("rebuffer_s", "slot_energy_mj")
#: P² quantiles sketched on those channels unless configured otherwise.
DEFAULT_QUANTILES = (0.5, 0.95)


class RunStream:
    """One run as the plane follows it: its channel aggregates, its SLO
    edge state and the sinks of its ``slo.*`` alerts (the run's registry
    and trace log, or the bundle's)."""

    __slots__ = ("name", "n_slots", "slots", "stats", "violated", "metrics", "tracer")

    def __init__(self, name, n_slots: int, quantiles, metrics=None, tracer=None):
        self.name = name
        self.n_slots = int(n_slots)
        #: Slots observed so far.
        self.slots = 0
        self.stats = {ch: StreamStat(ch, quantiles[ch]) for ch in _RUN_CHANNELS}
        #: Rules the run currently violates (the watchdog's edge state).
        self.violated: set[str] = set()
        self.metrics, self.tracer = metrics, tracer


class LiveTelemetry:
    """Streaming aggregation + watchdog + heartbeat + export, per slot block.

    Parameters
    ----------
    rules:
        SLO rule strings / :class:`~repro.obs.live.slo.SloRule` objects
        (see :mod:`repro.obs.live.slo` for the grammar).
    action:
        ``"warn"`` or ``"abort"`` — what a firing rule does.
    watch_every:
        Evaluate the watchdog (and consider exporting/heartbeating)
        every N slots.  Aggregators take every slot's value regardless.
    quantiles:
        P² sketches tracked per run channel.
    heartbeat:
        Optional :class:`~repro.obs.live.heartbeat.HeartbeatEmitter`
        (attached by the run executor inside worker processes).
    exporter:
        Optional :class:`~repro.obs.live.exporter.SnapshotExporter`
        for periodic file push.
    server:
        Optional :class:`~repro.obs.live.exporter.MetricsServer`; the
        plane only supplies its ``snapshot_fn`` — lifecycle belongs to
        the caller (the CLI).
    """

    def __init__(
        self,
        rules: tuple[str | SloRule, ...] = (),
        action: str = "warn",
        watch_every: int = 64,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
        heartbeat: HeartbeatEmitter | None = None,
        exporter: SnapshotExporter | None = None,
        server: MetricsServer | None = None,
    ):
        self.watchdog = SloWatchdog(rules, action=action) if rules else None
        self.watch_every = max(int(watch_every), 1)
        self.quantiles = tuple(quantiles)
        # Per-channel sketch sets: the default quantiles on the two
        # bound channels, plus whatever quantiles the SLO rules demand
        # on any run channel (a "p99(delivered_kb)" rule sketches p99
        # on delivered_kb; without a rule that channel carries none).
        self._channel_quantiles: dict[str, tuple[float, ...]] = {
            name: (self.quantiles if name in _SKETCHED_CHANNELS else ())
            for name in _RUN_CHANNELS
        }
        if self.watchdog is not None:
            for rule in self.watchdog.rules:
                if rule.channel in self._channel_quantiles and rule.agg.startswith(
                    "p"
                ) and rule.agg[1:].isdigit():
                    q = float(rule.agg[1:]) / 100.0
                    have = self._channel_quantiles[rule.channel]
                    if q not in have:
                        self._channel_quantiles[rule.channel] = have + (q,)
        self.heartbeat = heartbeat
        self.exporter = exporter
        self.server = server
        self.monitor: HeartbeatMonitor | None = None
        self.metrics = None
        self.slots_per_s = Ewma(halflife_s=3.0)
        self.total_slots = 0
        self.runs_started = 0
        self.runs_finished = 0
        self._last_tick = time.monotonic()
        #: The stream observed last (an empty one before any run).
        self.stream = RunStream(None, 0, self._channel_quantiles)

    # -- wiring -------------------------------------------------------

    def bind(self, metrics) -> None:
        """Attach the owning Instrumentation's registry (exported in
        snapshots, and read by rules over a registry name)."""
        self.metrics = metrics

    def attach_monitor(self, monitor: HeartbeatMonitor | None) -> None:
        """Give the plane a parent-side heartbeat monitor to report on."""
        self.monitor = monitor

    def spec(self) -> dict[str, Any]:
        """Picklable config for rebuilding a worker-side plane."""
        out: dict[str, Any] = {
            "watch_every": self.watch_every,
            "quantiles": self.quantiles,
        }
        if self.watchdog is not None:
            out.update(self.watchdog.spec())
        return out

    @classmethod
    def from_spec(
        cls, spec: dict[str, Any], heartbeat: HeartbeatEmitter | None = None
    ) -> "LiveTelemetry":
        return cls(
            rules=tuple(spec.get("rules", ())),
            action=spec.get("action", "warn"),
            watch_every=spec.get("watch_every", 64),
            quantiles=tuple(spec.get("quantiles", DEFAULT_QUANTILES)),
            heartbeat=heartbeat,
        )

    # -- engine hooks -------------------------------------------------

    def begin_run(
        self, scheduler: str, n_slots: int, n_users: int, metrics=None, tracer=None
    ) -> RunStream:
        """Engine entry: announce a run; returns its :class:`RunStream`.

        ``metrics`` and ``tracer`` receive the run's ``slo.*`` alerts
        (the engine passes the run's registry and trace log).  Fresh
        per-run aggregates and edge state keep alert counts identical
        however runs are grouped: serially through one plane, stacked
        in one slot loop, or fanned out to worker planes.
        """
        stream = RunStream(scheduler, n_slots, self._channel_quantiles, metrics, tracer)
        self.stream = stream
        self.runs_started += 1
        self._last_tick = time.monotonic()
        if self.heartbeat is not None:
            self.heartbeat.beat(
                "run.start", scheduler=scheduler, n_slots=n_slots, n_users=n_users
            )
        return stream

    def observe_block(
        self,
        stream: RunStream,
        slot: int,
        rebuffer_s,
        energy_mj,
        delivered_kb,
        mean_buffer_s,
        active_users: int = 0,
        outage_slots: int = 0,
    ) -> None:
        """A block of consecutive slots of one run, vectorized.

        The four array arguments hold one cell-aggregated value per
        slot; ``slot`` is the index of the block's last slot.  The
        whole block costs O(1) vectorized Python per channel plus the
        (sequential) P² sketch feeds — this is what keeps the live
        plane inside its <3% overhead budget.  One
        watchdog/heartbeat/export tick runs per block.
        """
        self.stream = stream
        stats = stream.stats
        stats["rebuffer_s"].add_array(rebuffer_s)
        stats["slot_energy_mj"].add_array(energy_mj)
        stats["delivered_kb"].add_array(delivered_kb)
        stats["buffer_s"].add_array(mean_buffer_s)
        stats["active_users"].add(float(active_users))
        stats["outage_slots"].add(float(outage_slots))
        n = len(rebuffer_s)
        self.total_slots += n
        stream.slots += n
        now = time.monotonic()
        dt = now - self._last_tick
        self._last_tick = now
        if dt > 0:
            self.slots_per_s.update(n / dt, dt)
        if self.heartbeat is not None and self.heartbeat.due(now):
            self.heartbeat.beat(
                "slots",
                scheduler=stream.name,
                slots_done=stream.slots,
                n_slots=stream.n_slots,
                slots_per_s=round(self.slots_per_s.value, 2),
                active_users=int(active_users),
                stats=self.run_stats(),
            )
        if self.watchdog is not None:
            self.watchdog.evaluate(self.resolve, stream, slot, stream.name)
        if self.exporter is not None:
            self.exporter.maybe_push(self.snapshot())

    def end_run(self, stream: RunStream) -> None:
        """Engine exit (clean): final watchdog pass + heartbeat/export."""
        self.stream = stream
        self.runs_finished += 1
        if self.watchdog is not None:
            self.watchdog.evaluate(self.resolve, stream, stream.slots - 1, stream.name)
        if self.heartbeat is not None:
            self.heartbeat.beat(
                "run.end",
                scheduler=stream.name,
                slots_done=stream.slots,
                n_slots=stream.n_slots,
                stats=self.run_stats(),
            )
        if self.exporter is not None:
            self.exporter.maybe_push(self.snapshot())

    def abort_run(self, error: str) -> None:
        """Engine exit (crashed): flush what we have, mark the abort."""
        if self.heartbeat is not None:
            self.heartbeat.beat(
                "run.abort", scheduler=self.stream.name, error=error,
                slots_done=self.stream.slots,
            )
        if self.exporter is not None:
            self.exporter.push(self.snapshot())

    # -- rule resolution ----------------------------------------------

    def resolve(self, agg: str, channel: str) -> float | None:
        """Resolver handed to the watchdog: the stream observed last,
        then the bundle's registry."""
        stat = self.stream.stats.get(channel)
        if stat is not None:
            if not stat.count:
                return None
            return stat.aggregate(agg)
        if channel == "slots_per_s":
            return self.slots_per_s.value if self.slots_per_s.initialized else None
        if channel == "worker_stall_s":
            if self.monitor is None:
                return None
            snap = self.monitor.snapshot()
            ages = [
                w.get("age_s", 0.0)
                for w in snap["workers"].values()
                if w.get("phase") not in ("run.end", "idle")
            ]
            return max(ages) if ages else 0.0
        if self.metrics is not None and channel in self.metrics:
            # Registry fallback: counters / numeric gauges by exact name.
            snap = self.metrics.snapshot()
            for section in ("counters", "gauges"):
                value = snap.get(section, {}).get(channel)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    return float(value)
        return None

    # -- views --------------------------------------------------------

    def run_stats(self) -> dict[str, dict[str, float]]:
        """Small per-run stats dict (rides inside heartbeats)."""
        return {name: stat.snapshot() for name, stat in self.stream.stats.items()}

    def snapshot(self) -> dict[str, Any]:
        """The full exportable view: registry + live + workers + alerts."""
        out: dict[str, Any] = (
            self.metrics.snapshot() if self.metrics is not None else {}
        )
        live: dict[str, Any] = self.run_stats()
        live["slots_per_s"] = (
            round(self.slots_per_s.value, 3) if self.slots_per_s.initialized else 0.0
        )
        out["live"] = live
        out["progress"] = {
            "runs_started": self.runs_started,
            "runs_finished": self.runs_finished,
            "total_slots": self.total_slots,
            "run_slots": self.stream.slots,
            "run_n_slots": self.stream.n_slots,
            "scheduler": self.stream.name,
        }
        if self.monitor is not None:
            out["executor"] = self.monitor.snapshot()
        if self.watchdog is not None:
            out["alerts"] = list(self.watchdog.alerts)
            out["n_alerts"] = self.watchdog.n_alerts
        return out

    def close(self) -> None:
        """Final export push (server/monitor lifecycles belong to callers)."""
        if self.exporter is not None:
            self.exporter.push(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover
        rules = len(self.watchdog) if self.watchdog is not None else 0
        return (
            f"<LiveTelemetry slots={self.total_slots} rules={rules} "
            f"heartbeat={self.heartbeat is not None} "
            f"exporter={self.exporter is not None}>"
        )
