"""The gateway framework of the paper's Fig. 1.

Four components sit between the Internet and the base station:

* :class:`DataReceiver` — buffers downlink video bytes fetched from the
  origin servers (per-user queues, optional fetch-ahead limit);
* :class:`InformationCollector` — assembles the cross-layer
  :class:`SlotObservation` (signal strength via the RAN, required rates
  via DPI, BS capacity via the slicer, client feedback);
* the pluggable *Scheduler* (see :mod:`repro.core.scheduler`) — decides
  the per-user data-unit allocation ``phi_i(n)``;
* :class:`DataTransmitter` — pushes the allocated shards to clients,
  truncating to what the receiver queues actually hold.

Client state lives in a :class:`~repro.media.fleet.ClientFleet` and
every per-user observation/transmit vector in a
:class:`~repro.kernels.arena.SlotArena`.  :class:`Gateway` wires the
components together; the simulation engine's slot loop drives one
:meth:`Gateway.step` per slot over ``R >= 1`` run segments, handing it
the slot's precomputed Eq. (24) link/power rows and per-run Eq. (2)
budgets.  A lone run and a stack of runs observe the same
:class:`SlotObservation` type: ``R = 1`` is simply one segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.net.basestation import BaseStation
from repro.net.dpi import DPIInspector
from repro.net.flows import VideoFlow

__all__ = [
    "SlotObservation",
    "DataReceiver",
    "InformationCollector",
    "DataTransmitter",
    "Gateway",
]


@dataclass(frozen=True)
class SlotObservation:
    """Everything a scheduler may observe at the start of a slot.

    The slot loop (:func:`repro.sim.engine.run_segments`) stacks
    ``R >= 1`` runs as row segments: every per-user array covers all R
    runs, with run ``r`` owning rows ``run_offsets[r]:run_offsets[r+1]``.
    Inactive users (session not started, or fully delivered) are
    flagged in ``active``; well-behaved schedulers allocate them zero
    units.  Constraint (2) holds per run, through ``run_unit_budgets``;
    the scalar ``capacity_kbps`` / ``unit_budget`` are the run totals
    (one run's own values when ``R = 1``).  A hand-built observation
    that omits the run fields is one segment built from the scalars.
    """

    slot: int
    tau_s: float
    delta_kb: float
    #: Video-slice serving capacity S(n), KB/s.
    capacity_kbps: float
    #: Constraint (2) budget: floor(tau * S(n) / delta) units.
    unit_budget: int
    #: Per-user RSSI, dBm.
    sig_dbm: np.ndarray
    #: Observed required data rate p_i(n), KB/s.
    rate_kbps: np.ndarray
    #: Constraint (1) caps: floor(tau * v(sig_i) / delta) units.
    link_units: np.ndarray
    #: Per-KB reception energy P(sig_i), mJ/KB.
    p_mj_per_kb: np.ndarray
    #: Session started and still has bytes to receive.
    active: np.ndarray
    #: Client buffer occupancy r_i(n), seconds.
    buffer_s: np.ndarray
    #: Media bytes still to deliver, KB.
    remaining_kb: np.ndarray
    #: Tail energy the device pays if it idles this slot, mJ.
    idle_tail_cost_mj: np.ndarray
    #: Receiver window: bytes each client can accept this slot, KB
    #: (inf for uncapped buffers).
    receivable_kb: np.ndarray = None  # type: ignore[assignment]
    #: Rows whose session was admitted this slot (churn runs only;
    #: ``None`` when row space is session space).
    joined: np.ndarray | None = None
    #: Rows vacated since the previous slot (churn runs only; ``None``
    #: when row space is session space).
    departed: np.ndarray | None = None
    #: ``(R+1,)`` int64 row bounds of each run's segment.
    run_offsets: np.ndarray = None  # type: ignore[assignment]
    #: ``(R,)`` int64 per-run Eq. (2) budgets.
    run_unit_budgets: np.ndarray = None  # type: ignore[assignment]
    #: ``(R,)`` float per-run video-slice capacity S(n), KB/s.
    run_capacity_kbps: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.receivable_kb is None:
            object.__setattr__(
                self, "receivable_kb", np.full(self.sig_dbm.shape, np.inf)
            )
        if self.run_offsets is None:
            for name, value, dtype in (
                ("run_offsets", [0, self.n_users], np.int64),
                ("run_unit_budgets", [self.unit_budget], np.int64),
                ("run_capacity_kbps", [self.capacity_kbps], float),
            ):
                object.__setattr__(self, name, np.array(value, dtype=dtype))

    @property
    def n_users(self) -> int:
        return self.sig_dbm.shape[0]

    @property
    def sendable_kb(self) -> np.ndarray:
        """Useful bytes per user: min(remaining media, receiver window)."""
        return np.minimum(self.remaining_kb, self.receivable_kb)


class DataReceiver:
    """Per-user queues of video bytes fetched from origin servers.

    The origin is modelled as always able to refill the queue up to
    ``fetch_ahead_kb`` ahead of what has been transmitted (``inf``
    reproduces the paper, where the gateway is never origin-limited).
    """

    def __init__(self, n_users: int, fetch_ahead_kb: float = float("inf")):
        if n_users <= 0:
            raise ConfigurationError("n_users must be positive")
        if fetch_ahead_kb <= 0:
            raise ConfigurationError("fetch_ahead_kb must be positive")
        self.n_users = int(n_users)
        self.fetch_ahead_kb = float(fetch_ahead_kb)
        self.queued_kb = np.zeros(self.n_users, dtype=float)
        self.fetched_total_kb = np.zeros(self.n_users, dtype=float)

    def refill(self, remaining_kb: np.ndarray) -> None:
        """Fetch from origin up to the fetch-ahead limit.

        ``remaining_kb`` is each session's undelivered media; queues
        never hold more than that.
        """
        remaining = np.asarray(remaining_kb, dtype=float)
        if remaining.shape != (self.n_users,):
            raise ConfigurationError("remaining_kb has wrong shape")
        target = np.minimum(self.fetch_ahead_kb, remaining)
        fetch = np.maximum(target - self.queued_kb, 0.0)
        self.queued_kb += fetch
        self.fetched_total_kb += fetch

    def grow(self, new_n_users: int) -> None:
        """Resize to ``new_n_users`` queues, preserving existing ones."""
        old = self.n_users
        if new_n_users <= old:
            raise ConfigurationError("grow requires new_n_users > current n_users")
        queued = np.zeros(new_n_users, dtype=float)
        queued[:old] = self.queued_kb
        fetched = np.zeros(new_n_users, dtype=float)
        fetched[:old] = self.fetched_total_kb
        self.queued_kb = queued
        self.fetched_total_kb = fetched
        self.n_users = int(new_n_users)

    def reset_rows(self, rows) -> None:
        """Drop queue state for vacated/recycled rows."""
        self.queued_kb[rows] = 0.0
        self.fetched_total_kb[rows] = 0.0

    def drain(self, amounts_kb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Remove up to ``amounts_kb`` per user; returns what was taken."""
        req = np.asarray(amounts_kb, dtype=float)
        if req.shape != (self.n_users,):
            raise ConfigurationError("amounts_kb has wrong shape")
        if np.any(req < 0):
            raise ConfigurationError("drain amounts must be non-negative")
        if out is None:
            taken = np.minimum(req, self.queued_kb)
        else:
            taken = np.minimum(req, self.queued_kb, out=out)
        self.queued_kb -= taken
        return taken


class InformationCollector:
    """Builds the :class:`SlotObservation` from cross-layer sources."""

    def __init__(self, dpi: DPIInspector | None = None):
        self.dpi = dpi if dpi is not None else DPIInspector()

    def collect_fleet(
        self,
        slot: int,
        sig_row: np.ndarray,
        flows: list[VideoFlow],
        fleet,
        bs: BaseStation,
        link_row: np.ndarray,
        p_row: np.ndarray,
        idle_tail_cost_mj: np.ndarray,
        capacity_kbps: np.ndarray,
        unit_budget: np.ndarray,
        run_offsets: np.ndarray,
        arena,
        joined: np.ndarray | None = None,
        departed: np.ndarray | None = None,
    ) -> SlotObservation:
        """The slot's observation over ``R`` run segments of ``fleet``.

        ``capacity_kbps`` / ``unit_budget`` are the ``(R,)`` per-run
        video-slice capacities and Eq. (2) budgets, and ``run_offsets``
        the ``(R+1,)`` segment bounds.  ``link_row`` / ``p_row`` are the
        slot's rows of the engine's precomputed Eq. (24) tables.  Every
        ``R``, one included, gets the same :class:`SlotObservation`
        type, carrying the per-run budgets and segment bounds.

        No per-user Python loops: client feedback comes straight from
        the fleet's state arrays and the DPI rates from its vectorized
        profile lookup.  The fleet-derived observation arrays are
        written into the :class:`~repro.kernels.arena.SlotArena`'s
        reused buffers — zero array allocations per slot — so the
        observation is only valid until the next ``collect_fleet`` call
        overwrites them.  ``buffer_s`` needs no copy because the fleet
        rebinds (never mutates) its arrays.
        """
        n = fleet.n_users
        sig = np.asarray(sig_row, dtype=float)
        if len(flows) != n or sig.shape != (n,):
            raise SimulationError("inconsistent per-user array lengths")
        rates = self.dpi.observed_rates_kbps(flows, fleet.rates_for_slot(slot))
        active = fleet.active_mask_into(slot, arena.active, arena.f8_tmp, arena.b1_tmp)
        remaining = fleet.remaining_into(arena.remaining_kb)
        receivable = fleet.receivable_into(slot, arena.receivable_kb, arena.b1_tmp)
        # The scalar fields hold the run totals (a lone run's own values).
        return SlotObservation(
            slot=slot,
            tau_s=bs.tau_s,
            delta_kb=bs.delta_kb,
            capacity_kbps=float(capacity_kbps.sum()),
            unit_budget=int(unit_budget.sum()),
            sig_dbm=sig,
            rate_kbps=rates,
            link_units=link_row,
            p_mj_per_kb=p_row,
            active=active,
            buffer_s=fleet.buffer_occupancy_s,
            remaining_kb=remaining,
            idle_tail_cost_mj=np.asarray(idle_tail_cost_mj, dtype=float),
            receivable_kb=receivable,
            joined=joined,
            departed=departed,
            run_offsets=run_offsets,
            run_unit_budgets=unit_budget,
            run_capacity_kbps=capacity_kbps,
        )


class DataTransmitter:
    """Delivers allocated shards to clients, bounded by receiver queues."""

    def transmit_fleet(
        self,
        allocation_units: np.ndarray,
        obs: SlotObservation,
        receiver: DataReceiver,
        fleet,
        arena,
        stall_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Send ``phi_i(n) * delta`` KB to each client of ``fleet``.

        Returns the KB actually accepted per user (after receiver-queue
        and session-remaining truncation).  Only those bytes leave the
        gateway queue; the rest stays buffered (flow control, not
        loss).  ``stall_mask`` marks users whose delivery path is
        stalled this slot (fault injection): their offer is zeroed —
        allocated frames go untransmitted and the queued bytes stay
        buffered at the gateway.  The offer and accepted vectors live
        in the :class:`~repro.kernels.arena.SlotArena`'s reused buffers
        (the accepted vector stays valid for the rest of the slot — the
        engine copies it into its result grid).
        """
        phi = np.asarray(allocation_units)
        if phi.shape != (fleet.n_users,):
            raise SimulationError("allocation has wrong shape")
        if np.any(phi < 0):
            raise SimulationError("allocation must be non-negative")
        want_kb = np.multiply(phi, obs.delta_kb, out=arena.want_kb)
        offer_kb = np.minimum(want_kb, receiver.queued_kb, out=want_kb)
        if stall_mask is not None:
            offer_kb[stall_mask] = 0.0
        accepted = fleet.deliver(offer_kb, obs.slot, out=arena.accepted_kb)
        receiver.drain(accepted, out=arena.drained_kb)
        return accepted


class Gateway:
    """Fig. 1 assembled: receiver + collector + scheduler + transmitter."""

    def __init__(
        self,
        scheduler,
        bs: BaseStation,
        n_users: int,
        dpi: DPIInspector | None = None,
        fetch_ahead_kb: float = float("inf"),
    ):
        self.scheduler = scheduler
        self.bs = bs
        self.receiver = DataReceiver(n_users, fetch_ahead_kb)
        self.collector = InformationCollector(dpi)
        self.transmitter = DataTransmitter()
        # (instrumentation, observe/schedule/transmit sample appenders);
        # see _timers.
        self._obs_cache: tuple | None = None

    def step(
        self,
        slot: int,
        sig_row: np.ndarray,
        flows: list[VideoFlow],
        fleet,
        link_row: np.ndarray,
        p_row: np.ndarray,
        idle_tail_cost_mj: np.ndarray,
        capacity_kbps: np.ndarray,
        unit_budget: np.ndarray,
        run_offsets: np.ndarray,
        arena,
        instrumentation=None,
        joined_mask: np.ndarray | None = None,
        departed_mask: np.ndarray | None = None,
        stall_mask: np.ndarray | None = None,
    ) -> tuple[SlotObservation, np.ndarray, np.ndarray]:
        """Run one slot of the framework over ``R`` run segments.

        Returns ``(observation, allocation_units, delivered_kb)``.
        Client state comes from the :class:`~repro.media.fleet.ClientFleet`
        ``fleet``; observation arrays and transmit scratch are written
        into the :class:`~repro.kernels.arena.SlotArena` ``arena``; the
        remaining arguments are :meth:`InformationCollector.collect_fleet`'s.
        The delivery and receiver chains are row-elementwise, so one
        transmit covers every segment.

        With an :class:`~repro.obs.instrument.Instrumentation` bundle
        attached, the observe/schedule/transmit phases are timed
        separately (one span each per call).  Allocation
        counters — scheduler invocations, budget near-misses,
        allocated-but-unaccepted bytes — are batch-derived by the
        engine from its recorded grids so the per-slot path stays
        within the instrumentation overhead budget.
        """
        timers = self._timers(instrumentation)
        t0 = perf_counter() if timers is not None else 0.0
        obs = self.collector.collect_fleet(
            slot,
            sig_row,
            flows,
            fleet,
            self.bs,
            link_row,
            p_row,
            idle_tail_cost_mj,
            capacity_kbps,
            unit_budget,
            run_offsets,
            arena,
            joined=joined_mask,
            departed=departed_mask,
        )
        self.receiver.refill(obs.remaining_kb)
        if timers is not None:
            rec_observe, rec_schedule, rec_transmit = timers
            t1 = perf_counter()
            rec_observe(t1 - t0)
        phi = np.asarray(self.scheduler.allocate(obs))
        if timers is not None:
            t2 = perf_counter()
            rec_schedule(t2 - t1)
        delivered_kb = self.transmitter.transmit_fleet(
            phi, obs, self.receiver, fleet, arena, stall_mask=stall_mask
        )
        if timers is not None:
            rec_transmit(perf_counter() - t2)
        return obs, phi, delivered_kb

    def _timers(self, instrumentation):
        """The observe/schedule/transmit span adders, or ``None``.

        Resolved once per bundle — the engine steps once per slot and
        node lookups in that loop are measurable.  The adders record
        into the bundle's span tree under ``run > slots``.
        """
        if instrumentation is None:
            return None
        cache = self._obs_cache
        if cache is None or cache[0] is not instrumentation:
            spans = instrumentation.spans
            cache = self._obs_cache = (instrumentation,) + tuple(
                spans.adder(spans.slot_phase_id(ph))
                for ph in ("observe", "schedule", "transmit")
            )
        return cache[1:]
