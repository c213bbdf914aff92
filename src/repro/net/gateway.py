"""The gateway framework of the paper's Fig. 1.

Three components sit between the Internet and the base station:

* :class:`InformationCollector` — assembles the cross-layer
  :class:`SlotObservation` (signal strength via the RAN, required rates,
  BS capacity via the slicer, client feedback);
* the pluggable *Scheduler* (see :mod:`repro.core.scheduler`) — decides
  the per-user data-unit allocation ``phi_i(n)``;
* :class:`DataTransmitter` — pushes the allocated shards to clients.

The paper's gateway also buffers origin bytes in a Data Receiver and
reads required rates from DPI middleboxes.  Under the paper's
assumptions both are identities: the gateway is never limited by the
origin server, so its queue always holds each session's remaining
bytes, and DPI reports each flow's true rate.  The collector therefore
reads ``p_i(n)`` straight from the fleet, and the transmitter offers
``phi_i(n) * delta`` to the fleet, which truncates it to the remaining
media and the receive window.

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

from repro.errors import SimulationError

__all__ = [
    "SlotObservation",
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
    the scalar ``unit_budget`` is the run total (one run's own budget
    when ``R = 1``).  A hand-built observation that omits the run
    fields is one segment built from the scalar.
    """

    slot: int
    tau_s: float
    delta_kb: float
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
    #: ``(R+1,)`` int64 row bounds of each run's segment.
    run_offsets: np.ndarray = None  # type: ignore[assignment]
    #: ``(R,)`` int64 per-run Eq. (2) budgets.
    run_unit_budgets: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.receivable_kb is None:
            object.__setattr__(
                self, "receivable_kb", np.full(self.sig_dbm.shape, np.inf)
            )
        if self.run_offsets is None:
            for name, value in (
                ("run_offsets", [0, self.n_users]),
                ("run_unit_budgets", [self.unit_budget]),
            ):
                object.__setattr__(self, name, np.array(value, dtype=np.int64))

    @classmethod
    def _of(cls, fields: dict) -> SlotObservation:
        """An observation of ``fields``, every field given and valid.

        Sets them directly, without ``__init__`` / ``__post_init__``:
        the per-slot constructor of a stack's block views
        (:mod:`repro.sim.batch`).
        """
        obs = object.__new__(cls)
        obs.__dict__.update(fields)
        return obs

    @property
    def n_users(self) -> int:
        return self.sig_dbm.shape[0]

    @property
    def sendable_kb(self) -> np.ndarray:
        """Useful bytes per user: min(remaining media, receiver window)."""
        return np.minimum(self.remaining_kb, self.receivable_kb)


class InformationCollector:
    """Builds the :class:`SlotObservation` from cross-layer sources."""

    def collect_fleet(
        self,
        slot: int,
        sig_row: np.ndarray,
        fleet,
        tau_s: float,
        delta_kb: float,
        link_row: np.ndarray,
        p_row: np.ndarray,
        idle_tail_cost_mj: np.ndarray,
        unit_budget: np.ndarray,
        run_offsets: np.ndarray,
        arena,
    ) -> SlotObservation:
        """The slot's observation over ``R`` run segments of ``fleet``.

        ``unit_budget`` holds the ``(R,)`` per-run Eq. (2) budgets, and
        ``run_offsets`` the ``(R+1,)`` segment bounds.  ``link_row`` /
        ``p_row`` are the slot's rows of the engine's precomputed
        Eq. (24) tables.  Every
        ``R``, one included, gets the same :class:`SlotObservation`
        type, carrying the per-run budgets and segment bounds.

        No per-user Python loops: client feedback comes straight from
        the fleet's state arrays and the required rates from its
        vectorized profile lookup.  The fleet-derived observation arrays
        are written into the :class:`~repro.kernels.arena.SlotArena`'s
        reused buffers — zero array allocations per slot — so the
        observation is only valid until the next ``collect_fleet`` call
        overwrites them.  ``buffer_s`` and ``rate_kbps`` need no copy
        because the fleet rebinds (never mutates) those arrays.
        """
        sig = np.asarray(sig_row, dtype=float)
        if sig.shape != (fleet.n_users,):
            raise SimulationError("inconsistent per-user array lengths")
        active = fleet.active_mask_into(slot, arena.active, arena.f8_tmp, arena.b1_tmp)
        remaining = fleet.remaining_into(arena.remaining_kb)
        receivable = fleet.receivable_into(slot, arena.receivable_kb, arena.b1_tmp)
        # The scalar budget is the run total (a lone run's own budget).
        return SlotObservation(
            slot=slot,
            tau_s=tau_s,
            delta_kb=delta_kb,
            unit_budget=int(unit_budget.sum()),
            sig_dbm=sig,
            rate_kbps=fleet.rates_for_slot(slot),
            link_units=link_row,
            p_mj_per_kb=p_row,
            active=active,
            buffer_s=fleet.buffer_occupancy_s,
            remaining_kb=remaining,
            idle_tail_cost_mj=np.asarray(idle_tail_cost_mj, dtype=float),
            receivable_kb=receivable,
            run_offsets=run_offsets,
            run_unit_budgets=unit_budget,
        )


class DataTransmitter:
    """Delivers allocated shards to clients."""

    def transmit_fleet(
        self,
        allocation_units: np.ndarray,
        obs: SlotObservation,
        fleet,
        arena,
        stall_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Send ``phi_i(n) * delta`` KB to each client of ``fleet``.

        Returns the KB actually accepted per user: the fleet truncates
        each shard to the session's remaining bytes and to the client's
        receive window.  ``stall_mask`` marks users whose delivery path
        is stalled this slot (fault injection): their offer is zeroed,
        so allocated frames go untransmitted.  The offer and accepted
        vectors live in the :class:`~repro.kernels.arena.SlotArena`'s
        reused buffers (the accepted vector stays valid for the rest of
        the slot — the engine copies it into its result grid).
        """
        phi = np.asarray(allocation_units)
        if phi.shape != (fleet.n_users,):
            raise SimulationError("allocation has wrong shape")
        if np.any(phi < 0):
            raise SimulationError("allocation must be non-negative")
        offer_kb = np.multiply(phi, obs.delta_kb, out=arena.want_kb)
        if stall_mask is not None:
            offer_kb[stall_mask] = 0.0
        return fleet.deliver(offer_kb, obs.slot, out=arena.accepted_kb)


class Gateway:
    """Fig. 1 assembled: collector + scheduler + transmitter."""

    def __init__(self, scheduler, tau_s: float, delta_kb: float):
        self.scheduler = scheduler
        self.tau_s = tau_s
        self.delta_kb = delta_kb
        self.collector = InformationCollector()
        self.transmitter = DataTransmitter()

    def step(
        self,
        slot: int,
        sig_row: np.ndarray,
        fleet,
        link_row: np.ndarray,
        p_row: np.ndarray,
        idle_tail_cost_mj: np.ndarray,
        unit_budget: np.ndarray,
        run_offsets: np.ndarray,
        arena,
        timers=None,
        stall_mask: np.ndarray | None = None,
    ) -> tuple[SlotObservation, np.ndarray, np.ndarray]:
        """Run one slot of the framework over ``R`` run segments.

        Returns ``(observation, allocation_units, delivered_kb)``.
        Client state comes from the :class:`~repro.media.fleet.ClientFleet`
        ``fleet``; observation arrays and transmit scratch are written
        into the :class:`~repro.kernels.arena.SlotArena` ``arena``; the
        remaining arguments are :meth:`InformationCollector.collect_fleet`'s.
        Delivery is row-elementwise, so one transmit covers every
        segment.

        ``timers`` is ``None`` or the ``(observe, schedule, transmit)``
        span adders of an instrumented run; each phase then records one
        span per call.  Allocation counters — scheduler invocations,
        budget near-misses, allocated-but-unaccepted bytes — are
        batch-derived by the engine from its recorded grids so the
        per-slot path stays within the instrumentation overhead budget.
        """
        t0 = perf_counter() if timers is not None else 0.0
        obs = self.collector.collect_fleet(
            slot,
            sig_row,
            fleet,
            self.tau_s,
            self.delta_kb,
            link_row,
            p_row,
            idle_tail_cost_mj,
            unit_budget,
            run_offsets,
            arena,
        )
        if timers is not None:
            rec_observe, rec_schedule, rec_transmit = timers
            t1 = perf_counter()
            rec_observe(t1 - t0)
        phi = np.asarray(self.scheduler.allocate(obs))
        if timers is not None:
            t2 = perf_counter()
            rec_schedule(t2 - t1)
        delivered_kb = self.transmitter.transmit_fleet(
            phi, obs, fleet, arena, stall_mask=stall_mask
        )
        if timers is not None:
            rec_transmit(perf_counter() - t2)
        return obs, phi, delivered_kb
