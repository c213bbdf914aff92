"""Session lifecycle bookkeeping for the engine's churn runs.

:class:`SessionManager` separates two index spaces:

* **session space** — the workload's ``n_users`` offered sessions,
  immutable and seed-determined.  Result grids, trace payloads, and
  summaries stay keyed by session so analysis code is population-blind.
* **row space** — the growable SoA capacity shared by
  :class:`~repro.media.fleet.ClientFleet`,
  :class:`~repro.radio.rrc.RRCFleet`,
  :class:`~repro.kernels.arena.SlotArena`, and the scheduler's
  per-user state.  Rows are recycled lowest-index-first (a heap), so
  the mapping — and therefore the whole run — is deterministic.

The manager owns the ``session <-> row`` maps, the free-row heap, the
pending-arrival queue (sorted by ``(arrival_slot, user_id)``), and the
``joined_mask`` / ``departed_mask`` row masks the gateway observes.
Capacity doubles on demand; every structure above grows in lockstep so
kernel backends stay allocation-free once the population stops
growing.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

__all__ = ["SessionManager"]

#: Rows a churn run starts with; doubles on demand.
INITIAL_CAPACITY = 4


class SessionManager:
    """Coordinate admissions, retirements, and capacity growth.

    Parameters
    ----------
    flows:
        The workload's session-space flow list (fixes ``n_sessions``).
    fleet, rrc, arena, scheduler:
        The row-space structures grown/recycled in lockstep.
    """

    def __init__(self, flows, fleet, rrc, arena, scheduler):
        self.flows = flows
        self.n_sessions = len(flows)
        self.fleet = fleet
        self.rrc = rrc
        self.arena = arena
        self.scheduler = scheduler

        cap = fleet.n_users
        self.capacity = cap
        self.row_session = np.full(cap, -1, dtype=np.int64)
        self.session_row = np.full(self.n_sessions, -1, dtype=np.int64)
        self._free = list(range(cap))
        heapq.heapify(self._free)
        self.admitted = np.zeros(self.n_sessions, dtype=bool)
        self.rejected = np.zeros(self.n_sessions, dtype=bool)
        self.completed = np.zeros(self.n_sessions, dtype=bool)
        self.joined_mask = np.zeros(cap, dtype=bool)
        self.departed_mask = np.zeros(cap, dtype=bool)
        self._departed_next: list[int] = []
        self._pending = deque(
            sorted(
                range(self.n_sessions),
                key=lambda s: (flows[s].arrival_slot, flows[s].user_id),
            )
        )

    # -- per-slot protocol ----------------------------------------------------

    @property
    def active_count(self) -> int:
        """Sessions currently resident in the cell."""
        return self.capacity - len(self._free)

    def begin_slot(self) -> None:
        """Roll the join/depart masks over to a new slot."""
        self.joined_mask[:] = False
        self.departed_mask[:] = False
        for row in self._departed_next:
            if row < self.capacity:
                self.departed_mask[row] = True
        self._departed_next.clear()

    def due_sessions(self, slot: int) -> list[int]:
        """Sessions whose arrival slot has come, in deterministic order."""
        due: list[int] = []
        while self._pending and self.flows[self._pending[0]].arrival_slot <= slot:
            due.append(self._pending.popleft())
        return due

    def occupied_rows(self) -> np.ndarray:
        """Row indices currently bound to a session (ascending)."""
        return np.flatnonzero(self.row_session >= 0)

    # -- lifecycle transitions ------------------------------------------------

    def admit(self, session: int) -> int:
        """Grant ``session`` a row (growing capacity if needed)."""
        if not self._free:
            self.grow(self.capacity * 2)
        row = heapq.heappop(self._free)
        flow = self.flows[session]
        self.fleet.load_row(row, flow)
        self.rrc.reset_rows([row])
        self.row_session[row] = session
        self.session_row[session] = row
        self.admitted[session] = True
        self.joined_mask[row] = True
        return row

    def reject(self, session: int) -> None:
        self.rejected[session] = True

    def retire(self, session: int) -> int:
        """Free a completed session's row; ends its RRC tail.

        The vacated row is reported in the *next* slot's
        ``departed_mask`` (the retirement happens at the end of the
        completion slot, after that slot's accounting).
        """
        row = int(self.session_row[session])
        self.fleet.clear_row(row)
        self.rrc.reset_rows([row])
        self.scheduler.release_users(np.array([row], dtype=np.intp))
        self.row_session[row] = -1
        self.session_row[session] = -1
        self.completed[session] = True
        heapq.heappush(self._free, row)
        self._departed_next.append(row)
        return row

    def grow(self, new_capacity: int) -> None:
        """Double (or otherwise raise) the row capacity in lockstep."""
        old = self.capacity
        if new_capacity <= old:
            raise ValueError("grow requires new_capacity > current capacity")
        self.fleet.grow(new_capacity)
        self.rrc.grow(new_capacity)
        self.arena.grow(new_capacity)
        self.scheduler.grow_users(new_capacity)
        row_session = np.full(new_capacity, -1, dtype=np.int64)
        row_session[:old] = self.row_session
        self.row_session = row_session
        joined = np.zeros(new_capacity, dtype=bool)
        joined[:old] = self.joined_mask
        self.joined_mask = joined
        departed = np.zeros(new_capacity, dtype=bool)
        departed[:old] = self.departed_mask
        self.departed_mask = departed
        for row in range(old, new_capacity):
            heapq.heappush(self._free, row)
        self.capacity = new_capacity
