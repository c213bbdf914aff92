"""Session lifecycle bookkeeping for the engine's churn runs.

A churn run lives in *session space*, like every other run: row ``i``
of its fleet segment is offered session ``i`` for the whole run, and
result grids, trace payloads and summaries are keyed the same way.
Before its arrival slot a session's row is inactive, as a staggered
arrival is on the fixed-population path (``arrival_slot <= slot``).

:class:`SessionManager` holds one run's lifecycle: the
pending-arrival queue (sorted by ``(arrival_slot, user_id)``), the
admitted/rejected/completed masks and the resident count the
admission policy reads.  Each session event is one call —
:meth:`~SessionManager.admit`, :meth:`~SessionManager.reject` or
:meth:`~SessionManager.retire` — and a rejected or retired session's
fleet row goes inactive for good, so its grid cells read 0.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["SessionManager"]


class SessionManager:
    """One churn run's admissions, rejections and retirements.

    Parameters
    ----------
    flows:
        The run's flow list (fixes ``n_sessions``).
    fleet, rrc:
        The loop's :class:`~repro.media.fleet.ClientFleet` and
        :class:`~repro.radio.rrc.RRCFleet`.
    offset:
        The fleet row of the run's session 0.
    """

    def __init__(self, flows, fleet, rrc, offset: int = 0):
        self.flows = flows
        self.fleet = fleet
        self.rrc = rrc
        self.offset = int(offset)
        n = len(flows)
        self.admitted = np.zeros(n, dtype=bool)
        self.rejected = np.zeros(n, dtype=bool)
        self.completed = np.zeros(n, dtype=bool)
        #: Sessions admitted and not yet retired.
        self.active_count = 0
        self._pending = deque(
            sorted(range(n), key=lambda s: (flows[s].arrival_slot, flows[s].user_id))
        )

    def due_sessions(self, slot: int) -> list[int]:
        """Sessions whose arrival slot has come, in deterministic order."""
        due: list[int] = []
        while self._pending and self.flows[self._pending[0]].arrival_slot <= slot:
            due.append(self._pending.popleft())
        return due

    def admit(self, session: int) -> None:
        """Let ``session`` in: its row plays from its arrival slot."""
        self.admitted[session] = True
        self.active_count += 1

    def reject(self, session: int) -> None:
        """Turn ``session`` away: its row never becomes active."""
        self.rejected[session] = True
        self.fleet.clear_row(self.offset + session)

    def retire(self, session: int) -> None:
        """End a completed session: its row goes inactive and its RRC
        tail ends (retirement follows the completion slot's
        accounting)."""
        row = self.offset + session
        self.fleet.clear_row(row)
        self.rrc.reset_rows([row])
        self.completed[session] = True
        self.active_count -= 1
