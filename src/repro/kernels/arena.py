"""Engine-owned scratch arena for the allocation-free slot pipeline.

One :class:`SlotArena` per run (or per run-stacked batch) preallocates
every per-row buffer the steady-state slot loop needs, so
:meth:`repro.net.gateway.InformationCollector.collect_fleet` and
:meth:`repro.net.gateway.DataTransmitter.transmit_fleet` assemble each
slot's :class:`~repro.net.gateway.SlotObservation` and delivery by
*writing into* reused arrays instead of allocating ~a dozen fresh ones
per slot.

Lifetime contract: every buffer is valid only within the slot that
filled it — the next ``collect_fleet`` overwrites it.  The engine
copies whatever outlives the slot (result grids, trace payloads) before
the next iteration, and schedulers consume their observation within the
same slot by construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SlotArena"]


class SlotArena:
    """Reused per-user buffers for one simulation run.

    Attributes double as the backing stores of each slot's
    ``SlotObservation`` (``active``, ``remaining_kb``,
    ``receivable_kb``, ``idle_tail_cost_mj``) plus the transmit-path
    scratch (the ``want_kb`` offer, ``accepted_kb``, ``tx_mask``) and
    two generic temporaries (``f8_tmp``, ``b1_tmp``) for intermediate
    ufunc chains.
    """

    def __init__(self, n_users: int):
        if n_users <= 0:
            raise ConfigurationError("n_users must be positive")
        self.n_users = n = int(n_users)
        self.active = np.empty(n, dtype=bool)
        self.remaining_kb = np.empty(n, dtype=float)
        self.receivable_kb = np.empty(n, dtype=float)
        self.idle_tail_cost_mj = np.empty(n, dtype=float)
        self.want_kb = np.empty(n, dtype=float)
        self.accepted_kb = np.empty(n, dtype=float)
        self.tx_mask = np.empty(n, dtype=bool)
        self.f8_tmp = np.empty(n, dtype=float)
        self.b1_tmp = np.empty(n, dtype=bool)
