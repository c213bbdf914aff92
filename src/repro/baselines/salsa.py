"""SALSA baseline (Ra et al. [17], "Energy-delay tradeoffs in
smartphone applications").

SALSA defers transmissions until an appropriate time using a
Lyapunov-style queue-vs-cost rule: data waits in a queue, and the
device transmits when the queue backlog outweighs the (signal-
dependent) energy price of sending now.  The paper's critique — which
our implementation deliberately preserves — is that SALSA "ignores the
significant energy waste during tail time": its decision rule prices
only *transmission* energy, so it happily toggles the radio on and off
across consecutive slots, paying a ramp of tail energy that its own
objective never sees.

Implementation: per-user demand queue ``Q_i`` (KB) fed at the encoding
rate ``p_i * tau`` per in-session slot and drained by deliveries.  User
``i`` transmits in slot ``n`` iff

    ``Q_i / p_i  >  v_salsa * P(sig_i) / P_ref``

i.e. the backlog (in seconds of media) exceeds an energy price
normalised by ``P_ref``, the per-KB cost at a strong reference signal.
At a good channel the threshold is ``~v_salsa`` seconds; at a weak
one it is many times that, so SALSA waits out bad channel episodes —
but the growing backlog eventually forces transmission anyway (the
"finite waiting queue").  When transmitting it sends the whole backlog
(capped by the link).  Larger ``v_salsa`` defers harder and saves more
transmission energy at the price of delay.
"""

from __future__ import annotations

import numpy as np

from repro.core.scheduler import ClipScheduler
from repro.errors import ConfigurationError
from repro.net.gateway import SlotObservation

__all__ = ["SalsaScheduler"]


class SalsaScheduler(ClipScheduler):
    """Queue-threshold deferral priced on transmission energy only."""

    name = "salsa"
    shared_params = ("v_salsa", "p_ref_mj_per_kb")

    def __init__(self, v_salsa: float = 2.0, p_ref_mj_per_kb: float = 0.198):
        if v_salsa <= 0:
            raise ConfigurationError("v_salsa must be positive")
        if p_ref_mj_per_kb <= 0:
            raise ConfigurationError("p_ref_mj_per_kb must be positive")
        self.v_salsa = float(v_salsa)
        # Default reference: the paper's fit at -50 dBm, P ~= 0.198 mJ/KB.
        self.p_ref_mj_per_kb = float(p_ref_mj_per_kb)
        self._queue_kb: np.ndarray | None = None

    def _ensure_state(self, n_users: int) -> np.ndarray:
        if self._queue_kb is None or self._queue_kb.shape != (n_users,):
            self._queue_kb = np.zeros(n_users, dtype=float)
        return self._queue_kb

    def want(self, obs: SlotObservation) -> np.ndarray:
        queue = self._ensure_state(obs.n_users)
        # Demand arrives at the encoding rate while the session runs.
        queue += np.where(obs.active, obs.rate_kbps * obs.tau_s, 0.0)
        np.minimum(queue, obs.sendable_kb, out=queue)

        backlog_s = queue / obs.rate_kbps
        price_s = self.v_salsa * obs.p_mj_per_kb / self.p_ref_mj_per_kb
        send = obs.active & (backlog_s > price_s) & (obs.link_units > 0)
        return np.where(send, np.ceil(queue / obs.delta_kb), 0.0)

    def notify(
        self, obs: SlotObservation, phi: np.ndarray, delivered_kb: np.ndarray
    ) -> None:
        if self._queue_kb is not None:
            self._queue_kb = np.maximum(
                self._queue_kb - np.asarray(delivered_kb, dtype=float), 0.0
            )

    def reset(self) -> None:
        self._queue_kb = None

    def grow_users(self, n_users: int) -> None:
        if self._queue_kb is None or self._queue_kb.shape == (n_users,):
            return
        fresh = np.zeros(n_users, dtype=float)
        keep = min(self._queue_kb.size, n_users)
        fresh[:keep] = self._queue_kb[:keep]
        self._queue_kb = fresh

    def release_users(self, rows) -> None:
        if self._queue_kb is not None:
            self._queue_kb[rows] = 0.0
