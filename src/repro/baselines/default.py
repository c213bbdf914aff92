"""The paper's *default* streaming baseline.

Section VI: "a default streaming system ... that delivers video
contents to each user as much as possible to make full use of
throughput and satisfy the required data rate."  Implementation:
every active user requests its full Eq. (1) link capacity (bounded by
its client's receiver window), and the BS grants requests head-of-line
(ascending user index) until the capacity budget runs out.

Under a realistic finite client buffer (the evaluation configuration
uses 60 s; see ``repro.experiments.common.paper_config``) this greedy
policy reproduces the paper's default-strategy signature exactly:

* only the head of the queue transmits each slot while everyone else
  idles in RRC tail states — the large tail-energy bars of Fig. 5b;
* sessions span the whole video duration (the buffer cap prevents the
  front of the queue from simply downloading everything up front);
* per-slot fairness collapses (Fig. 2: below 0.2 for ~half the slots)
  because a handful of users hold the BS at any instant;
* rebuffering is bimodal (Fig. 3: 57% of users near zero, >20% above
  11 s): early-index users always win the head-of-line race, the
  back of the queue starves whenever VBR demand spikes bind capacity.

With an *unbounded* buffer the same policy instead bulk-downloads in
index order and becomes accidentally energy-cheap (bytes concentrate
in good-signal slots via the link cap); that regime remains available
simply by leaving ``buffer_capacity_s`` unset.

:class:`NeedRateScheduler` keeps the alternative minimal reading —
serve exactly the required data rate, head-of-line — as an extra
baseline and ablation point.

The default's measured energy/rebuffering serve as the reference
points ``E_default`` / ``R_default`` from which the paper sets RTMA's
budget ``Phi = alpha * E_default`` and EMA's bound
``Omega = beta * R_default``.
"""

from __future__ import annotations

import numpy as np

from repro.core.scheduler import ClipScheduler
from repro.errors import ConfigurationError
from repro.net.gateway import SlotObservation

__all__ = ["DefaultScheduler", "NeedRateScheduler"]


class DefaultScheduler(ClipScheduler):
    """Greedy full-rate delivery in user-index order.

    Clients re-request whenever their buffer dips below
    ``refill_trigger_s`` and pull at the full link rate until it is
    full again (``refill_high_s``) — the behaviour of production
    progressive-download players behind an unmanaged gateway.  With an
    *unbounded* client buffer the hysteresis never disengages and this
    degenerates to pure bulk download in index order.
    """

    name = "default"
    shared_params = ("refill_trigger_s", "refill_high_s")

    def __init__(self, refill_trigger_s: float = 20.0, refill_high_s: float = 55.0):
        if refill_trigger_s <= 0 or refill_high_s <= refill_trigger_s:
            raise ConfigurationError(
                "need 0 < refill_trigger_s < refill_high_s"
            )
        self.refill_trigger_s = float(refill_trigger_s)
        self.refill_high_s = float(refill_high_s)
        self._refilling: np.ndarray | None = None

    def _ensure_state(self, n_users: int) -> np.ndarray:
        if self._refilling is None or self._refilling.shape != (n_users,):
            self._refilling = np.ones(n_users, dtype=bool)  # empty buffers
        return self._refilling

    def want(self, obs: SlotObservation) -> np.ndarray:
        refilling = self._ensure_state(obs.n_users)
        refilling |= obs.buffer_s < self.refill_trigger_s
        refilling &= obs.buffer_s < self.refill_high_s
        useful_units = np.ceil(obs.sendable_kb / obs.delta_kb)
        return np.where(
            refilling & obs.active, np.minimum(obs.link_units, useful_units), 0.0
        )

    def reset(self) -> None:
        self._refilling = None

    def grow_users(self, n_users: int) -> None:
        if self._refilling is None or self._refilling.shape == (n_users,):
            return
        fresh = np.ones(n_users, dtype=bool)
        keep = min(self._refilling.size, n_users)
        fresh[:keep] = self._refilling[:keep]
        self._refilling = fresh

    def release_users(self, rows) -> None:
        if self._refilling is not None:
            self._refilling[rows] = True  # recycled rows start refilling


class NeedRateScheduler(ClipScheduler):
    """Required-rate delivery, head-of-line under contention.

    Serves each user exactly ``ceil(tau * p_i / delta)`` units per slot
    (the shard sustaining real-time playback) — continuous, signal-blind
    delivery with no prefetching.
    """

    name = "need-rate"
    shared_params = ()

    def want(self, obs: SlotObservation) -> np.ndarray:
        need_units = np.ceil(obs.tau_s * obs.rate_kbps / obs.delta_kb)
        useful_units = np.ceil(obs.sendable_kb / obs.delta_kb)
        return np.minimum(need_units, useful_units)
