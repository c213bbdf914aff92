"""ON-OFF baseline (Hoque et al. [14]).

The production player protocol of YouTube/Dailymotion/Vimeo Android
clients: a persistent TCP connection from which the player simply
stops reading once its buffer is comfortable (OFF), resuming reads
when the buffer drains to a low threshold (ON).  The paper
characterizes it as "an algorithm that sets a low threshold of the
buffer" — lower rebuffering than Default, but blind to multi-user
competition, and its OFF periods burn tail energy.

Our implementation is the standard hysteresis pair: turn ON when the
client buffer falls below ``low_threshold_s``, transfer at full link
rate while ON, turn OFF once the buffer exceeds ``high_threshold_s``.
The BS grants ON users head-of-line, like every non-RTMA policy.
"""

from __future__ import annotations

import numpy as np

from repro.core.scheduler import ClipScheduler
from repro.errors import ConfigurationError
from repro.net.gateway import SlotObservation

__all__ = ["OnOffScheduler"]


class OnOffScheduler(ClipScheduler):
    """Buffer-threshold hysteresis with full-rate ON bursts.

    Parameters
    ----------
    low_threshold_s:
        Buffer level (seconds) below which a user turns ON.
    high_threshold_s:
        Buffer level at which an ON user turns OFF again.
    """

    name = "on-off"
    shared_params = ("low_threshold_s", "high_threshold_s")

    def __init__(self, low_threshold_s: float = 10.0, high_threshold_s: float = 40.0):
        if low_threshold_s <= 0:
            raise ConfigurationError("low_threshold_s must be positive")
        if high_threshold_s <= low_threshold_s:
            raise ConfigurationError("high threshold must exceed low threshold")
        self.low_threshold_s = float(low_threshold_s)
        self.high_threshold_s = float(high_threshold_s)
        self._on: np.ndarray | None = None

    def _ensure_state(self, n_users: int) -> np.ndarray:
        if self._on is None or self._on.shape != (n_users,):
            # Sessions start with empty buffers: everyone begins ON.
            self._on = np.ones(n_users, dtype=bool)
        return self._on

    def want(self, obs: SlotObservation) -> np.ndarray:
        on = self._ensure_state(obs.n_users)
        on |= obs.buffer_s < self.low_threshold_s
        on &= obs.buffer_s < self.high_threshold_s
        return np.where(
            on & obs.active,
            np.minimum(
                obs.link_units,
                np.ceil(obs.sendable_kb / obs.delta_kb),
            ),
            0,
        )

    def reset(self) -> None:
        self._on = None

    def grow_users(self, n_users: int) -> None:
        if self._on is None or self._on.shape == (n_users,):
            return
        fresh = np.ones(n_users, dtype=bool)
        keep = min(self._on.size, n_users)
        fresh[:keep] = self._on[:keep]
        self._on = fresh

    def release_users(self, rows) -> None:
        if self._on is not None:
            self._on[rows] = True  # recycled rows begin ON (empty buffer)
