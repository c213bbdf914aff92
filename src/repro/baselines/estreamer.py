"""EStreamer baseline (Hoque et al. [16], ACM TOMCCAP 2014).

EStreamer is a cross-layer proxy that reshapes a stream into *large
bursts* sized to the client's buffer capacity, shrinking the radio's
active time.  The paper's characterization: "EStreamer sets the burst
size according to the buffer size, so its rebuffering time is smaller"
but "it raises significant tail energy in the idle period between the
transmission bursts" and — the key contrast with EMA — it "does not
take the impact of signal strength into consideration": bursts fire on
a buffer schedule regardless of whether the channel is cheap or
expensive right now.

Implementation: when a user's buffer drops below ``refill_trigger_s``,
a burst begins and runs until the buffer (including in-flight media)
reaches ``buffer_capacity_s``; during a burst the user requests its
full link rate.  Between bursts the user requests nothing and the
radio rides its tail down.
"""

from __future__ import annotations

import numpy as np

from repro.core.scheduler import ClipScheduler
from repro.errors import ConfigurationError
from repro.net.gateway import SlotObservation

__all__ = ["EStreamerScheduler"]


class EStreamerScheduler(ClipScheduler):
    """Buffer-capacity-sized bursts, signal-agnostic.

    Parameters
    ----------
    buffer_capacity_s:
        Client buffer size in seconds of media; each burst refills to
        this level (the "burst size according to the buffer size").
    refill_trigger_s:
        Buffer level that triggers the next burst.
    """

    name = "estreamer"
    shared_params = ("buffer_capacity_s", "refill_trigger_s")

    def __init__(self, buffer_capacity_s: float = 60.0, refill_trigger_s: float = 8.0):
        if refill_trigger_s <= 0:
            raise ConfigurationError("refill_trigger_s must be positive")
        if buffer_capacity_s <= refill_trigger_s:
            raise ConfigurationError("buffer capacity must exceed the refill trigger")
        self.buffer_capacity_s = float(buffer_capacity_s)
        self.refill_trigger_s = float(refill_trigger_s)
        self._bursting: np.ndarray | None = None

    def _ensure_state(self, n_users: int) -> np.ndarray:
        if self._bursting is None or self._bursting.shape != (n_users,):
            # Empty buffers at session start: begin with a filling burst.
            self._bursting = np.ones(n_users, dtype=bool)
        return self._bursting

    def want(self, obs: SlotObservation) -> np.ndarray:
        bursting = self._ensure_state(obs.n_users)
        bursting |= obs.buffer_s < self.refill_trigger_s
        # A burst is complete once the buffer is within one slot of the
        # cap; chasing the asymptote would keep the radio on forever at
        # one frame per slot (defeating the whole burst design).
        bursting &= obs.buffer_s < self.buffer_capacity_s - obs.tau_s

        # Burst users request the media needed to top the buffer off,
        # at full link rate (signal-blind by design: the *decision* to
        # burst never looks at sig; Eq. (1) still caps the physics).
        deficit_kb = (self.buffer_capacity_s - obs.buffer_s) * obs.rate_kbps
        return np.where(
            bursting & obs.active,
            np.minimum(
                np.ceil(np.maximum(deficit_kb, 0.0) / obs.delta_kb),
                np.ceil(obs.sendable_kb / obs.delta_kb),
            ),
            0.0,
        )

    def reset(self) -> None:
        self._bursting = None
