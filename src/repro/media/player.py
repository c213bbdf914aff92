"""Streaming client: video session + playback buffer + progress tracking.

:class:`StreamingClient` is the per-user endpoint model (the engine
drives its vectorized twin, :class:`~repro.media.fleet.ClientFleet`).
Each slot proceeds in two phases:

1. :meth:`begin_slot` — applies the buffer recursion (Eq. 7) using the
   media delivered in the *previous* slot, computes this slot's
   rebuffering time (Eq. 8), and advances the elapsed playback clock
   ``m_i``;
2. :meth:`deliver` — records the data shard ``d_i(n)`` allocated for
   the current slot (usable from the next slot on, per Definition 1).

The client also exposes the feedback signals the baseline schedulers
consume (buffer occupancy for ON-OFF/EStreamer, remaining bytes for
everyone) and the ``needs_data`` / ``playback_complete`` masks the
engine uses to retire finished sessions.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError, SimulationError
from repro.media.buffer import PlaybackBuffer
from repro.media.video import VideoSession

__all__ = ["PlayerState", "StreamingClient"]

#: Tolerance for floating-point playback-time comparisons.
_EPS = 1e-9


class PlayerState(enum.Enum):
    """Coarse player lifecycle for inspection and tests."""

    STARTUP = "startup"  # nothing played yet
    PLAYING = "playing"
    REBUFFERING = "rebuffering"
    FINISHED = "finished"


class StreamingClient:
    """One user's streaming endpoint.

    Parameters
    ----------
    video:
        The session being streamed.
    tau_s:
        Slot length, seconds.
    buffer_capacity_s:
        Optional client buffer cap (seconds of playback).
    """

    def __init__(
        self,
        video: VideoSession,
        tau_s: float,
        buffer_capacity_s: float | None = None,
    ):
        if tau_s <= 0:
            raise ConfigurationError("tau_s must be positive")
        self.video = video
        self.tau_s = float(tau_s)
        self.buffer = PlaybackBuffer(tau_s, buffer_capacity_s)
        #: Total media bytes received so far (KB).
        self.delivered_kb: float = 0.0
        #: Total playback duration of received media (sum of t_i(n), s).
        self.delivered_playback_s: float = 0.0
        #: Elapsed playback time m_i (s).
        self.elapsed_playback_s: float = 0.0
        #: Cumulative rebuffering time (s).
        self.total_rebuffering_s: float = 0.0
        #: Playback duration delivered in the current slot (pending t(n)).
        self._pending_playback_s: float = 0.0
        self._last_slot_rebuffering: float = 0.0
        self._state = PlayerState.STARTUP

    # -- progress predicates ------------------------------------------------

    @property
    def fully_delivered(self) -> bool:
        """All ``size_kb`` media bytes have been received."""
        return self.delivered_kb >= self.video.size_kb - _EPS

    @property
    def playback_complete(self) -> bool:
        """The user has watched the entire video (``m_i >= M_i``)."""
        return (
            self.fully_delivered
            and self.elapsed_playback_s >= self.delivered_playback_s - _EPS
        )

    @property
    def needs_data(self) -> bool:
        """The gateway still has bytes to push to this user."""
        return not self.fully_delivered

    @property
    def remaining_kb(self) -> float:
        """Media bytes not yet delivered (KB)."""
        return max(self.video.size_kb - self.delivered_kb, 0.0)

    @property
    def buffer_occupancy_s(self) -> float:
        """Current remaining occupancy ``r_i(n)`` in seconds."""
        return self.buffer.occupancy_s

    def receivable_kb(self, slot: int) -> float:
        """Receiver-window: media bytes the client can accept this slot.

        With a finite buffer the client advertises how much more media
        fits: the cap minus what will still occupy the buffer at the
        next slot boundary (current occupancy less one slot of
        playback, plus media already delivered this slot).  Infinite
        for uncapped buffers (the paper's implicit setting).
        """
        if self.buffer.capacity_s is None:
            return float("inf")
        carried = max(self.buffer.occupancy_s - self.tau_s, 0.0)
        headroom_s = self.buffer.capacity_s - carried - self._pending_playback_s
        if headroom_s <= 0.0:
            return 0.0
        return headroom_s * self.video.rate_kbps(slot)

    @property
    def state(self) -> PlayerState:
        return self._state

    # -- per-slot protocol ---------------------------------------------------

    def begin_slot(self, slot: int) -> tuple[float, float]:
        """Start slot ``slot``: apply Eqs. (7)-(8) and play.

        Returns
        -------
        ``(rebuffering_s, played_s)`` for this slot.
        """
        if slot < 0:
            raise ConfigurationError("slot must be non-negative")
        self.buffer.advance(self._pending_playback_s)
        self._pending_playback_s = 0.0

        if self.playback_complete:
            self._state = PlayerState.FINISHED
            self._last_slot_rebuffering = 0.0
            return 0.0, 0.0

        rebuf = self.buffer.rebuffering_s(playback_active=True)
        played = self.tau_s - rebuf
        # Do not play past the end of the received (== total) media.
        media_left = self.delivered_playback_s - self.elapsed_playback_s
        if played > media_left:
            played = max(media_left, 0.0)
            if self.fully_delivered:
                # Stalling past the end of the video is not rebuffering.
                rebuf = 0.0
        self.elapsed_playback_s += played
        self.total_rebuffering_s += rebuf
        self._last_slot_rebuffering = rebuf

        if self.playback_complete:
            self._state = PlayerState.FINISHED
        elif rebuf > 0:
            self._state = (
                PlayerState.STARTUP
                if self.elapsed_playback_s <= _EPS
                else PlayerState.REBUFFERING
            )
        else:
            self._state = PlayerState.PLAYING
        return rebuf, played

    def deliver(self, data_kb: float, slot: int) -> float:
        """Record a data shard for the current slot.

        The shard is truncated to the session's remaining bytes and to
        the receiver window (finite buffers refuse media they cannot
        hold — TCP flow control, not data loss); the *accepted* amount
        (KB) is returned so the engine can account transmission energy
        for what was actually sent.
        """
        if data_kb < 0:
            raise ConfigurationError("data_kb must be non-negative")
        accepted = min(data_kb, self.remaining_kb, self.receivable_kb(slot))
        if accepted <= 0.0:
            return 0.0
        rate = self.video.rate_kbps(slot)
        if rate <= 0:
            raise SimulationError(f"non-positive bitrate at slot {slot}")
        self.delivered_kb += accepted
        duration = accepted / rate
        self.delivered_playback_s += duration
        self._pending_playback_s += duration
        return accepted

    @property
    def last_slot_rebuffering_s(self) -> float:
        """Rebuffering time ``c_i(n)`` of the most recent slot."""
        return self._last_slot_rebuffering
