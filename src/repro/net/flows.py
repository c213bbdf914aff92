"""Video flow descriptors.

A :class:`VideoFlow` identifies one user's streaming session as seen at
the gateway: which user, which video, and when the session started.
Flows are the hand-off unit between the workload generator and the
simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.media.video import VideoSession

__all__ = ["VideoFlow"]


@dataclass
class VideoFlow:
    """One user's video session as a schedulable downlink flow.

    Attributes
    ----------
    user_id:
        Index of the user within the cell (0-based).
    video:
        The media session being delivered.
    arrival_slot:
        Slot at which the session starts (0 for the paper's synchronous
        workloads; staggered arrivals supported for robustness tests).
    """

    user_id: int
    video: VideoSession
    arrival_slot: int = 0

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise ConfigurationError("user_id must be non-negative")
        if self.arrival_slot < 0:
            raise ConfigurationError("arrival_slot must be non-negative")

    def active_at(self, slot: int) -> bool:
        """Whether the session has started by slot ``slot``."""
        return slot >= self.arrival_slot
