"""Throttling baseline (Hoque et al. [15]).

"Throttling delivers the video contents at a rate that is lower than
the bulk transfer capacity but higher than the encoding rate, which
ensures the continuous transmission of users" (paper Section VI-A).
Each slot, every active user is served at ``factor * p_i(n)`` —
continuously, every slot — so the radio never idles long enough to
demote and rebuffering stays low *until* the aggregate throttled
demand exceeds the BS capacity, at which point head-of-line truncation
makes rebuffering "increase dramatically" with user count (Fig. 5a).
"""

from __future__ import annotations

import numpy as np

from repro.core.scheduler import ClipScheduler
from repro.errors import ConfigurationError
from repro.net.gateway import SlotObservation

__all__ = ["ThrottlingScheduler"]


class ThrottlingScheduler(ClipScheduler):
    """Constant-factor over-provisioned continuous delivery.

    Parameters
    ----------
    factor:
        Multiple of the encoding rate to deliver (must exceed 1 so the
        client buffer grows; common CDN practice is 1.25x).
    """

    name = "throttling"
    shared_params = ("factor",)

    def __init__(self, factor: float = 1.25):
        if factor <= 1.0:
            raise ConfigurationError("throttling factor must exceed 1.0")
        self.factor = float(factor)

    def want(self, obs: SlotObservation) -> np.ndarray:
        target_kb = self.factor * obs.rate_kbps * obs.tau_s
        want_units = np.ceil(target_kb / obs.delta_kb)
        return np.minimum(want_units, np.ceil(obs.sendable_kb / obs.delta_kb))
