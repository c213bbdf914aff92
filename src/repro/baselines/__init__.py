"""Reimplementations of the paper's comparison schedulers.

The paper evaluates RTMA against *Default*, *Throttling* [15] and
*ON-OFF* [14], and EMA against *Default*, *SALSA* [17] and
*EStreamer* [16].  None of those systems is open source; each is
rebuilt here from its published one-paragraph characterization in the
paper's Sections II and VI (see DESIGN.md for the substitution table).

All baselines are :class:`repro.core.scheduler.ClipScheduler` policies:
they observe the same :class:`~repro.net.gateway.SlotObservation`,
return only what each user *wants* this slot, and share one fit to
constraints (1)-(2), so comparisons isolate *policy*, not plumbing.
"""

from repro.baselines.default import DefaultScheduler, NeedRateScheduler
from repro.baselines.throttling import ThrottlingScheduler
from repro.baselines.onoff import OnOffScheduler
from repro.baselines.salsa import SalsaScheduler
from repro.baselines.estreamer import EStreamerScheduler

__all__ = [
    "DefaultScheduler",
    "NeedRateScheduler",
    "ThrottlingScheduler",
    "OnOffScheduler",
    "SalsaScheduler",
    "EStreamerScheduler",
]
