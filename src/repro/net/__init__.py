"""Network substrate: base station, flows, slicing, gateway.

* :mod:`repro.net.basestation` — serving capacity models ``S(n)``
  (Eq. 2);
* :mod:`repro.net.flows` — video flow descriptors (user, session,
  arrival time);
* :mod:`repro.net.slicing` — resource slicing (CellSlice [26]) that
  separates video traffic from background downlink load;
* :mod:`repro.net.gateway` — the framework of Fig. 1:
  InformationCollector, Scheduler slot, DataTransmitter.  The paper's
  Data Receiver and DPI middlebox are identities under its assumptions
  (never origin-limited, exact rates), so the collector reads required
  rates from the client fleet.
"""

from repro.net.basestation import ConstantCapacity, TimeVaryingCapacity
from repro.net.flows import VideoFlow
from repro.net.slicing import ResourceSlicer, BackgroundTraffic
from repro.net.gateway import DataTransmitter, Gateway, InformationCollector, SlotObservation

__all__ = [
    "ConstantCapacity",
    "TimeVaryingCapacity",
    "VideoFlow",
    "ResourceSlicer",
    "BackgroundTraffic",
    "DataTransmitter",
    "Gateway",
    "InformationCollector",
    "SlotObservation",
]
