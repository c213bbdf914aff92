"""Base-station capacity models (Eq. 2).

The BS serves at most ``S(n)`` KB/s in slot ``n``; allocations are made
in physical-layer frames of ``delta_kb`` KB, so the per-slot unit
budget is ``floor(tau * S(n) / delta)`` (constraint 2) — the engine
builds it from these models and each run's resource slicer.  The paper uses
a constant 20 MB/s; :class:`TimeVaryingCapacity` supports diurnal or
trace-driven load for robustness experiments.
"""

from __future__ import annotations

import abc

import numpy as np

from repro import constants
from repro.errors import ConfigurationError

__all__ = [
    "CapacityModel",
    "ConstantCapacity",
    "TimeVaryingCapacity",
    "FaultyCapacity",
]


class CapacityModel(abc.ABC):
    """Serving capacity ``S(n)`` in KB/s."""

    @abc.abstractmethod
    def capacity_kbps(self, slot: int) -> float:
        """Capacity for slot ``slot``."""


class ConstantCapacity(CapacityModel):
    """Fixed ``S`` for every slot (the paper's configuration)."""

    def __init__(self, capacity_kbps: float = constants.BS_CAPACITY_KBPS):
        if capacity_kbps <= 0:
            raise ConfigurationError("capacity must be positive")
        self._cap = float(capacity_kbps)

    def capacity_kbps(self, slot: int) -> float:
        return self._cap


class TimeVaryingCapacity(CapacityModel):
    """Capacity replayed from a per-slot array (tiles past the end)."""

    def __init__(self, capacities_kbps):
        caps = np.asarray(capacities_kbps, dtype=float)
        if caps.ndim != 1 or caps.size == 0:
            raise ConfigurationError("capacities must be a non-empty 1-D array")
        if np.any(caps <= 0):
            raise ConfigurationError("all capacities must be positive")
        self._caps = caps

    def capacity_kbps(self, slot: int) -> float:
        if slot < 0:
            raise ConfigurationError("slot must be non-negative")
        return float(self._caps[slot % self._caps.size])


class FaultyCapacity(CapacityModel):
    """A capacity model with injected outage/degradation windows.

    Wraps any base model and multiplies each slot's capacity by the
    fault plan's per-slot factor (see
    :meth:`repro.faults.FaultPlan.capacity_factors`).  Full outages are
    floored at a tiny positive epsilon instead of literal zero: the
    resource slicer requires a positive raw capacity, and the floored
    value still discretises to a zero unit budget under constraint (2),
    so schedulers see an honest "no frames this slot" without any layer
    tripping over a zero division.  Slots past the factor array (the
    run horizon) are served at full capacity.
    """

    #: Floor for a fully-outaged slot, KB/s.  Small enough that
    #: ``floor(tau * S / delta)`` is 0 for every physical frame size.
    OUTAGE_FLOOR_KBPS = 1e-9

    def __init__(self, base: CapacityModel, factors_per_slot):
        factors = np.asarray(factors_per_slot, dtype=float)
        if factors.ndim != 1 or factors.size == 0:
            raise ConfigurationError("factors must be a non-empty 1-D array")
        if np.any((factors < 0) | (factors > 1)):
            raise ConfigurationError("capacity factors must be in [0, 1]")
        self.base = base
        self._factors = factors

    def capacity_kbps(self, slot: int) -> float:
        if slot < 0:
            raise ConfigurationError("slot must be non-negative")
        factor = self._factors[slot] if slot < self._factors.size else 1.0
        return max(self.base.capacity_kbps(slot) * factor, self.OUTAGE_FLOOR_KBPS)
