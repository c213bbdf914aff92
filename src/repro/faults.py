"""Deterministic, seeded fault injection across the radio/net/executor
layers.

The paper's Section VI evaluation assumes an always-healthy cell:
continuous RSSI traces, constant BS capacity, every slot delivered.
Real cellular gateways see deep fades, capacity outages, and stalled
flows — and related schedulers (Shuman et al.'s underflow-constrained
transmission, Abou-zeid et al.'s predictive video transmission) are
designed explicitly around such outage periods.  This module provides
the chaos layer that turns the simulator into a testbed for those
degraded-network scenarios:

* :class:`SignalBlackout` — a deep-fade window forcing selected users'
  RSSI to a fixed level (default: the trace floor, where the linear
  throughput fit yields zero link units);
* :class:`CapacityFault` — a BS capacity outage (``factor=0``) or
  degradation (``0 < factor < 1``) window, applied through
  :class:`repro.net.basestation.FaultyCapacity`;
* :class:`FlowStall` — a delivery-path stall: the gateway's Data
  Transmitter ships nothing to the affected users for the window
  (flow control, not loss — queued bytes stay buffered);
* :class:`WorkerFault` — an executor-level fault (worker crash, task
  exception, or delay) used to exercise :class:`repro.sim.executor.
  RunExecutor`'s retry/timeout/serial-fallback machinery;
* :class:`FaultPlan` — the composable, picklable bundle of the above
  that rides :class:`repro.sim.config.SimConfig` (``cfg.faults``) or is
  installed ambiently with :func:`use_fault_plan`
  (``repro-experiments --faults``).

Determinism contract
--------------------
``FaultPlan.random`` draws its windows from an **own** RNG stream
(``numpy.random.default_rng(seed)``), never from the workload RNG, and
the engine applies signal faults to a *copy* of the generated trace —
so ``faults=None`` stays bit-identical to the seed behaviour, and a
given plan injects the same windows on every replay.  Injection itself
is deterministic: the same plan over the same workload produces
byte-identical result grids run over run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro import constants
from repro.errors import ConfigurationError

__all__ = [
    "SignalBlackout",
    "CapacityFault",
    "FlowStall",
    "WorkerFault",
    "FaultPlan",
    "use_fault_plan",
    "current_fault_plan",
]

#: Kinds a :class:`WorkerFault` can inject in a pool worker.
WORKER_FAULT_KINDS = ("crash", "raise", "delay")


def _window_fields(start_slot: int, n_slots: int) -> None:
    if int(start_slot) < 0:
        raise ConfigurationError("fault start_slot must be >= 0")
    if int(n_slots) <= 0:
        raise ConfigurationError("fault n_slots must be positive")


@dataclass(frozen=True)
class SignalBlackout:
    """A deep-fade window: affected users' RSSI pinned to ``level_dbm``.

    ``users=None`` blacks out the whole cell.  The default level is the
    paper's trace floor (-110 dBm), where the EnVi throughput fit
    yields zero link units — a true radio outage under constraint (1).
    """

    start_slot: int
    n_slots: int
    users: tuple[int, ...] | None = None
    level_dbm: float = constants.SIGNAL_MIN_DBM

    def __post_init__(self) -> None:
        _window_fields(self.start_slot, self.n_slots)
        if self.users is not None:
            object.__setattr__(self, "users", tuple(int(u) for u in self.users))
            if any(u < 0 for u in self.users):
                raise ConfigurationError("blackout users must be >= 0")


@dataclass(frozen=True)
class CapacityFault:
    """A BS capacity window: ``factor=0`` is a full outage, ``0 <
    factor < 1`` a degradation.  Overlapping windows compose by taking
    the minimum factor."""

    start_slot: int
    n_slots: int
    factor: float = 0.0

    def __post_init__(self) -> None:
        _window_fields(self.start_slot, self.n_slots)
        if not 0.0 <= float(self.factor) < 1.0:
            raise ConfigurationError("capacity fault factor must be in [0, 1)")


@dataclass(frozen=True)
class FlowStall:
    """A per-flow delivery stall: the gateway transmits nothing to the
    listed users for the window (their queued bytes stay buffered)."""

    start_slot: int
    n_slots: int
    users: tuple[int, ...]

    def __post_init__(self) -> None:
        _window_fields(self.start_slot, self.n_slots)
        object.__setattr__(self, "users", tuple(int(u) for u in self.users))
        if not self.users:
            raise ConfigurationError("flow stall needs at least one user")
        if any(u < 0 for u in self.users):
            raise ConfigurationError("stall users must be >= 0")


@dataclass(frozen=True)
class WorkerFault:
    """An executor-level fault, triggered in the pool worker that picks
    up task ``task_index`` — the index of a task group, which is the
    task itself under ``RunExecutor(batch_size=1)``.

    kind:
        ``"crash"`` hard-kills the worker process (``os._exit``) —
        breaks the pool, exercising partial-result recovery and the
        serial fallback; ``"raise"`` raises a ``RuntimeError`` from the
        task — exercises the bounded in-pool retry; ``"delay"`` sleeps
        ``delay_s`` before running — exercises the per-task timeout.
    times:
        How many attempts of the task trigger the fault.  The executor
        threads a parent-tracked attempt number through every submit,
        so the fault fires while ``attempt < times`` and disarms after
        that *regardless of which worker process picks the retry up* —
        ``times=1`` means "first attempt fails, in-pool retry
        succeeds", deterministically.
    """

    kind: str
    task_index: int
    delay_s: float = 0.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ConfigurationError(
                f"worker fault kind must be one of {WORKER_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if int(self.task_index) < 0:
            raise ConfigurationError("worker fault task_index must be >= 0")
        if float(self.delay_s) < 0:
            raise ConfigurationError("worker fault delay_s must be >= 0")
        if int(self.times) <= 0:
            raise ConfigurationError("worker fault times must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """Composable fault windows for one run (picklable, hashable into
    :func:`repro.obs.provenance.config_hash` like any config field)."""

    signal: tuple[SignalBlackout, ...] = ()
    capacity: tuple[CapacityFault, ...] = ()
    stalls: tuple[FlowStall, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "signal", tuple(self.signal))
        object.__setattr__(self, "capacity", tuple(self.capacity))
        object.__setattr__(self, "stalls", tuple(self.stalls))

    # -- construction --------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        n_slots: int,
        n_users: int,
        n_signal: int = 1,
        n_capacity: int = 1,
        n_stalls: int = 1,
        max_window_slots: int | None = None,
    ) -> "FaultPlan":
        """Draw a plan from an own RNG stream (never the workload's)."""
        if n_slots <= 0 or n_users <= 0:
            raise ConfigurationError("n_slots and n_users must be positive")
        rng = np.random.default_rng(seed)
        max_len = max_window_slots if max_window_slots is not None else max(
            n_slots // 10, 1
        )

        def window() -> tuple[int, int]:
            length = int(rng.integers(1, max_len + 1))
            start = int(rng.integers(0, max(n_slots - length, 0) + 1))
            return start, length

        signal = []
        for _ in range(n_signal):
            start, length = window()
            k = int(rng.integers(1, n_users + 1))
            users = tuple(
                int(u) for u in np.sort(rng.choice(n_users, size=k, replace=False))
            )
            signal.append(SignalBlackout(start, length, users=users))
        capacity = []
        for _ in range(n_capacity):
            start, length = window()
            factor = float(rng.choice([0.0, 0.25, 0.5]))
            capacity.append(CapacityFault(start, length, factor=factor))
        stalls = []
        for _ in range(n_stalls):
            start, length = window()
            k = int(rng.integers(1, n_users + 1))
            users = tuple(
                int(u) for u in np.sort(rng.choice(n_users, size=k, replace=False))
            )
            stalls.append(FlowStall(start, length, users=users))
        return cls(signal=tuple(signal), capacity=tuple(capacity), stalls=tuple(stalls))

    def spec(self) -> dict[str, Any]:
        """JSON-able round-trippable representation (trace payloads,
        ``--faults`` files, worker shipping)."""
        return {
            "signal": [
                {
                    "start_slot": w.start_slot,
                    "n_slots": w.n_slots,
                    "users": list(w.users) if w.users is not None else None,
                    "level_dbm": w.level_dbm,
                }
                for w in self.signal
            ],
            "capacity": [
                {"start_slot": w.start_slot, "n_slots": w.n_slots, "factor": w.factor}
                for w in self.capacity
            ],
            "stalls": [
                {
                    "start_slot": w.start_slot,
                    "n_slots": w.n_slots,
                    "users": list(w.users),
                }
                for w in self.stalls
            ],
        }

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "FaultPlan":
        unknown = set(spec) - {"signal", "capacity", "stalls"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan spec keys: {sorted(unknown)}"
            )
        signal = tuple(
            SignalBlackout(
                start_slot=int(w["start_slot"]),
                n_slots=int(w["n_slots"]),
                users=(
                    tuple(int(u) for u in w["users"])
                    if w.get("users") is not None
                    else None
                ),
                level_dbm=float(w.get("level_dbm", constants.SIGNAL_MIN_DBM)),
            )
            for w in spec.get("signal", ())
        )
        capacity = tuple(
            CapacityFault(
                start_slot=int(w["start_slot"]),
                n_slots=int(w["n_slots"]),
                factor=float(w.get("factor", 0.0)),
            )
            for w in spec.get("capacity", ())
        )
        stalls = tuple(
            FlowStall(
                start_slot=int(w["start_slot"]),
                n_slots=int(w["n_slots"]),
                users=tuple(int(u) for u in w["users"]),
            )
            for w in spec.get("stalls", ())
        )
        return cls(signal=signal, capacity=capacity, stalls=stalls)

    # -- introspection -------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not (self.signal or self.capacity or self.stalls)

    def validate_for(self, n_users: int) -> None:
        """Raise if any window names a user index outside the run."""
        for w in self.signal:
            if w.users is not None and any(u >= n_users for u in w.users):
                raise ConfigurationError(
                    f"signal blackout names user >= n_users ({n_users})"
                )
        for w in self.stalls:
            if any(u >= n_users for u in w.users):
                raise ConfigurationError(
                    f"flow stall names user >= n_users ({n_users})"
                )

    # -- injection helpers (engine-facing) -----------------------------

    def apply_signal(self, signal_dbm: np.ndarray) -> np.ndarray:
        """The trace with blackout windows applied (copy; input untouched).

        Returns the input array itself when the plan carries no signal
        faults, so the no-fault path costs nothing.
        """
        if not self.signal:
            return signal_dbm
        out = np.array(signal_dbm, dtype=float, copy=True)
        n_slots = out.shape[0]
        for w in self.signal:
            lo = min(w.start_slot, n_slots)
            hi = min(w.start_slot + w.n_slots, n_slots)
            if lo >= hi:
                continue
            if w.users is None:
                out[lo:hi, :] = w.level_dbm
            else:
                out[lo:hi, list(w.users)] = w.level_dbm
        return out

    def capacity_factors(self, n_slots: int) -> np.ndarray:
        """Per-slot capacity multipliers (1.0 outside fault windows;
        overlaps take the minimum factor)."""
        factors = np.ones(n_slots, dtype=float)
        for w in self.capacity:
            lo = min(w.start_slot, n_slots)
            hi = min(w.start_slot + w.n_slots, n_slots)
            if lo < hi:
                factors[lo:hi] = np.minimum(factors[lo:hi], w.factor)
        return factors

    def stall_grid(self, n_slots: int, n_users: int) -> np.ndarray | None:
        """``(n_slots, n_users)`` bool grid of stalled deliveries, or
        ``None`` when the plan carries no stalls."""
        if not self.stalls:
            return None
        grid = np.zeros((n_slots, n_users), dtype=bool)
        for w in self.stalls:
            lo = min(w.start_slot, n_slots)
            hi = min(w.start_slot + w.n_slots, n_slots)
            if lo < hi:
                grid[lo:hi, list(w.users)] = True
        return grid

    def _mask(self, windows, n_slots: int) -> np.ndarray:
        mask = np.zeros(n_slots, dtype=bool)
        for w in windows:
            lo = min(w.start_slot, n_slots)
            hi = min(w.start_slot + w.n_slots, n_slots)
            mask[lo:hi] = True
        return mask

    def signal_slot_mask(self, n_slots: int) -> np.ndarray:
        return self._mask(self.signal, n_slots)

    def capacity_slot_mask(self, n_slots: int) -> np.ndarray:
        return self._mask(self.capacity, n_slots)

    def stall_slot_mask(self, n_slots: int) -> np.ndarray:
        return self._mask(self.stalls, n_slots)

    def outage_slot_mask(self, n_slots: int) -> np.ndarray:
        """Slots with *any* fault window active (the ``outage_slots``
        live channel and ``fault.outage_slots`` counter)."""
        return (
            self.signal_slot_mask(n_slots)
            | self.capacity_slot_mask(n_slots)
            | self.stall_slot_mask(n_slots)
        )


# -- ambient plan (``repro-experiments --faults``) ---------------------

_AMBIENT: list[FaultPlan] = []


def current_fault_plan() -> FaultPlan | None:
    """The innermost ambient plan, or ``None`` when none is active."""
    return _AMBIENT[-1] if _AMBIENT else None


@contextmanager
def use_fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Make ``plan`` ambient: every simulation whose config carries no
    explicit ``faults`` runs under it for the dynamic extent of the
    block.  The run executor ships the ambient plan's spec to pool
    workers, so ``--jobs N`` injects identically to ``--jobs 1``."""
    _AMBIENT.append(plan)
    try:
        yield plan
    finally:
        _AMBIENT.pop()
