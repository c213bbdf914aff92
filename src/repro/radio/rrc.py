"""Radio Resource Control (RRC) state machine and per-slot tail accounting.

The paper models 3G RRC with three states — CELL_DCH (high power),
CELL_FACH (medium power), CELL_IDLE — and two demotion timers ``T1``
(DCH -> FACH) and ``T2`` (FACH -> IDLE).  LTE collapses to two states
(RRC_CONNECTED / RRC_IDLE), which this machine expresses as ``T2 = 0``
or ``Pf = 0`` parameterisations (see :mod:`repro.radio.profiles`).

Per the paper's Eq. (5), a slot's energy is *either* transmission
energy (when data units are allocated) *or* tail energy (when idle);
:class:`RRCStateMachine` tracks the idle age between transmissions and
emits the per-slot *incremental* tail energy, whose cumulative sum over
any idle gap matches the closed form of Eq. (4) exactly
(property-tested in ``tests/radio/test_rrc.py``).

:class:`RRCFleet` is the vectorised multi-user variant used by the
simulation engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import ConfigurationError
from repro.kernels import registry as kernel_registry
from repro.radio.tail import max_tail_energy_mj, tail_energy_mj

__all__ = [
    "RRCState",
    "RRCParams",
    "RRCStateMachine",
    "RRCFleet",
    "fleet_occupancy_from_tx",
    "fleet_state_grid_from_tx",
    "tail_split_from_tx",
]


class RRCState(enum.Enum):
    """Radio states, mapped onto 3G names (LTE uses DCH/IDLE only)."""

    DCH = "CELL_DCH"
    FACH = "CELL_FACH"
    IDLE = "CELL_IDLE"


@dataclass(frozen=True)
class RRCParams:
    """RRC power/timer parameters.

    Attributes
    ----------
    pd_mw, pf_mw:
        Instantaneous power in the high (DCH / RRC_CONNECTED) and
        medium (FACH) states, mW.
    t1_s, t2_s:
        Demotion timers: high -> medium after ``t1_s`` idle seconds,
        medium -> idle after a further ``t2_s``.
    """

    pd_mw: float = constants.POWER_DCH_MW
    pf_mw: float = constants.POWER_FACH_MW
    t1_s: float = constants.TIMER_T1_S
    t2_s: float = constants.TIMER_T2_S

    def __post_init__(self) -> None:
        if self.pd_mw < 0 or self.pf_mw < 0:
            raise ConfigurationError("state powers must be non-negative")
        if self.t1_s < 0 or self.t2_s < 0:
            raise ConfigurationError("timers must be non-negative")

    @property
    def max_tail_mj(self) -> float:
        """Full cost of one complete tail, ``Pd*T1 + Pf*T2``."""
        return max_tail_energy_mj(self.pd_mw, self.pf_mw, self.t1_s, self.t2_s)

    def tail_energy_mj(self, gap_s):
        """Closed-form Eq. (4) with these parameters."""
        return tail_energy_mj(gap_s, self.pd_mw, self.pf_mw, self.t1_s, self.t2_s)


class RRCStateMachine:
    """Single-device RRC machine with incremental tail-energy accounting.

    Usage: call :meth:`step` once per slot with whether the device
    received data during that slot; the return value is the tail energy
    accrued *during that slot* (zero for transmitting slots — their
    energy is the separately-computed transmission energy, Eq. 5).

    A freshly-created machine is IDLE with no pending tail.
    """

    def __init__(self, params: RRCParams | None = None):
        self.params = params if params is not None else RRCParams()
        self.idle_age_s: float = self.params.t1_s + self.params.t2_s
        self._ever_transmitted = False

    @property
    def state(self) -> RRCState:
        """Current radio state derived from the idle age."""
        if self.idle_age_s <= 0.0:
            return RRCState.DCH
        if not self._ever_transmitted:
            return RRCState.IDLE
        if self.idle_age_s < self.params.t1_s:
            return RRCState.DCH
        if self.idle_age_s < self.params.t1_s + self.params.t2_s:
            return RRCState.FACH
        return RRCState.IDLE

    def step(self, transmitting: bool, dt_s: float) -> float:
        """Advance one slot; return the slot's tail energy in mJ."""
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        if transmitting:
            self.idle_age_s = 0.0
            self._ever_transmitted = True
            return 0.0
        if not self._ever_transmitted:
            # Never promoted: no tail to pay.
            return 0.0
        before = self.params.tail_energy_mj(self.idle_age_s)
        self.idle_age_s += dt_s
        after = self.params.tail_energy_mj(self.idle_age_s)
        return float(after - before)

    def expected_idle_cost_mj(self, dt_s: float) -> float:
        """Tail energy this device *would* pay if idle for the next slot.

        Used by energy-aware schedulers (EMA) to price the
        ``phi_i(n) = 0`` branch of Eq. (5) without mutating state.
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        if not self._ever_transmitted:
            return 0.0
        return float(
            self.params.tail_energy_mj(self.idle_age_s + dt_s)
            - self.params.tail_energy_mj(self.idle_age_s)
        )


class RRCFleet:
    """Vectorised RRC machines for ``n_users`` devices.

    Semantically identical to ``n_users`` independent
    :class:`RRCStateMachine` instances (property-tested), but steps the
    whole fleet with a handful of NumPy operations per slot.
    """

    def __init__(self, n_users: int, params: RRCParams | None = None):
        if n_users <= 0:
            raise ConfigurationError("n_users must be positive")
        self.n_users = int(n_users)
        self.params = params if params is not None else RRCParams()
        full = self.params.t1_s + self.params.t2_s
        self.idle_age_s = np.full(self.n_users, full, dtype=float)
        self.ever_transmitted = np.zeros(self.n_users, dtype=bool)
        # Double buffers for the slot kernel: it reads the current
        # bindings and writes the alternates; bindings swap on return.
        n = self.n_users
        self._age_alt = np.empty(n, dtype=float)
        self._ever_alt = np.empty(n, dtype=bool)
        self._tail = np.empty(n, dtype=float)
        self._fscratch = np.empty(2 * n, dtype=float)
        self._bscratch = np.empty(n, dtype=bool)
        self._step_kernel = None
        self._idle_kernel = None

    def grow(self, new_n_users: int) -> None:
        """Resize to ``new_n_users`` devices, preserving existing state.

        Existing devices keep their idle age and promotion flag
        bit-for-bit; new devices come up IDLE with no pending tail —
        exactly like a freshly-created machine.
        """
        old = self.n_users
        if new_n_users <= old:
            raise ConfigurationError("grow requires new_n_users > current n_users")
        full = self.params.t1_s + self.params.t2_s
        age = np.full(new_n_users, full, dtype=float)
        age[:old] = self.idle_age_s
        ever = np.zeros(new_n_users, dtype=bool)
        ever[:old] = self.ever_transmitted
        self.idle_age_s = age
        self.ever_transmitted = ever
        self._age_alt = np.empty(new_n_users, dtype=float)
        self._ever_alt = np.empty(new_n_users, dtype=bool)
        self._tail = np.empty(new_n_users, dtype=float)
        self._fscratch = np.empty(2 * new_n_users, dtype=float)
        self._bscratch = np.empty(new_n_users, dtype=bool)
        self.n_users = int(new_n_users)

    def reset_rows(self, rows) -> None:
        """Return devices to the fresh IDLE state (session departed).

        Clearing ``ever_transmitted`` ends any pending tail: a vacated
        row accrues no further tail energy until its next occupant
        transmits.
        """
        full = self.params.t1_s + self.params.t2_s
        self.idle_age_s[rows] = full
        self.ever_transmitted[rows] = False

    def step(
        self,
        transmitting: np.ndarray,
        dt_s: float,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Advance all devices one slot.

        Parameters
        ----------
        transmitting:
            Boolean mask, shape ``(n_users,)``.
        dt_s:
            Slot length in seconds.

        Returns
        -------
        Tail energy accrued this slot per device, mJ (zero where
        transmitting) — a fresh array, or ``out`` filled in place.
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        tx = np.asarray(transmitting, dtype=bool)
        if tx.shape != (self.n_users,):
            raise ConfigurationError(
                f"transmitting mask must have shape ({self.n_users},), got {tx.shape}"
            )
        if self._step_kernel is None:
            self._step_kernel = kernel_registry.resolve("rrc_step")
        tail = out if out is not None else self._tail
        p = self.params
        self._step_kernel(
            dt_s,
            p.pd_mw,
            p.pf_mw,
            p.t1_s,
            p.t2_s,
            tx,
            self.idle_age_s,
            self.ever_transmitted,
            self._age_alt,
            self._ever_alt,
            tail,
            self._fscratch,
            self._bscratch,
        )
        self.idle_age_s, self._age_alt = self._age_alt, self.idle_age_s
        self.ever_transmitted, self._ever_alt = self._ever_alt, self.ever_transmitted
        if out is not None:
            return out
        return tail.copy()

    def state_counts(self) -> dict[str, int]:
        """Vectorised per-state device counts ``{"dch", "fach", "idle"}``.

        Matches :meth:`states` element-for-element (tested) but runs in
        a handful of NumPy ops.  A run's totals come from
        :func:`fleet_occupancy_from_tx` instead, after the loop.
        """
        t1, t2 = self.params.t1_s, self.params.t2_s
        age = self.idle_age_s
        dch = (age <= 0.0) | (self.ever_transmitted & (age < t1))
        fach = ~dch & self.ever_transmitted & (age < t1 + t2)
        n_dch = int(dch.sum())
        n_fach = int(fach.sum())
        return {"dch": n_dch, "fach": n_fach, "idle": self.n_users - n_dch - n_fach}

    def expected_idle_cost_mj(
        self, dt_s: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorised :meth:`RRCStateMachine.expected_idle_cost_mj`."""
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        if self._idle_kernel is None:
            self._idle_kernel = kernel_registry.resolve("rrc_idle_cost")
        cost = out if out is not None else self._tail
        p = self.params
        self._idle_kernel(
            dt_s,
            p.pd_mw,
            p.pf_mw,
            p.t1_s,
            p.t2_s,
            self.idle_age_s,
            self.ever_transmitted,
            cost,
            self._fscratch,
            self._bscratch,
        )
        if out is not None:
            return out
        return cost.copy()

    def states(self) -> list[RRCState]:
        """Current per-device states (for inspection/plotting)."""
        out: list[RRCState] = []
        t1, t2 = self.params.t1_s, self.params.t2_s
        for age, ever in zip(self.idle_age_s, self.ever_transmitted):
            if age <= 0.0:
                out.append(RRCState.DCH)
            elif not ever:
                out.append(RRCState.IDLE)
            elif age < t1:
                out.append(RRCState.DCH)
            elif age < t1 + t2:
                out.append(RRCState.FACH)
            else:
                out.append(RRCState.IDLE)
        return out


def fleet_occupancy_from_tx(
    tx: np.ndarray, dt_s: float, params: RRCParams | None = None
) -> dict[str, int]:
    """Total user-slots spent in each RRC state over a whole run.

    ``tx`` is the ``(n_slots, n_users)`` boolean transmission history of
    a *freshly created* :class:`RRCFleet` stepped once per row.  The
    returned ``{"dch", "fach", "idle"}`` totals equal the sum of
    :meth:`RRCFleet.state_counts` taken after every step (tested) — but
    computed in one vectorised pass, which is how the instrumented
    engine accounts occupancy without paying per-slot numpy dispatch in
    the hot loop.
    """
    if dt_s <= 0:
        raise ConfigurationError("dt_s must be positive")
    params = params if params is not None else RRCParams()
    tx = np.asarray(tx, dtype=bool)
    if tx.ndim != 2:
        raise ConfigurationError("tx history must be 2-D (n_slots, n_users)")
    if tx.size == 0:
        return {"dch": 0, "fach": 0, "idle": 0}
    n_slots = tx.shape[0]
    slots = np.arange(n_slots)[:, None]
    # Slot index of each device's most recent transmission (-1: never).
    last = np.maximum.accumulate(np.where(tx, slots, -1), axis=0)
    ever = last >= 0
    age_s = (slots - last) * dt_s
    dch = ever & ((age_s <= 0.0) | (age_s < params.t1_s))
    fach = ever & ~dch & (age_s < params.t1_s + params.t2_s)
    n_dch = int(np.count_nonzero(dch))
    n_fach = int(np.count_nonzero(fach))
    return {"dch": n_dch, "fach": n_fach, "idle": int(tx.size) - n_dch - n_fach}


def fleet_state_grid_from_tx(
    tx: np.ndarray, dt_s: float, params: RRCParams | None = None
) -> np.ndarray:
    """Per-(slot, user) RRC state codes reconstructed from a tx history.

    ``tx`` is the ``(n_slots, n_users)`` boolean transmission history of
    a freshly-created :class:`RRCFleet` stepped once per row.  Returns
    an ``int8`` grid with ``0 = DCH``, ``1 = FACH``, ``2 = IDLE`` —
    the state *after* each slot's step, matching
    :meth:`RRCFleet.state_counts` taken after every step.  Summing the
    grid's state counts reproduces :func:`fleet_occupancy_from_tx`
    (tested), but the grid keeps the per-user residency that trace
    analysis and run reports need.
    """
    if dt_s <= 0:
        raise ConfigurationError("dt_s must be positive")
    params = params if params is not None else RRCParams()
    tx = np.asarray(tx, dtype=bool)
    if tx.ndim != 2:
        raise ConfigurationError("tx history must be 2-D (n_slots, n_users)")
    if tx.size == 0:
        return np.zeros(tx.shape, dtype=np.int8)
    n_slots = tx.shape[0]
    slots = np.arange(n_slots)[:, None]
    last = np.maximum.accumulate(np.where(tx, slots, -1), axis=0)
    ever = last >= 0
    age_s = (slots - last) * dt_s
    dch = ever & ((age_s <= 0.0) | (age_s < params.t1_s))
    fach = ever & ~dch & (age_s < params.t1_s + params.t2_s)
    grid = np.full(tx.shape, 2, dtype=np.int8)
    grid[fach] = 1
    grid[dch] = 0
    return grid


def tail_split_from_tx(
    tx: np.ndarray, dt_s: float, params: RRCParams | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Split per-slot tail energy into its DCH and FACH components.

    Returns ``(dch_mj, fach_mj)`` grids of shape ``(n_slots, n_users)``
    whose sum equals the engine's recorded incremental tail energy
    exactly (tested): a non-transmitting slot at idle age ``a`` accrues
    ``Pd * |[a, a+dt] ∩ [0, T1]| + Pf * |[a, a+dt] ∩ [T1, T1+T2]|``,
    which is the increment of the Eq. (4) closed form.  Transmitting
    slots and never-promoted devices accrue nothing in either bucket.
    """
    if dt_s <= 0:
        raise ConfigurationError("dt_s must be positive")
    params = params if params is not None else RRCParams()
    tx = np.asarray(tx, dtype=bool)
    if tx.ndim != 2:
        raise ConfigurationError("tx history must be 2-D (n_slots, n_users)")
    zeros = np.zeros(tx.shape, dtype=float)
    if tx.size == 0:
        return zeros, zeros.copy()
    n_slots = tx.shape[0]
    slots = np.arange(n_slots)[:, None]
    last = np.maximum.accumulate(np.where(tx, slots, -1), axis=0)
    accruing = ~tx & (last >= 0)
    # Idle age spanned during slot s: [a0, a1] with a1 = (s - last) * dt
    # (the fleet resets the age to 0 on a transmitting slot, so the
    # first idle slot after a transmission spans [0, dt]).
    a1 = (slots - last) * dt_s
    a0 = a1 - dt_s
    t1, t2 = params.t1_s, params.t2_s
    dch = params.pd_mw * (np.minimum(a1, t1) - np.minimum(a0, t1))
    fach = params.pf_mw * (np.clip(a1 - t1, 0.0, t2) - np.clip(a0 - t1, 0.0, t2))
    return np.where(accruing, dch, 0.0), np.where(accruing, fach, 0.0)
