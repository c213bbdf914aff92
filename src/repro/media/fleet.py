"""Struct-of-arrays client fleet: the vectorized playback hot path.

:class:`ClientFleet` holds the state of every
:class:`~repro.media.player.StreamingClient` in a cell as parallel
NumPy arrays (delivered bytes, buffer occupancy, elapsed playback,
pending playback duration, arrival masks) and applies the paper's
per-slot recursions to all users at once:

* :meth:`ClientFleet.begin_slot` — Eq. (7) buffer advance and Eq. (8)
  rebuffering for every arrived user in a handful of element-wise
  operations;
* :meth:`ClientFleet.deliver` — the data-shard acceptance rule
  (truncate to remaining media and to the receiver window) for the
  whole fleet;
* :meth:`ClientFleet.rates_for_slot` — the per-user required rates
  ``p_i(n)``, evaluated from the sessions' bit-rate profiles without a
  per-user Python loop (CBR and piecewise-VBR profiles are grouped and
  indexed; exotic profiles fall back per-user).

Every element-wise operation mirrors the scalar arithmetic of
:class:`~repro.media.player.StreamingClient` /
:class:`~repro.media.buffer.PlaybackBuffer` *exactly* (same operations
in the same order), so a fleet simulation is bit-identical to a
per-object loop over :class:`StreamingClient` — the contract
`tests/integration/test_fleet_equivalence.py` enforces against the
test-side reference loop.  State arrays are **rebound, never mutated in place**, which
lets :class:`~repro.net.gateway.SlotObservation` snapshots alias them
safely.

:class:`FleetClientView` is a thin per-user window onto the arrays with
the read API of :class:`StreamingClient`, so code written against
individual clients (tests, diagnostics) keeps working.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.kernels import registry as kernel_registry
from repro.media.player import PlayerState
from repro.media.video import (
    ConstantBitrateProfile,
    PiecewiseBitrateProfile,
    VideoSession,
)

__all__ = ["ClientFleet", "FleetClientView", "rate_grid_kbps"]

#: Tolerance for floating-point playback-time comparisons — must match
#: ``repro.media.player._EPS`` for cross-path bit-identity.
_EPS = 1e-9

#: Arrival slot of a cleared fleet row — far past any horizon, so the
#: begin-slot kernel never touches it.
_FAR_FUTURE = int(2**62)


def _placeholder_video() -> VideoSession:
    """Session occupying a cleared row: 0 remaining bytes, safe 1 KB/s rate.

    The row's ``size_kb`` is forced to 0 (``VideoSession`` itself
    forbids empty videos) so the row is "fully delivered" and inactive;
    the positive constant bitrate keeps the deliver kernel's
    non-positive-rate guard and EMA's rate divisions well-defined.
    """
    return VideoSession(1.0, ConstantBitrateProfile(1.0))


class _RateTable:
    """Vectorized ``p_i(slot)`` lookup across heterogeneous profiles.

    Profiles are grouped once at construction: constant-rate profiles
    contribute a fixed vector, piecewise profiles are padded into a
    matrix indexed by ``(slot // segment_slots) % n_segments``, and any
    other :class:`~repro.media.video.BitrateProfile` subclass is
    evaluated per-user (correct, just not vectorized).  The most recent
    slot's vector is cached — the engine asks for the same slot several
    times (observation, receiver window, delivery).
    """

    def __init__(self, profiles):
        self.n = len(profiles)
        const_idx, const_rates = [], []
        pw_idx, pw_profiles = [], []
        other_idx = []
        for i, prof in enumerate(profiles):
            if type(prof) is ConstantBitrateProfile:
                const_idx.append(i)
                const_rates.append(prof.rate_kbps(0))
            elif type(prof) is PiecewiseBitrateProfile:
                pw_idx.append(i)
                pw_profiles.append(prof)
            else:
                other_idx.append(i)
        self._const_idx = np.array(const_idx, dtype=np.intp)
        self._const_rates = np.array(const_rates, dtype=float)
        self._pw_idx = np.array(pw_idx, dtype=np.intp)
        if pw_idx:
            max_len = max(p.rates.size for p in pw_profiles)
            self._pw_mat = np.zeros((len(pw_idx), max_len), dtype=float)
            for k, p in enumerate(pw_profiles):
                self._pw_mat[k, : p.rates.size] = p.rates
            self._pw_seg = np.array(
                [p.segment_slots for p in pw_profiles], dtype=np.int64
            )
            self._pw_len = np.array(
                [p.rates.size for p in pw_profiles], dtype=np.int64
            )
            self._pw_rows = np.arange(len(pw_idx))
        self._other = [(i, profiles[i]) for i in other_idx]
        self._all_const = not pw_idx and not other_idx
        self._cache_slot: int | None = None
        self._cache: np.ndarray | None = None

    def rates_for_slot(self, slot: int) -> np.ndarray:
        if self._cache_slot == slot:
            return self._cache
        out = np.empty(self.n, dtype=float)
        if self._const_idx.size:
            out[self._const_idx] = self._const_rates
        if self._pw_idx.size:
            seg = (slot // self._pw_seg) % self._pw_len
            out[self._pw_idx] = self._pw_mat[self._pw_rows, seg]
        for i, prof in self._other:
            out[i] = prof.rate_kbps(slot)
        if self._all_const:
            # Constant forever: pin the cache so it is computed once.
            self._cache_slot, self._cache = slot, out
            self.rates_for_slot = lambda _slot: out  # type: ignore[method-assign]
            return out
        self._cache_slot, self._cache = slot, out
        return out

    def rates_grid(self, n_slots: int) -> np.ndarray:
        """``(n_slots, n)`` rates: row ``s`` is :meth:`rates_for_slot`'s
        vector for slot ``s``, gathered from the same tables."""
        out = np.empty((n_slots, self.n), dtype=float)
        if self._const_idx.size:
            out[:, self._const_idx] = self._const_rates
        if self._pw_idx.size:
            slots = np.arange(n_slots, dtype=np.int64)
            # One row gather per distinct (segment length, segment count).
            pairs = sorted(set(zip(self._pw_seg.tolist(), self._pw_len.tolist())))
            for seg_slots, n_seg in pairs:
                k = np.flatnonzero((self._pw_seg == seg_slots) & (self._pw_len == n_seg))
                seg = (slots // seg_slots) % n_seg
                out[:, self._pw_idx[k]] = self._pw_mat[k].T[seg]
        for i, prof in self._other:
            out[:, i] = [prof.rate_kbps(slot) for slot in range(n_slots)]
        return out


def rate_grid_kbps(flows, n_slots: int) -> np.ndarray:
    """Required rates ``p_i(n)`` of ``flows`` over ``n_slots`` slots,
    ``(n_slots, len(flows))`` KB/s — bitwise the per-slot vectors a
    :class:`ClientFleet` of those flows observes."""
    return _RateTable([f.video.profile for f in flows]).rates_grid(n_slots)


class ClientFleet:
    """All streaming clients of a cell as parallel state arrays.

    Parameters
    ----------
    flows:
        The workload's :class:`~repro.net.flows.VideoFlow` list; fixes
        user order, sessions, and arrival slots.
    tau_s:
        Slot length, seconds.
    buffer_capacity_s:
        Optional client buffer cap (seconds of playback), shared by the
        fleet — matching :class:`~repro.media.player.StreamingClient`'s
        per-client parameter as the engine uses it.
    """

    def __init__(self, flows, tau_s: float, buffer_capacity_s: float | None = None):
        if tau_s <= 0:
            raise ConfigurationError("tau_s must be positive")
        if buffer_capacity_s is not None and buffer_capacity_s <= 0:
            raise ConfigurationError("buffer_capacity_s must be positive when given")
        n = len(flows)
        if n == 0:
            raise ConfigurationError("fleet needs at least one flow")
        self.n_users = n
        self.tau_s = float(tau_s)
        self.capacity_s = None if buffer_capacity_s is None else float(buffer_capacity_s)
        self.videos = [f.video for f in flows]
        self.size_kb = np.array([f.video.size_kb for f in flows], dtype=float)
        self.arrival_slot = np.array([f.arrival_slot for f in flows], dtype=np.int64)
        self._profiles = [f.video.profile for f in flows]
        self._rates = _RateTable(self._profiles)

        #: Total media bytes received so far (KB).
        self.delivered_kb = np.zeros(n, dtype=float)
        #: Total playback duration of received media (sum of t_i(n), s).
        self.delivered_playback_s = np.zeros(n, dtype=float)
        #: Elapsed playback time m_i (s).
        self.elapsed_playback_s = np.zeros(n, dtype=float)
        #: Cumulative rebuffering time (s).
        self.total_rebuffering_s = np.zeros(n, dtype=float)
        #: Remaining occupancy r_i(n), seconds of playback buffered.
        self.buffer_occupancy_s = np.zeros(n, dtype=float)
        #: Playback duration delivered in the current slot (pending t(n)).
        self.pending_playback_s = np.zeros(n, dtype=float)
        #: Rebuffering time c_i(n) of the most recent slot.
        self.last_slot_rebuffering_s = np.zeros(n, dtype=float)
        self._began = np.zeros(n, dtype=bool)
        self._views: list[FleetClientView] | None = None

        # Double buffers for the slot kernels: a kernel reads the
        # current binding of each mutable array and writes the
        # alternate; on success the bindings swap.  A binding is not
        # overwritten until two kernel calls later, preserving the
        # "rebound, never mutated in place" contract SlotObservation
        # snapshots rely on within their slot.
        self._occ_alt = np.empty(n, dtype=float)
        self._pend_alt = np.empty(n, dtype=float)
        self._began_alt = np.empty(n, dtype=bool)
        self._elapsed_alt = np.empty(n, dtype=float)
        self._total_alt = np.empty(n, dtype=float)
        self._rebuf_alt = np.empty(n, dtype=float)
        self._delivered_alt = np.empty(n, dtype=float)
        self._dplay_alt = np.empty(n, dtype=float)
        self._accepted = np.empty(n, dtype=float)
        self._fscratch = np.empty(2 * n, dtype=float)
        self._bscratch = np.empty(4 * n, dtype=bool)
        self._begin_kernel = None
        self._deliver_kernel = None

    def clear_row(self, row: int) -> None:
        """Take a row out of play for the rest of the run (a churn
        session rejected or retired): it never becomes active again and
        its state reads 0.

        Rows are cleared between slots (before the collect phase
        aliases the arrays), so in-place writes are safe here.
        """
        placeholder = _placeholder_video()
        self.videos[row] = placeholder
        self._profiles[row] = placeholder.profile
        self.size_kb[row] = 0.0
        self.arrival_slot[row] = _FAR_FUTURE
        for state in (
            self.delivered_kb,
            self.delivered_playback_s,
            self.elapsed_playback_s,
            self.total_rebuffering_s,
            self.buffer_occupancy_s,
            self.pending_playback_s,
            self.last_slot_rebuffering_s,
            self._began,
        ):
            state[row] = 0
        self._rates = _RateTable(self._profiles)

    # -- progress predicates (all shape (n_users,)) --------------------------

    @property
    def fully_delivered(self) -> np.ndarray:
        """All ``size_kb`` media bytes have been received."""
        return self.delivered_kb >= self.size_kb - _EPS

    @property
    def playback_complete(self) -> np.ndarray:
        """Users who have watched their entire video (``m_i >= M_i``)."""
        return self.fully_delivered & (
            self.elapsed_playback_s >= self.delivered_playback_s - _EPS
        )

    @property
    def needs_data(self) -> np.ndarray:
        """The gateway still has bytes to push to these users."""
        return ~self.fully_delivered

    @property
    def remaining_kb(self) -> np.ndarray:
        """Media bytes not yet delivered (KB)."""
        return np.maximum(self.size_kb - self.delivered_kb, 0.0)

    def active_mask(self, slot: int) -> np.ndarray:
        """Session started and still has bytes to receive."""
        return (slot >= self.arrival_slot) & self.needs_data

    def rates_for_slot(self, slot: int) -> np.ndarray:
        """Required data rates ``p_i(slot)`` (KB/s).  Do not mutate."""
        return self._rates.rates_for_slot(slot)

    def receivable_kb(self, slot: int) -> np.ndarray:
        """Receiver windows: media bytes each client can accept this slot."""
        if self.capacity_s is None:
            return np.full(self.n_users, np.inf)
        carried = np.maximum(self.buffer_occupancy_s - self.tau_s, 0.0)
        headroom_s = self.capacity_s - carried - self.pending_playback_s
        return np.where(
            headroom_s <= 0.0, 0.0, headroom_s * self.rates_for_slot(slot)
        )

    # -- allocation-free observation fills (arena path) ----------------------

    def active_mask_into(self, slot: int, out, ftmp, btmp) -> np.ndarray:
        """:meth:`active_mask` written into a preallocated buffer."""
        np.less_equal(self.arrival_slot, slot, out=out)
        np.subtract(self.size_kb, _EPS, out=ftmp)
        np.less(self.delivered_kb, ftmp, out=btmp)
        np.logical_and(out, btmp, out=out)
        return out

    def remaining_into(self, out) -> np.ndarray:
        """:attr:`remaining_kb` written into a preallocated buffer."""
        np.subtract(self.size_kb, self.delivered_kb, out=out)
        np.maximum(out, 0.0, out=out)
        return out

    def playback_complete_into(self, out, ftmp, btmp) -> np.ndarray:
        """:attr:`playback_complete` written into a preallocated buffer."""
        np.subtract(self.size_kb, _EPS, out=ftmp)
        np.greater_equal(self.delivered_kb, ftmp, out=out)
        np.subtract(self.delivered_playback_s, _EPS, out=ftmp)
        np.greater_equal(self.elapsed_playback_s, ftmp, out=btmp)
        np.logical_and(out, btmp, out=out)
        return out

    def receivable_into(self, slot: int, out, btmp) -> np.ndarray:
        """:meth:`receivable_kb` written into a preallocated buffer."""
        if self.capacity_s is None:
            out.fill(np.inf)
            return out
        np.subtract(self.buffer_occupancy_s, self.tau_s, out=out)
        np.maximum(out, 0.0, out=out)
        np.subtract(self.capacity_s, out, out=out)
        np.subtract(out, self.pending_playback_s, out=out)
        np.less_equal(out, 0.0, out=btmp)
        np.multiply(out, self.rates_for_slot(slot), out=out)
        np.copyto(out, 0.0, where=btmp)
        return out

    # -- per-slot protocol ---------------------------------------------------

    def begin_slot(self, slot: int, out: np.ndarray | None = None) -> np.ndarray:
        """Start slot ``slot`` for every arrived user: Eqs. (7)-(8).

        Users whose session has not arrived are untouched (no buffer
        advance, no startup rebuffering); completed users record zero
        rebuffering.  Returns this slot's per-user rebuffering vector —
        a fresh array, or ``out`` filled in place when given (the
        engine passes its result-grid row to stay allocation-free).
        """
        if self._begin_kernel is None:
            self._begin_kernel = kernel_registry.resolve("fleet_begin_slot")
        cap = np.inf if self.capacity_s is None else self.capacity_s
        self._begin_kernel(
            slot,
            self.tau_s,
            cap,
            self.arrival_slot,
            self.size_kb,
            self.delivered_kb,
            self.delivered_playback_s,
            self.buffer_occupancy_s,
            self.pending_playback_s,
            self._began,
            self.elapsed_playback_s,
            self.total_rebuffering_s,
            self._occ_alt,
            self._pend_alt,
            self._began_alt,
            self._elapsed_alt,
            self._total_alt,
            self._rebuf_alt,
            self._fscratch,
            self._bscratch,
        )
        self.buffer_occupancy_s, self._occ_alt = self._occ_alt, self.buffer_occupancy_s
        self.pending_playback_s, self._pend_alt = (
            self._pend_alt,
            self.pending_playback_s,
        )
        self._began, self._began_alt = self._began_alt, self._began
        self.elapsed_playback_s, self._elapsed_alt = (
            self._elapsed_alt,
            self.elapsed_playback_s,
        )
        self.total_rebuffering_s, self._total_alt = (
            self._total_alt,
            self.total_rebuffering_s,
        )
        self.last_slot_rebuffering_s, self._rebuf_alt = (
            self._rebuf_alt,
            self.last_slot_rebuffering_s,
        )
        if out is not None:
            np.copyto(out, self.last_slot_rebuffering_s)
            return out
        return self.last_slot_rebuffering_s.copy()

    def deliver(
        self, offer_kb: np.ndarray, slot: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Record the slot's data shards for the whole fleet.

        Each user's shard is truncated to the session's remaining bytes
        and to the receiver window; the accepted amounts (KB) are
        returned — in a fresh array, or in ``out`` when given.  On a
        non-positive-bitrate error the fleet state is untouched (the
        kernel reports before any state buffer swaps).
        """
        offer = np.asarray(offer_kb, dtype=float)
        if offer.shape != (self.n_users,):
            raise ConfigurationError("offer_kb has wrong shape")
        if np.any(offer < 0):
            raise ConfigurationError("data_kb must be non-negative")
        if self._deliver_kernel is None:
            self._deliver_kernel = kernel_registry.resolve("fleet_deliver")
        cap = np.inf if self.capacity_s is None else self.capacity_s
        accepted = out if out is not None else self._accepted
        err = self._deliver_kernel(
            self.tau_s,
            cap,
            offer,
            np.asarray(self.rates_for_slot(slot), dtype=float),
            self.size_kb,
            self.delivered_kb,
            self.delivered_playback_s,
            self.buffer_occupancy_s,
            self.pending_playback_s,
            self._delivered_alt,
            self._dplay_alt,
            self._pend_alt,
            accepted,
            self._fscratch,
            self._bscratch,
        )
        if err:
            raise SimulationError(f"non-positive bitrate at slot {slot}")
        self.delivered_kb, self._delivered_alt = self._delivered_alt, self.delivered_kb
        self.delivered_playback_s, self._dplay_alt = (
            self._dplay_alt,
            self.delivered_playback_s,
        )
        self.pending_playback_s, self._pend_alt = (
            self._pend_alt,
            self.pending_playback_s,
        )
        if out is not None:
            return out
        return accepted.copy()

    # -- per-user views ------------------------------------------------------

    @property
    def clients(self) -> list["FleetClientView"]:
        """Per-user read views with the ``StreamingClient`` API."""
        if self._views is None:
            self._views = [FleetClientView(self, i) for i in range(self.n_users)]
        return self._views

    def view(self, user: int) -> "FleetClientView":
        return self.clients[user]


class FleetClientView:
    """One user's window onto a :class:`ClientFleet`.

    Mirrors the read API of :class:`~repro.media.player.StreamingClient`
    (progress predicates, occupancy, receiver window, player state) so
    per-client diagnostics and tests work unchanged against the fleet.
    """

    __slots__ = ("_fleet", "_i")

    def __init__(self, fleet: ClientFleet, index: int):
        self._fleet = fleet
        self._i = index

    @property
    def video(self):
        return self._fleet.videos[self._i]

    @property
    def tau_s(self) -> float:
        return self._fleet.tau_s

    @property
    def delivered_kb(self) -> float:
        return float(self._fleet.delivered_kb[self._i])

    @property
    def delivered_playback_s(self) -> float:
        return float(self._fleet.delivered_playback_s[self._i])

    @property
    def elapsed_playback_s(self) -> float:
        return float(self._fleet.elapsed_playback_s[self._i])

    @property
    def total_rebuffering_s(self) -> float:
        return float(self._fleet.total_rebuffering_s[self._i])

    @property
    def fully_delivered(self) -> bool:
        return bool(self._fleet.fully_delivered[self._i])

    @property
    def playback_complete(self) -> bool:
        return bool(self._fleet.playback_complete[self._i])

    @property
    def needs_data(self) -> bool:
        return bool(self._fleet.needs_data[self._i])

    @property
    def remaining_kb(self) -> float:
        return float(self._fleet.remaining_kb[self._i])

    @property
    def buffer_occupancy_s(self) -> float:
        return float(self._fleet.buffer_occupancy_s[self._i])

    @property
    def last_slot_rebuffering_s(self) -> float:
        return float(self._fleet.last_slot_rebuffering_s[self._i])

    def receivable_kb(self, slot: int) -> float:
        fleet = self._fleet
        if fleet.capacity_s is None:
            return float("inf")
        occ = float(fleet.buffer_occupancy_s[self._i])
        carried = max(occ - fleet.tau_s, 0.0)
        headroom_s = (
            fleet.capacity_s - carried - float(fleet.pending_playback_s[self._i])
        )
        if headroom_s <= 0.0:
            return 0.0
        return headroom_s * self.video.rate_kbps(slot)

    @property
    def state(self) -> PlayerState:
        fleet, i = self._fleet, self._i
        if fleet.playback_complete[i]:
            return PlayerState.FINISHED
        if not fleet._began[i]:
            return PlayerState.STARTUP
        if fleet.last_slot_rebuffering_s[i] > 0:
            return (
                PlayerState.STARTUP
                if fleet.elapsed_playback_s[i] <= _EPS
                else PlayerState.REBUFFERING
            )
        return PlayerState.PLAYING

    def __repr__(self) -> str:  # pragma: no cover
        return f"FleetClientView(user={self._i}, {self.state.value})"
