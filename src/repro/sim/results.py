"""Result containers and summaries.

A :class:`SimulationResult` stores the full per-slot, per-user record
of one run (allocations, deliveries, rebuffering, tail energy, buffer
levels, activity) plus the workload it ran on, and derives the rest —
transmission energy, required data, the paper's headline metrics — on
demand.  :class:`SummaryStats` is the flat snapshot used by the
experiment tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.media.fleet import rate_grid_kbps
from repro.sim.config import SimConfig
from repro.sim.metrics import (
    average_energy_mj,
    average_rebuffering_s,
    empirical_cdf,
    per_slot_fairness,
)
from repro.sim.workload import Workload

__all__ = ["SimulationResult", "SummaryStats", "transmission_energy_mj"]


def transmission_energy_mj(power, sig_dbm: np.ndarray, delivered_kb: np.ndarray):
    """Eq. (3) energy ``P(sig) * delivered`` with Eq. (24)'s ``P``, mJ;
    exactly 0 where nothing was delivered.

    ``P`` is evaluated, where anything was delivered, through the power
    model's ``out=`` path, the ufunc chain of the engine's per-slot
    Eq. (24) tables, so each element is bitwise the product the slot
    loop would form.
    """
    out = np.zeros(delivered_kb.shape)
    sent = np.flatnonzero(delivered_kb > 0.0)
    sig = np.ravel(sig_dbm)[sent]
    p = np.empty(sent.size)
    power.p(sig, out=p, scratch=np.empty(sent.size))
    out.reshape(-1)[sent] = np.multiply(p, np.ravel(delivered_kb)[sent], out=p)
    return out


@dataclass(frozen=True)
class SummaryStats:
    """Headline metrics of one run (units: mJ and seconds per user-slot)."""

    scheduler: str
    #: Eq. (6) average energy per user-slot, mJ.
    pe_mj: float
    #: Eq. (9) average rebuffering per user-slot, s.
    pc_s: float
    #: Tail component of ``pe_mj``.
    pe_tail_mj: float
    #: Transmission component of ``pe_mj``.
    pe_trans_mj: float
    #: Mean per-slot Jain fairness index (NaN slots skipped).
    mean_fairness: float
    #: Fraction of slots with fairness index > 0.7 (paper Fig. 2 claim).
    frac_slots_fair: float
    #: Fraction of users whose playback completed within the horizon.
    completion_rate: float
    #: Total rebuffering per user averaged over users, s.
    total_rebuffering_per_user_s: float
    #: Session-window variants of pe/pc (see SimulationResult.session_mask).
    pe_session_mj: float
    pc_session_s: float

    def as_dict(self) -> dict[str, float | str]:
        return {
            "scheduler": self.scheduler,
            "pe_mj": self.pe_mj,
            "pc_s": self.pc_s,
            "pe_tail_mj": self.pe_tail_mj,
            "pe_trans_mj": self.pe_trans_mj,
            "mean_fairness": self.mean_fairness,
            "frac_slots_fair": self.frac_slots_fair,
            "completion_rate": self.completion_rate,
            "total_rebuffering_per_user_s": self.total_rebuffering_per_user_s,
            "pe_session_mj": self.pe_session_mj,
            "pc_session_s": self.pc_session_s,
        }


@dataclass
class SimulationResult:
    """Full record of one simulation run.

    All 2-D arrays have shape ``(n_slots, n_users)``.  Six grids are
    stored; :attr:`energy_trans_mj` and :attr:`need_kb` are derived
    from the stored deliveries and the run's workload, bitwise the
    values the slot loop's observations give (runs stacked on one
    workload share its signal trace and bit-rate profiles).
    """

    scheduler_name: str
    config: SimConfig
    #: Allocated data units phi_i(n).
    allocation_units: np.ndarray
    #: Delivered media, KB (post truncation to remaining bytes).
    delivered_kb: np.ndarray
    #: Rebuffering time c_i(n), s.
    rebuffering_s: np.ndarray
    #: Tail energy, mJ (Eq. 4 incremental).
    energy_tail_mj: np.ndarray
    #: Client buffer occupancy r_i(n) at slot start, s.
    buffer_s: np.ndarray
    #: Active mask (session in progress and bytes outstanding).
    active: np.ndarray
    #: Per-user completion slot (-1 if playback unfinished at horizon).
    completion_slot: np.ndarray
    #: Per-user session start slot.
    arrival_slot: np.ndarray
    #: The workload the run consumed: its flows' bit-rate profiles and
    #: its signal trace (covering at least ``n_slots``).
    workload: Workload
    #: Per-session admission outcome (dynamic runs only; ``None`` on
    #: the fixed path, where every offered session is implicitly
    #: admitted at slot 0).
    admitted: np.ndarray | None = None
    #: Per-session rejection flag (dynamic runs only).
    rejected: np.ndarray | None = None
    #: Slot at which the session's row was retired (-1 if the session
    #: never completed; dynamic runs only).
    departure_slot: np.ndarray | None = None
    #: Total media offered by the workload, KB (dynamic runs only).
    offered_video_kb: float | None = None
    #: Media belonging to *admitted* sessions, KB (dynamic runs only).
    admitted_video_kb: float | None = None
    #: The signal trace after fault injection, when a fault plan
    #: altered it (``None``: the workload's own trace).
    faulted_signal_dbm: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = self.allocation_units.shape
        for name in (
            "delivered_kb",
            "rebuffering_s",
            "energy_tail_mj",
            "buffer_s",
            "active",
        ):
            if getattr(self, name).shape != shape:
                raise ConfigurationError(f"{name} shape mismatch: expected {shape}")
        if self.workload.n_users != shape[1] or self.workload.n_slots < shape[0]:
            raise ConfigurationError(f"workload does not cover the {shape} grids")

    # -- derived grids ---------------------------------------------------

    @property
    def signal_dbm(self) -> np.ndarray:
        """The RSSI trace the run observed, ``(slots, users)``, dBm."""
        if self.faulted_signal_dbm is not None:
            return self.faulted_signal_dbm
        return self.workload.signal_dbm[: self.allocation_units.shape[0]]

    @property
    def energy_trans_mj(self) -> np.ndarray:
        """Transmission energy, mJ: Eq. (3) with Eq. (24)'s per-KB
        energy, ``P(sig_i(n)) * delivered_i(n)`` (0 where nothing was
        delivered)."""
        return transmission_energy_mj(
            self.config.radio.power, self.signal_dbm, self.delivered_kb
        )

    @property
    def need_kb(self) -> np.ndarray:
        """Required data amount per slot, KB: ``tau * p_i(n)``.

        On dynamic runs it is zero outside each session's residency
        (:meth:`session_mask`: arrival through completion, admitted
        sessions only), where no row observed the session's rate.
        """
        need = rate_grid_kbps(self.workload.flows, self.allocation_units.shape[0])
        np.multiply(need, self.config.tau_s, out=need)
        if self.admitted is not None:
            need[~self.session_mask()] = 0.0
        return need

    # -- derived metrics -------------------------------------------------

    @property
    def energy_mj(self) -> np.ndarray:
        """Total per-slot energy (transmission + tail), Eq. (5)."""
        return self.energy_trans_mj + self.energy_tail_mj

    @property
    def pe_mj(self) -> float:
        """Eq. (6)."""
        return average_energy_mj(self.energy_mj)

    @property
    def pc_s(self) -> float:
        """Eq. (9)."""
        return average_rebuffering_s(self.rebuffering_s)

    def fairness_per_slot(self, min_active: int = 2) -> np.ndarray:
        """Per-slot Jain index of allocation-vs-need (Section VI-A).

        Slots with fewer than ``min_active`` competing users are NaN
        (fairness measures BS contention; see
        :func:`repro.sim.metrics.per_slot_fairness`).
        """
        return per_slot_fairness(
            self.delivered_kb, self.need_kb, self.active, min_active
        )

    def fairness_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """CDF data for Fig. 2 / Fig. 6 (contended slots only)."""
        return empirical_cdf(self.fairness_per_slot())

    def rebuffering_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """CDF of *per-user total* rebuffering (Fig. 3's 0-20 s scale)."""
        return empirical_cdf(self.per_user_total_rebuffering_s())

    def slot_rebuffering_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """CDF of per-slot per-user rebuffering over active user-slots."""
        return empirical_cdf(self.rebuffering_s[self.active])

    def power_per_slot_mj(self) -> np.ndarray:
        """Aggregate energy across users per slot, mJ (Fig. 7 series)."""
        return self.energy_mj.sum(axis=1)

    def per_user_total_rebuffering_s(self) -> np.ndarray:
        return self.rebuffering_s.sum(axis=0)

    def per_user_total_energy_mj(self) -> np.ndarray:
        return self.energy_mj.sum(axis=0)

    def session_mask(self) -> np.ndarray:
        """Boolean ``(slots, users)``: slot lies within the user's session.

        A session spans arrival through playback completion (through
        the horizon if playback never completed).  The paper's Eq. (6)
        and Eq. (9) normalise by the scheduling period ``Gamma``; its
        reported magnitudes, however, match per-*session* averages
        (energy/rebuffering after a session ends is identically ~0, so
        horizon averages dilute with ``Gamma``).  Both views are
        exposed: :attr:`pe_mj`/:attr:`pc_s` for literal Eq. (6)/(9) and
        :attr:`pe_session_mj`/:attr:`pc_session_s` for session windows.
        """
        n_slots, n_users = self.allocation_units.shape
        slots = np.arange(n_slots)[:, None]
        end = np.where(self.completion_slot >= 0, self.completion_slot, n_slots - 1)
        mask = (slots >= self.arrival_slot[None, :]) & (slots <= end[None, :])
        if self.admitted is not None:
            # Rejected (or never-arrived) sessions have no residency:
            # counting their all-zero horizon windows would dilute the
            # per-session averages with users that were never served.
            mask &= self.admitted[None, :]
        return mask

    @property
    def pe_session_mj(self) -> float:
        """Mean energy per user-slot within session windows, mJ."""
        mask = self.session_mask()
        return float(self.energy_mj[mask].mean())

    @property
    def pc_session_s(self) -> float:
        """Mean rebuffering per user-slot within session windows, s."""
        mask = self.session_mask()
        return float(self.rebuffering_s[mask].mean())

    def to_summary_dict(self) -> dict:
        """One flat dict with every headline aggregate of this run.

        The canonical derivation of PE/PC/fairness/completion numbers —
        the CLI, the summary tables, and the benches all read this
        instead of re-deriving their own aggregates.  Includes the
        per-phase wall-clock timings when the run was instrumented.
        """
        out = self.summary().as_dict()
        out["n_users"] = int(self.allocation_units.shape[1])
        out["n_slots"] = int(self.allocation_units.shape[0])
        out["completed_users"] = int((self.completion_slot >= 0).sum())
        out["delivered_total_kb"] = float(self.delivered_kb.sum())
        if self.admitted is not None:
            # Dynamic runs split the load the workload *offered* from
            # the load the admission policy actually let in.
            out["sessions_offered"] = int(self.admitted.size)
            out["sessions_admitted"] = int(self.admitted.sum())
            out["sessions_rejected"] = (
                int(self.rejected.sum()) if self.rejected is not None else 0
            )
            out["sessions_completed"] = int((self.completion_slot >= 0).sum())
            if self.offered_video_kb is not None:
                out["offered_video_kb"] = float(self.offered_video_kb)
            if self.admitted_video_kb is not None:
                out["admitted_video_kb"] = float(self.admitted_video_kb)
        return out

    def summary(self) -> SummaryStats:
        fairness = self.fairness_per_slot()
        finite = fairness[~np.isnan(fairness)]
        completed = self.completion_slot >= 0
        if self.admitted is not None:
            # Under churn, completion is judged over admitted sessions
            # (a rejected session cannot complete by construction).
            n_admitted = int(self.admitted.sum())
            completion_rate = (
                float(completed.sum() / n_admitted) if n_admitted else float("nan")
            )
        else:
            completion_rate = float(completed.mean())
        # The derived grids and the session mask, built once: the
        # energy averages below are the properties' own expressions.
        e_trans = self.energy_trans_mj
        energy = e_trans + self.energy_tail_mj
        mask = self.session_mask()
        return SummaryStats(
            scheduler=self.scheduler_name,
            pe_mj=average_energy_mj(energy),
            pc_s=self.pc_s,
            pe_tail_mj=average_energy_mj(self.energy_tail_mj),
            pe_trans_mj=average_energy_mj(e_trans),
            mean_fairness=float(finite.mean()) if finite.size else float("nan"),
            frac_slots_fair=float((finite > 0.7).mean()) if finite.size else float("nan"),
            completion_rate=completion_rate,
            total_rebuffering_per_user_s=float(
                self.per_user_total_rebuffering_s().mean()
            ),
            pe_session_mj=float(energy[mask].mean()),
            pc_session_s=float(self.rebuffering_s[mask].mean()),
        )
