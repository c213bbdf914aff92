"""RTMA — Rebuffering Time Minimization Algorithm (paper Section IV).

RTMA minimizes the global rebuffering time subject to a per-slot energy
budget ``Phi`` (Eq. 10).  The budget is enforced through the Eq. (12)
conversion: a signal-strength threshold ``phi_sig`` such that users
whose RSSI falls below it are not scheduled at all that slot — a
*stricter* condition than Eq. (10), as the paper notes, trading some
local optimality for a constraint that is enforceable online without
knowing other users' allocations.

Above the threshold, Algorithm 1 allocates in *rounds*: users are
sorted by required data rate (ascending — cheap-to-satisfy playback
first), and each round grants each user at most its one-slot need
``phi_need = ceil(tau * p_i / delta)``, iterating until the BS unit
budget or every user's link capacity (Eq. 1) is exhausted.  The
round structure is what produces RTMA's fairness (Fig. 2): no user can
seize the whole BS before every user has been offered its need.

One scheduler body serves a lone run and a stack of runs alike: the
observation's ``R >= 1`` row segments each get their own threshold
lane, rate order and budget, and the rounds always go through the
segmented ``rtma_rounds_batch`` kernel (:mod:`repro.kernels.batch_step`).
Its numpy leg does not play the rounds one by one: after ``k`` full
rounds a user holds ``min(k * phi_need, headroom)``, so the kernel
bisects for the number of rounds the budget covers in full and hands
out one partial round in rate order — the same int64 grants, for every
segment in one vectorised pass (:mod:`repro.kernels.rtma_rounds`
derives it).  A lone run is ``R = 1``; :meth:`RTMAScheduler.stack`
builds the ``R > 1`` instance.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.kernels import registry as kernel_registry
from repro.net.gateway import SlotObservation
from repro.radio.power import EnviPowerModel

__all__ = ["RTMAScheduler", "signal_threshold_for_energy_budget"]


def signal_threshold_for_energy_budget(
    energy_budget_mj_per_slot: float,
    power_model: EnviPowerModel,
    tau_s: float = constants.DEFAULT_TAU_S,
    p_tail_mw: float = constants.POWER_DCH_MW,
) -> float:
    """Invert Eq. (12): budget ``Phi`` -> signal threshold ``phi_sig``.

    Eq. (12) estimates the per-slot energy at threshold signal
    ``phi_sig`` as the mean of the full-rate transmission energy and
    the slot tail energy::

        Phi = 0.5 * (P(phi_sig) * v(phi_sig) * tau + tau * P_tail)

    Because the radio power ``P(sig) * v(sig)`` *decreases* with
    signal strength under the paper's fits, a tighter budget demands a
    stronger signal.  Returns ``-inf`` when the budget is loose enough
    that any signal qualifies (required radio power above the fit's
    supremum), and ``+inf`` when the budget is unattainable even at the
    strongest signal.
    """
    if energy_budget_mj_per_slot <= 0:
        raise ConfigurationError("energy budget must be positive")
    if tau_s <= 0:
        raise ConfigurationError("tau_s must be positive")
    if p_tail_mw < 0:
        raise ConfigurationError("p_tail_mw must be non-negative")
    required_radio_power_mw = 2.0 * energy_budget_mj_per_slot / tau_s - p_tail_mw
    if required_radio_power_mw >= power_model.scale:
        # Radio power is c0*v + c1 <= c1 (= scale) for c0 < 0: any
        # signal satisfies the budget.
        return float("-inf")
    try:
        threshold = power_model.signal_for_radio_power(required_radio_power_mw)
    except ConfigurationError:
        return float("inf")
    v_max = power_model.throughput.v_max
    if float(power_model.throughput.v(threshold)) > v_max:
        return float("inf")
    return threshold


class RTMAScheduler(Scheduler):
    """Algorithm 1 with the Eq. (12) energy-to-signal conversion.

    Parameters
    ----------
    energy_budget_mj_per_slot:
        The per-user-slot energy bound ``Phi`` (Eq. 10).  In the
        paper's evaluation this is ``alpha`` times the *default*
        strategy's measured energy.  ``None`` disables the energy
        constraint (pure rebuffering minimization).
    power_model:
        Needed to derive the signal threshold; defaults to the paper's
        EnVi fit.
    p_tail_mw:
        Tail-power estimate used inside Eq. (12); the paper words it as
        "the tail energy in a slot", which for a 1-second slot at the
        head of the tail is the DCH power (default).
    sig_threshold_dbm:
        Escape hatch: supply the threshold directly and skip Eq. (12).
    """

    name = "rtma"

    def __init__(
        self,
        energy_budget_mj_per_slot: float | None = None,
        power_model: EnviPowerModel | None = None,
        tau_s: float = constants.DEFAULT_TAU_S,
        p_tail_mw: float = constants.POWER_DCH_MW,
        sig_threshold_dbm: float | None = None,
    ):
        if sig_threshold_dbm is not None and energy_budget_mj_per_slot is not None:
            raise ConfigurationError(
                "give either energy_budget_mj_per_slot or sig_threshold_dbm, not both"
            )
        self.energy_budget_mj_per_slot = energy_budget_mj_per_slot
        if sig_threshold_dbm is not None:
            self.sig_threshold_dbm = float(sig_threshold_dbm)
        elif energy_budget_mj_per_slot is not None:
            model = power_model if power_model is not None else EnviPowerModel()
            self.sig_threshold_dbm = signal_threshold_for_energy_budget(
                energy_budget_mj_per_slot, model, tau_s, p_tail_mw
            )
        else:
            self.sig_threshold_dbm = float("-inf")
        #: Per-run thresholds, broadcast to per-lane arrays over the
        #: observation's run segments (one run unless :meth:`stack`).
        self._thresholds = np.array([self.sig_threshold_dbm], dtype=float)
        self._parts: list[RTMAScheduler] = []
        self._scratch: dict | None = None
        self._kernel = None

    @classmethod
    def stack(cls, scheds, run_offsets: np.ndarray) -> RTMAScheduler:
        """One scheduler over R runs stacked as row segments.

        Run ``r`` keeps ``scheds[r]``'s threshold on rows
        ``run_offsets[r]:run_offsets[r+1]``; every lane then sees the
        arithmetic of its own run alone.
        """
        stacked = cls(sig_threshold_dbm=scheds[0].sig_threshold_dbm)
        stacked._thresholds = np.array([s.sig_threshold_dbm for s in scheds], dtype=float)
        stacked._parts = list(scheds)
        stacked._buffers(run_offsets)
        return stacked

    def _buffers(self, run_offsets: np.ndarray) -> dict:
        n_users = int(run_offsets[-1])
        s = self._scratch
        if s is None or s["need"].size != n_users:
            sizes = np.diff(run_offsets)
            width = int(sizes.max())
            s = {
                "threshold": np.repeat(self._thresholds, sizes),
                # The rate sort runs on an (R, widest segment) grid:
                # each row's cell, and the +inf-padded grid itself.
                "cell": np.arange(n_users) + np.repeat(
                    np.arange(sizes.size) * width - run_offsets[:-1], sizes
                ),
                "padded": np.full((sizes.size, width), np.inf),
                "eligible": np.empty(n_users, dtype=bool),
                "b_tmp": np.empty(n_users, dtype=bool),
                "need": np.empty(n_users, dtype=np.int64),
                "cap": np.empty(n_users, dtype=np.int64),
                "f_tmp": np.empty(n_users, dtype=float),
            }
            self._scratch = s
        return s

    def allocate(self, obs: SlotObservation) -> np.ndarray:
        phi = self._zeros(obs)
        s = self._buffers(obs.run_offsets)
        eligible = s["eligible"]
        np.greater_equal(obs.sig_dbm, s["threshold"], out=eligible)
        np.logical_and(eligible, obs.active, out=eligible)
        np.greater(obs.link_units, 0, out=s["b_tmp"])
        np.logical_and(eligible, s["b_tmp"], out=eligible)
        # unit_budget is the run total: no run has a unit to grant.
        if not np.any(eligible) or obs.unit_budget <= 0:
            return phi

        # Step 3: one-slot need, ceil(tau * p_i / delta), at least 1 unit.
        f = s["f_tmp"]
        need = s["need"]
        np.multiply(obs.rate_kbps, obs.tau_s, out=f)
        np.divide(f, obs.delta_kb, out=f)
        np.ceil(f, out=f)
        np.copyto(need, f, casting="unsafe")
        np.maximum(need, 1, out=need)
        # Never allocate past the end of the video or the receiver window.
        cap = s["cap"]
        np.minimum(obs.remaining_kb, obs.receivable_kb, out=f)
        np.divide(f, obs.delta_kb, out=f)
        np.ceil(f, out=f)
        np.copyto(cap, f, casting="unsafe")
        np.minimum(obs.link_units, cap, out=cap)

        # Steps 1-2: ascending required data rate, a stable argsort per
        # run segment (run-local indices); steps 4-15: rounds of
        # at-most-phi_need grants in that order against each run's own
        # budget, dispatched to the active kernel backend.
        budgets = obs.run_unit_budgets
        padded = s["padded"]
        if padded.size == obs.n_users:
            padded = obs.rate_kbps.reshape(padded.shape)
        else:
            # Ragged segments: +inf pads each row past its segment, and
            # a stable sort keeps the pads behind every finite rate.
            padded.flat[s["cell"]] = obs.rate_kbps
        order = np.argsort(padded, axis=1, kind="stable").reshape(-1)
        if order.size != obs.n_users:
            order = order[s["cell"]]
        if self._kernel is None:
            self._kernel = kernel_registry.resolve("rtma_rounds_batch")
        self._kernel(phi, eligible, need, cap, order, budgets, obs.run_offsets)
        return phi

    def reset(self) -> None:
        # Re-resolve on next allocate so an ambient use_backend() block
        # entered after construction (the engine's cfg.kernel_backend)
        # governs the kernel choice.
        self._kernel = None
        for s in self._parts:
            s.reset()
