"""Run-stacked batch execution: R compatible runs, one slot loop.

Every figure in the paper aggregates many *independent* runs — seeds,
sweep points, calibration grids.  Run one by one, each pays the full
per-slot Python cost (engine loop, gateway dispatch, kernel launch);
:func:`run_batch` instead stacks R shape-compatible runs as row
segments of the engine's one slot loop
(:func:`~repro.sim.engine.run_segments`): a single ``(R*N,)``-row
:class:`~repro.media.fleet.ClientFleet` /
:class:`~repro.radio.rrc.RRCFleet` with a per-run segment table, split
into per-run :class:`~repro.sim.results.SimulationResult` objects at
the end.  A single run is the same loop with ``R = 1``.

The contract is **bit-identity** with running each task alone (guarded
by ``tests/integration/test_batch_equivalence.py``).  It holds because:

* every fleet/RRC/arena/receiver operation in the slot pipeline is
  row-elementwise, so the run axis rides the row axis for free;
* the only cross-user couplings — the Eq. (2) budget in
  ``check_constraints`` / ``clip_to_constraints``, RTMA's rounds, and
  EMA's knapsack DP — are made segment-aware (per-run budgets via
  :class:`~repro.net.gateway.BatchSlotObservation`, the
  ``rtma_rounds_batch`` / ``ema_dp_batch`` kernels, and the scheduler
  adapters below);
* reductions feeding results and metrics run on *contiguous* per-run
  copies, so NumPy's pairwise summation order matches a lone run's;
* the Eq. (24) link/power tables and Eq. (2) budget tables are built
  the same way for every ``R``.

Compatibility: stacked runs must share ``n_users``, ``n_slots``,
``tau_s``, ``delta_kb``, ``buffer_capacity_s``, ``fetch_ahead_kb``,
the radio profile, the kernel backend, and the scheduler *type*; BS
capacity, background traffic, seeds, signal models, and per-run
scheduler parameters (RTMA thresholds, EMA ``V``) may differ.
Dynamic-lifecycle (churn) runs and fault plans cannot be stacked.
:func:`batch_incompatibility` is the single oracle — the executor uses
it to decide which consecutive tasks may share a batch.

Instrumentation: stacks run with metrics, the phase profiler, and
span recording (one profiler sample per phase per slot covers the
whole stack; per-run counters are derived after the loop by
:func:`~repro.sim.engine.record_run_metrics`).  Per-slot trace events
and the live telemetry plane need each run's own slot stream, so
:meth:`BatchPlan.run` runs every task as a one-segment loop when either
is attached.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.default import DefaultScheduler, NeedRateScheduler
from repro.baselines.estreamer import EStreamerScheduler
from repro.baselines.onoff import OnOffScheduler
from repro.baselines.salsa import SalsaScheduler
from repro.baselines.throttling import ThrottlingScheduler
from repro.core.ema import EMAScheduler
from repro.core.lyapunov import VirtualQueues
from repro.core.rtma import RTMAScheduler
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.faults import current_fault_plan
from repro.kernels import registry as kernel_registry
from repro.net.gateway import SlotObservation
from repro.obs.instrument import Instrumentation, current_instrumentation
from repro.sim.engine import Simulation, run_segments
from repro.sim.results import SimulationResult
from repro.sim.workload import resolve_workload

__all__ = ["BatchPlan", "run_batch", "batch_incompatibility"]

#: Config fields that must be equal across every run of a batch (the
#: stacked fleet, receiver, RRC profile, and backend context are
#: shared).  ``capacity_kbps`` and ``background`` are deliberately
#: absent — each run keeps its own BS/slicer through the segment table.
_COMPAT_FIELDS = (
    "n_users",
    "n_slots",
    "tau_s",
    "delta_kb",
    "buffer_capacity_s",
    "fetch_ahead_kb",
    "profile",
    "kernel_backend",
)

#: Baseline schedulers whose ``allocate`` is purely row-elementwise
#: (state auto-sized to the observation) followed by
#: ``clip_to_constraints``.  When every run carries equal parameters,
#: the first run's instance can serve the whole stacked row space
#: directly — each lane evolves exactly as it would in its own run.
_CLIP_SHARED_PARAMS: dict[type, tuple[str, ...]] = {
    DefaultScheduler: ("refill_trigger_s", "refill_high_s"),
    NeedRateScheduler: (),
    OnOffScheduler: ("low_threshold_s", "high_threshold_s"),
    ThrottlingScheduler: ("factor",),
    SalsaScheduler: ("v_salsa", "p_ref_mj_per_kb"),
    EStreamerScheduler: ("buffer_capacity_s", "refill_trigger_s"),
}


def batch_incompatibility(tasks) -> str | None:
    """Why ``tasks`` cannot share a batch, or ``None`` when they can.

    ``tasks`` are duck-typed run descriptions exposing ``.config`` and
    ``.scheduler`` (e.g. :class:`~repro.sim.executor.RunTask`).
    """
    tasks = list(tasks)
    if not tasks:
        return "empty task list"
    if len(tasks) == 1:
        # A single task is always fine: it *is* a one-segment loop.
        return None
    # Churn (a growable, recycled row space) and fault plans (per-run
    # injections) are one-segment features of the slot loop.
    for t in tasks:
        if t.config.has_churn:
            return "dynamic session lifecycle (arrivals/admission) cannot be stacked"
    for t in tasks:
        if t.config.faults is not None and not t.config.faults.is_empty:
            return "fault plan attached (faults need a one-segment loop)"
    ambient = current_fault_plan()
    if ambient is not None and not ambient.is_empty:
        return "ambient fault plan active (faults need a one-segment loop)"
    cfg0 = tasks[0].config
    for name in _COMPAT_FIELDS:
        v0 = getattr(cfg0, name)
        for t in tasks[1:]:
            if getattr(t.config, name) != v0:
                return f"config field {name!r} differs across runs"
    s_type = type(tasks[0].scheduler)
    for t in tasks[1:]:
        if type(t.scheduler) is not s_type:
            return "scheduler types differ across runs"
    if len({id(t.scheduler) for t in tasks}) != len(tasks):
        return "the same scheduler instance appears in multiple runs"
    return None


def run_batch(tasks, instrumentation: Instrumentation | None = None):
    """Execute ``tasks`` as one run-stacked batch; results in task order.

    Bit-identical to ``[Simulation(t.config, t.scheduler, t.workload).run()
    for t in tasks]``.  Raises
    :class:`~repro.errors.ConfigurationError` when the tasks are not
    batch-compatible (see :func:`batch_incompatibility`).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    return BatchPlan(tasks).run(instrumentation)


class BatchPlan:
    """R validated, workload-resolved runs ready for stacked execution."""

    def __init__(self, tasks):
        self.tasks = list(tasks)
        reason = batch_incompatibility(self.tasks)
        if reason is not None:
            raise ConfigurationError(f"runs cannot be batched: {reason}")
        #: One metrics state per run, in task order, populated by a
        #: stacked instrumented execution (empty on uninstrumented or
        #: one-segment runs, which record straight into the bundle).
        #: Each state holds exactly the single increment per counter a
        #: lone run would apply, so merging them in task order — locally
        #: or across a process pool — reproduces the run-by-run registry
        #: bit-for-bit.
        self.run_metric_states: list[dict] = []
        self.workloads = [
            resolve_workload(t.config, getattr(t, "workload", None))
            for t in self.tasks
        ]

    @property
    def n_runs(self) -> int:
        return len(self.tasks)

    def run(
        self, instrumentation: Instrumentation | None = None
    ) -> list[SimulationResult]:
        """Execute the batch: one stacked loop, or run by run when it must."""
        instr = (
            instrumentation
            if instrumentation is not None
            else current_instrumentation()
        )
        self.run_metric_states = []
        if len(self.tasks) == 1 or (
            instr is not None and (instr.live is not None or instr.tracer.enabled)
        ):
            # Per-slot trace events and live telemetry consume a run's
            # own slot stream, so each run is a one-segment loop.
            return [
                Simulation(t.config, t.scheduler, wl, instrumentation=instr).run()
                for t, wl in zip(self.tasks, self.workloads)
            ]
        results, self.run_metric_states = run_segments(
            self.tasks, self.workloads, instr, self._make_scheduler
        )
        return results

    # -- scheduler stacking ---------------------------------------------------

    def _make_scheduler(self, run_offsets: np.ndarray):
        scheds = [t.scheduler for t in self.tasks]
        s0 = scheds[0]
        s_type = type(s0)
        n_per_run = int(run_offsets[1] - run_offsets[0])
        if s_type is RTMAScheduler:
            return _BatchRTMA(scheds, run_offsets)
        if s_type is EMAScheduler:
            if all(s.n_users == n_per_run for s in scheds) and all(
                s.tau_s == s0.tau_s for s in scheds
            ):
                return _BatchEMA(scheds, run_offsets)
            return _SlicedBatch(scheds, run_offsets)
        params = _CLIP_SHARED_PARAMS.get(s_type)
        if params is not None and all(
            getattr(s, a) == getattr(s0, a) for s in scheds[1:] for a in params
        ):
            return s0
        return _SlicedBatch(scheds, run_offsets)


# -- scheduler adapters -------------------------------------------------------


class _BatchRTMA(Scheduler):
    """R :class:`~repro.core.rtma.RTMAScheduler` runs on stacked rows.

    Per-run thresholds broadcast to per-lane arrays; the eligibility,
    need, and cap chains are the serial ufunc chains evaluated on the
    stacked rows, the rate order is a per-run 2-D stable argsort (row
    ``r`` equals run ``r``'s serial 1-D stable argsort), and the
    ``rtma_rounds_batch`` kernel runs the serial round body per
    segment against that run's budget.
    """

    name = "rtma"

    def __init__(self, scheds, run_offsets: np.ndarray):
        self.scheds = list(scheds)
        self.run_offsets = run_offsets
        self.n_runs = len(self.scheds)
        self.n_per_run = int(run_offsets[1] - run_offsets[0])
        n_total = int(run_offsets[-1])
        self._thr_lanes = np.repeat(
            np.array([s.sig_threshold_dbm for s in self.scheds], dtype=float),
            self.n_per_run,
        )
        self._eligible = np.empty(n_total, dtype=bool)
        self._b_tmp = np.empty(n_total, dtype=bool)
        self._need = np.empty(n_total, dtype=np.int64)
        self._cap = np.empty(n_total, dtype=np.int64)
        self._f_tmp = np.empty(n_total, dtype=float)
        self._kernel = None

    def allocate(self, obs: SlotObservation) -> np.ndarray:
        phi = self._zeros(obs)
        eligible = self._eligible
        np.greater_equal(obs.sig_dbm, self._thr_lanes, out=eligible)
        np.logical_and(eligible, obs.active, out=eligible)
        np.greater(obs.link_units, 0, out=self._b_tmp)
        np.logical_and(eligible, self._b_tmp, out=eligible)
        if not np.any(eligible):
            return phi

        f = self._f_tmp
        need = self._need
        np.multiply(obs.rate_kbps, obs.tau_s, out=f)
        np.divide(f, obs.delta_kb, out=f)
        np.ceil(f, out=f)
        np.copyto(need, f, casting="unsafe")
        np.maximum(need, 1, out=need)
        cap = self._cap
        np.minimum(obs.remaining_kb, obs.receivable_kb, out=f)
        np.divide(f, obs.delta_kb, out=f)
        np.ceil(f, out=f)
        np.copyto(cap, f, casting="unsafe")
        np.minimum(obs.link_units, cap, out=cap)

        order = np.argsort(
            obs.rate_kbps.reshape(self.n_runs, self.n_per_run),
            axis=1,
            kind="stable",
        ).reshape(-1)
        if self._kernel is None:
            self._kernel = kernel_registry.resolve("rtma_rounds_batch")
        self._kernel(
            phi, eligible, need, cap, order,
            obs.run_unit_budgets, self.run_offsets,
        )
        return phi

    def reset(self) -> None:
        for s in self.scheds:
            s.reset()
        self._kernel = None


class _BatchEMA(Scheduler):
    """R :class:`~repro.core.ema.EMAScheduler` runs on stacked rows.

    One stacked :class:`~repro.core.lyapunov.VirtualQueues` holds every
    run's ``PC_i``; per-run scalars (``V``, queue floor, seeding) become
    per-lane arrays, and the serial coefficient chain runs on the
    packed active rows of all runs at once — every operation is
    elementwise, so each lane sees exactly its serial arithmetic.  The
    ``ema_dp_batch`` kernel then solves each run's knapsack against its
    own budget.
    """

    name = "ema"

    def __init__(self, scheds, run_offsets: np.ndarray):
        self.scheds = list(scheds)
        self.run_offsets = run_offsets
        self.n_runs = len(self.scheds)
        self.n_per_run = int(run_offsets[1] - run_offsets[0])
        n_total = int(run_offsets[-1])
        self.n_total = n_total
        self.tau_s = self.scheds[0].tau_s
        self.queues = VirtualQueues(n_total, self.tau_s)
        self._initialized = np.zeros(n_total, dtype=bool)

        rep = self.n_per_run
        self._v_lanes = np.repeat(
            np.array([s.v_param for s in self.scheds], dtype=float), rep
        )
        self._has_floor = any(s.queue_floor_s is not None for s in self.scheds)
        self._floor_lanes = np.repeat(
            np.array(
                [
                    -np.inf if s.queue_floor_s is None else float(s.queue_floor_s)
                    for s in self.scheds
                ],
                dtype=float,
            ),
            rep,
        )
        self._auto_lanes = np.repeat(
            np.array(
                [isinstance(s.queue_init, str) for s in self.scheds], dtype=bool
            ),
            rep,
        )
        self._all_auto = bool(self._auto_lanes.all())
        self._init_lanes = np.repeat(
            np.array(
                [
                    0.0 if isinstance(s.queue_init, str) else float(s.queue_init)
                    for s in self.scheds
                ],
                dtype=float,
            ),
            rep,
        )
        # Serial seeding computes the python-float product
        # v_param * typical_p before broadcasting over rates; repeat
        # that exact scalar product per lane.
        self._vp_lanes = np.repeat(
            np.array(
                [float(s.v_param * s.typical_p_mj_per_kb) for s in self.scheds],
                dtype=float,
            ),
            rep,
        )

        # Coefficient scratch over the packed active rows (worst case
        # every row active), mirroring _EmaScratch's layout.
        self._p = np.empty(n_total, dtype=float)
        self._rate = np.empty(n_total, dtype=float)
        self._pc = np.empty(n_total, dtype=float)
        self._tmp = np.empty(n_total, dtype=float)
        self._f1 = np.empty(n_total, dtype=float)
        self._f2 = np.empty(n_total, dtype=float)
        self._slope = np.empty(n_total, dtype=float)
        self._const = np.empty(n_total, dtype=float)
        self._idle = np.empty(n_total, dtype=float)
        self._useful = np.empty(n_total, dtype=np.int64)
        self._w_eff = np.empty(n_total, dtype=np.int64)
        self._origin = np.empty(n_total, dtype=np.int64)
        self._mask = np.empty(n_total, dtype=bool)
        self._nst_lanes = np.empty(n_total, dtype=np.int64)
        self._v_act = np.empty(n_total, dtype=float)
        self._nst_act = np.empty(n_total, dtype=np.int64)
        self._rows_flat = np.empty(0, dtype=float)
        self._fscratch = np.empty(0, dtype=float)
        self._iscratch = np.empty(0, dtype=np.int64)
        self._m_idx = np.empty(0, dtype=float)
        self._kernel = None

    def _dp_capacity(self, rows_needed: int, n_states: int) -> None:
        if self._rows_flat.size < rows_needed:
            self._rows_flat = np.empty(rows_needed, dtype=float)
        if self._fscratch.size < 4 * n_states:
            self._fscratch = np.empty(4 * n_states, dtype=float)
        if self._iscratch.size < n_states:
            self._iscratch = np.empty(n_states, dtype=np.int64)
        if self._m_idx.size < n_states:
            self._m_idx = np.arange(n_states, dtype=float)

    def allocate(self, obs: SlotObservation) -> np.ndarray:
        phi = self._zeros(obs)
        self._seed_queues(obs)
        active_idx = np.flatnonzero(obs.active)
        budgets = obs.run_unit_budgets
        if active_idx.size == 0 or not np.any(budgets > 0):
            return phi
        act_bounds = np.searchsorted(active_idx, self.run_offsets).astype(
            np.int64
        )

        pc = self.queues.values
        tau = self.tau_s
        delta = obs.delta_kb
        n_active = int(active_idx.size)

        # The serial coefficient chain with per-lane V in place of the
        # scalar; every op is elementwise, so the packed vector is the
        # concatenation of the runs' serial vectors.
        p_act = np.take(obs.p_mj_per_kb, active_idx, out=self._p[:n_active])
        rate_act = np.take(obs.rate_kbps, active_idx, out=self._rate[:n_active])
        pc_act = np.take(pc, active_idx, out=self._pc[:n_active])
        v_act = np.take(self._v_lanes, active_idx, out=self._v_act[:n_active])
        const_act = self._const[:n_active]
        np.multiply(pc_act, tau, out=const_act)
        idle_act = self._idle[:n_active]
        np.take(obs.idle_tail_cost_mj, active_idx, out=idle_act)
        np.multiply(idle_act, v_act, out=idle_act)
        np.add(const_act, idle_act, out=idle_act)
        slope_act = self._slope[:n_active]
        tmp = self._tmp[:n_active]
        with np.errstate(invalid="ignore"):
            np.multiply(p_act, v_act, out=slope_act)
            np.divide(pc_act, rate_act, out=tmp)
            np.subtract(slope_act, tmp, out=slope_act)
            np.multiply(slope_act, delta, out=slope_act)

        # Per-run n_states = budget + 1 broadcast to lanes, then the
        # serial w_eff chain with the per-lane array in the final
        # np.minimum.
        nst2 = self._nst_lanes.reshape(self.n_runs, self.n_per_run)
        nst2[:, :] = (budgets + 1)[:, None]
        sendable = np.take(obs.remaining_kb, active_idx, out=self._f1[:n_active])
        recv = np.take(obs.receivable_kb, active_idx, out=self._f2[:n_active])
        np.minimum(sendable, recv, out=sendable)
        np.divide(sendable, delta, out=sendable)
        np.ceil(sendable, out=sendable)
        useful = self._useful[:n_active]
        np.copyto(useful, sendable, casting="unsafe")
        w_eff = self._w_eff[:n_active]
        np.take(obs.link_units, active_idx, out=w_eff)
        np.minimum(w_eff, useful, out=w_eff)
        nst_act = np.take(
            self._nst_lanes, active_idx, out=self._nst_act[:n_active]
        )
        np.minimum(w_eff, nst_act, out=w_eff)
        mask = self._mask[:n_active]
        np.isfinite(p_act, out=mask)
        np.logical_not(mask, out=mask)
        np.copyto(w_eff, 0, where=mask)
        origin_act = self._origin[:n_active]
        np.floor_divide(w_eff, 2, out=origin_act)
        np.subtract(w_eff, origin_act, out=origin_act)
        np.subtract(origin_act, 1, out=origin_act)

        seg_sizes = np.diff(act_bounds)
        na_max = int(seg_sizes.max())
        ns_max = int(budgets.max()) + 1
        self._dp_capacity(na_max * ns_max, ns_max)
        if self._kernel is None:
            self._kernel = kernel_registry.resolve("ema_dp_batch")
        self._kernel(
            phi,
            active_idx,
            act_bounds,
            budgets,
            w_eff,
            origin_act,
            slope_act,
            const_act,
            idle_act,
            self._rows_flat,
            self._m_idx,
            self._fscratch,
            self._iscratch,
        )
        return phi

    def _seed_queues(self, obs: SlotObservation) -> None:
        fresh = obs.active & ~self._initialized
        if not np.any(fresh):
            return
        seed = self._vp_lanes * obs.rate_kbps
        if not self._all_auto:
            seed = np.where(self._auto_lanes, seed, self._init_lanes)
        self.queues.values = np.where(fresh, seed, self.queues.values)
        self._initialized |= fresh

    def notify(
        self, obs: SlotObservation, phi: np.ndarray, delivered_kb: np.ndarray
    ) -> None:
        t = np.asarray(delivered_kb, dtype=float) / obs.rate_kbps
        self.queues.update(t, obs.active)
        if self._has_floor:
            # Floorless lanes carry -inf: np.maximum(x, -inf) is the
            # bitwise identity for the non-NaN values PC_i takes.
            np.maximum(
                self.queues.values, self._floor_lanes, out=self.queues.values
            )

    def finalize_batch(self, metrics) -> None:
        """Publish the serial run sequence's *final* gauge state.

        Serial runs publish ``ema.virtual_queues`` after every slot;
        gauges are last-write-wins, so the post-sequence state is the
        last run's final queues — exactly this batch's last lane slice.
        ``metrics`` is the last run's per-run registry.
        """
        lo = int(self.run_offsets[-2])
        hi = int(self.run_offsets[-1])
        pc = self.queues.values[lo:hi].copy()
        metrics.gauge("ema.virtual_queues").set(pc)
        metrics.gauge("ema.virtual_queue_max_s").set(float(pc.max()))

    def reset(self) -> None:
        self.queues = VirtualQueues(self.n_total, self.tau_s)
        self._initialized[:] = False
        self._kernel = None
        for s in self.scheds:
            s.reset()


class _SlicedBatch(Scheduler):
    """Fallback adapter: per-run schedulers on per-run observation views.

    Always bit-identical for *any* scheduler (including the error it
    would raise): each run's instance sees a plain
    :class:`~repro.net.gateway.SlotObservation` whose arrays are that
    run's contiguous row segment and whose budget/capacity are that
    run's scalars.  Used when runs carry unequal baseline parameters or
    a scheduler type the stacking adapters don't know.
    """

    def __init__(self, scheds, run_offsets: np.ndarray):
        self.scheds = list(scheds)
        self.run_offsets = run_offsets
        self.name = getattr(self.scheds[0], "name", type(self.scheds[0]).__name__)
        self._last_obs: list[SlotObservation] | None = None

    def bind_instrumentation(self, instrumentation) -> None:
        self.instrumentation = instrumentation
        for s in self.scheds:
            s.bind_instrumentation(instrumentation)

    def allocate(self, obs: SlotObservation) -> np.ndarray:
        phi = np.zeros(obs.n_users, dtype=np.int64)
        off = self.run_offsets
        views = []
        for r, s in enumerate(self.scheds):
            lo = int(off[r])
            hi = int(off[r + 1])
            obs_r = SlotObservation(
                slot=obs.slot,
                tau_s=obs.tau_s,
                delta_kb=obs.delta_kb,
                capacity_kbps=float(obs.run_capacity_kbps[r]),
                unit_budget=int(obs.run_unit_budgets[r]),
                sig_dbm=obs.sig_dbm[lo:hi],
                rate_kbps=obs.rate_kbps[lo:hi],
                link_units=obs.link_units[lo:hi],
                p_mj_per_kb=obs.p_mj_per_kb[lo:hi],
                active=obs.active[lo:hi],
                buffer_s=obs.buffer_s[lo:hi],
                remaining_kb=obs.remaining_kb[lo:hi],
                idle_tail_cost_mj=obs.idle_tail_cost_mj[lo:hi],
                receivable_kb=obs.receivable_kb[lo:hi],
            )
            views.append(obs_r)
            phi[lo:hi] = np.asarray(s.allocate(obs_r))
        self._last_obs = views
        return phi

    def notify(
        self, obs: SlotObservation, phi: np.ndarray, delivered_kb: np.ndarray
    ) -> None:
        views = self._last_obs
        off = self.run_offsets
        for r, s in enumerate(self.scheds):
            lo = int(off[r])
            hi = int(off[r + 1])
            s.notify(views[r], phi[lo:hi], delivered_kb[lo:hi])

    def reset(self) -> None:
        self._last_obs = None
        for s in self.scheds:
            s.reset()
