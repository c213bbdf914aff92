"""The slot-driven simulation engine.

Each slot runs the paper's pipeline in order:

1. **Playback phase** — every client applies Eq. (7) with the media
   delivered last slot, records this slot's rebuffering (Eq. 8), and
   plays;
2. **Observation** — the gateway's Information Collector assembles the
   cross-layer :class:`~repro.net.gateway.SlotObservation` (RSSI,
   required rates, BS slice capacity, client feedback, prospective tail
   costs);
3. **Scheduling** — the policy returns ``phi_i(n)``, validated against
   constraints (1)-(2) (a violating policy raises, it never cheats);
4. **Transmission** — shards flow to the clients, truncated to each
   session's remaining bytes and receive window; transmission energy is
   ``P(sig_i) * delivered`` (Eq. 3);
5. **Radio accounting** — the RRC fleet advances: transmitting users
   reset their tails, idle users accrue incremental tail energy
   (Eq. 4/5);
6. **Feedback** — the scheduler's ``notify`` hook sees the delivered
   amounts (EMA updates its virtual queues here).

One slot loop serves every run.  :func:`run_segments` stacks ``R >= 1``
runs as row segments of one fleet: a single run (every
:meth:`Simulation.run`, and every run that must run alone) is the
``R = 1`` case, and :mod:`repro.sim.batch` stacks ``R > 1``
batch-compatible runs, whose populations may differ (run ``r`` owns
``N_r`` rows).  The set-up is the same for both: per-run Eq. (2)
budget tables from each run's capacity model and slicer, the Eq. (24)
link/power tables computed per block of slots from the fault-applied
signal trace, and per-run ``(n_slots, N_r)`` result grids that are the
runs' results.  Transmission energy and required data are not
recorded: :class:`~repro.sim.results.SimulationResult` derives them
from the deliveries and the workload.  Without
churn (:attr:`~repro.sim.config.SimConfig.has_churn` false) the fleet's
row space *is* the runs' session space, fixed at construction, and each
slot's rows go straight into the session-keyed result grids (through
per-block staging rows, flushed run slice by run slice, when
``R > 1``).  With churn
(``R = 1`` only), a :class:`~repro.sim.sessions.SessionManager` admits
arrivals into a growable row space at slot start, retires completed
sessions at slot end, and each slot's row-space vectors are scattered
into the session grids through its ``row -> session`` map.

The engine is deliberately strict: it asserts conservation invariants
as it goes (delivered bytes never exceed capacity or session size) and
fails loudly on scheduler misbehaviour.

Observability: pass an :class:`~repro.obs.instrument.Instrumentation`
bundle (or establish one ambiently with
:func:`~repro.obs.instrument.use_instrumentation`) and the engine times
every phase, counts slots/energy into the metrics registry, and emits
one ``"slot"`` trace event per simulated slot (per-slot traces and the
live plane need a run's own slot stream, so they run with ``R = 1``).
Instrumentation is strictly observational — instrumented and plain
runs are bit-identical.
"""

from __future__ import annotations

import logging
from contextlib import ExitStack
from time import perf_counter

import numpy as np

from repro.core.admission import AdmissionContext, make_admission_policy
from repro.core.allocation import check_constraints
from repro.errors import SimulationError
from repro.faults import current_fault_plan
from repro.kernels import SlotArena, backend_info, use_backend
from repro.media.fleet import ClientFleet
from repro.net.basestation import ConstantCapacity, FaultyCapacity
from repro.net.gateway import Gateway
from repro.net.slicing import ResourceSlicer
from repro.obs.instrument import Instrumentation, current_instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SLOT_PREFIX, activate_spans
from repro.radio.rrc import RRCFleet, fleet_occupancy_from_tx
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult, transmission_energy_mj
from repro.sim.sessions import INITIAL_CAPACITY, SessionManager
from repro.sim.workload import Workload, resolve_workload

__all__ = ["Simulation", "run_segments"]

log = logging.getLogger("repro.sim.engine")

#: Scheduler attributes worth pinning in the trace's ``run.start``
#: event — the invariant checkers key off these (RTMA's Eq. 10/12
#: budget and threshold, EMA's Lyapunov V and queue floor).
_TRACED_SCHEDULER_PARAMS = (
    "sig_threshold_dbm",
    "energy_budget_mj_per_slot",
    "v_param",
    "queue_floor_s",
)


#: Slots per hierarchical-span slot block: the engine closes one
#: ``run;slots`` span every this many slots (same batching idea as the
#: live plane's ``watch_every``) so block accounting costs the hot loop
#: a single comparison per slot.
SPAN_BLOCK_SLOTS = 64

#: Slots per block of the Eq. (24) link/power tables and, when
#: ``R > 1``, of the slot-major staging rows flushed into the per-run
#: result grids: the loop holds a block of slots, never the horizon, of
#: either.
SLOT_BLOCK_SLOTS = 64

#: Signal a vacant churn row observes (its link/power columns are this
#: signal's Eq. 24 values; vacant rows are inactive and get nothing).
VACANT_SIG_DBM = -110.0

#: The slot pipeline's phases, in order.
SLOT_PHASES = ("playback", "observe", "schedule", "transmit", "rrc", "feedback")

#: dtypes of the recorded result grids: allocation, delivered,
#: rebuffering, tail energy, buffer, active.
_GRID_DTYPES = (np.int64, float, float, float, float, bool)


def _emit_fault_windows(tracer, plan) -> None:
    """One ``fault.window`` trace event per injected window, emitted at
    run start so trace analysis sees the full plan before any slot."""
    for w in plan.signal:
        tracer.emit(
            "fault.window",
            fault="signal",
            start_slot=w.start_slot,
            n_slots=w.n_slots,
            users=list(w.users) if w.users is not None else None,
            level_dbm=w.level_dbm,
        )
    for w in plan.capacity:
        tracer.emit(
            "fault.window",
            fault="capacity",
            start_slot=w.start_slot,
            n_slots=w.n_slots,
            factor=w.factor,
        )
    for w in plan.stalls:
        tracer.emit(
            "fault.window",
            fault="stall",
            start_slot=w.start_slot,
            n_slots=w.n_slots,
            users=list(w.users),
        )


def _fault_counters(metrics, plan, outage_mask, gamma: int) -> None:
    """Batch-derived ``fault.*`` counters (only created on faulted runs,
    so healthy-path registries stay byte-identical to the seed)."""
    metrics.counter("fault.outage_slots").inc(int(outage_mask.sum()))
    if plan.signal:
        metrics.counter("fault.signal_slots").inc(
            int(plan.signal_slot_mask(gamma).sum())
        )
    if plan.capacity:
        metrics.counter("fault.capacity_slots").inc(
            int(plan.capacity_slot_mask(gamma).sum())
        )
    if plan.stalls:
        metrics.counter("fault.stall_slots").inc(
            int(plan.stall_slot_mask(gamma).sum())
        )


def _scheduler_trace_params(scheduler) -> dict:
    """The scheduler's traced parameters (missing attributes skipped)."""
    out = {}
    for attr in _TRACED_SCHEDULER_PARAMS:
        if hasattr(scheduler, attr):
            value = getattr(scheduler, attr)
            if value is None or isinstance(value, (int, float)):
                out[attr] = value
    return out


def abort_run(instr, exc, slot, what="run", scheduler_name=None) -> None:
    """Leave a valid, parseable trace prefix behind a crashed (or
    SLO-aborted) run: emit one final ``run.abort``, abort the live run,
    then flush and close the bundle.  The caller re-raises."""
    log.warning(
        "%s aborted at slot %d: %s: %s", what, slot, type(exc).__name__, exc
    )
    if instr.tracer.enabled:
        instr.tracer.emit(
            "run.abort",
            scheduler=scheduler_name,
            slot=slot,
            error=type(exc).__name__,
            message=str(exc),
        )
    if instr.live is not None:
        instr.live.abort_run(f"{type(exc).__name__}: {exc}")
    instr.close()


def record_run_metrics(
    metrics, cfg: SimConfig, alloc, delivered, e_trans, e_tail, budgets, sessions=None
) -> None:
    """One run's registry accounting, derived from its recorded grids.

    Identical totals to per-slot increments, in a few vectorised
    operations.  ``sessions`` (churn runs only) carries the
    admitted/rejected/completed counts.
    """
    kinfo = backend_info()
    metrics.gauge("kernels.backend").set(kinfo["resolved"])
    metrics.gauge("kernels.requested").set(kinfo["requested"])
    if kinfo["numba_version"] is not None:
        metrics.gauge("kernels.numba_version").set(kinfo["numba_version"])
    metrics.counter("engine.slots").inc(cfg.n_slots)
    metrics.counter("energy.trans_mj").inc(float(e_trans.sum()))
    metrics.counter("rrc.tail_mj").inc(float(e_tail.sum()))
    occupancy = fleet_occupancy_from_tx(delivered > 0.0, cfg.tau_s, cfg.radio.rrc)
    metrics.counter("rrc.occupancy.dch").inc(occupancy["dch"])
    metrics.counter("rrc.occupancy.fach").inc(occupancy["fach"])
    metrics.counter("rrc.occupancy.idle").inc(occupancy["idle"])
    metrics.counter("scheduler.invocations").inc(cfg.n_slots)
    if sessions is not None:
        for key in ("admitted", "rejected", "completed"):
            metrics.counter(f"sessions.{key}").inc(sessions[key])
    used_units = alloc.sum(axis=1)
    near_miss = int(np.count_nonzero((budgets > 0) & (used_units > 0.9 * budgets)))
    metrics.counter("allocation.near_miss").inc(near_miss)
    truncated = float(np.maximum(alloc * cfg.delta_kb - delivered, 0.0).sum())
    metrics.counter("allocation.truncated_kb").inc(truncated)


class Simulation:
    """One scheduler, one workload, one run.

    Parameters
    ----------
    config:
        The run parameters.
    scheduler:
        Any :class:`~repro.core.scheduler.Scheduler`.
    workload:
        Pre-generated workload; ``None`` generates one from the
        config's seed.  Pass the same :class:`Workload` object to
        several simulations to compare schedulers head-to-head.
    instrumentation:
        Optional observability bundle.  ``None`` falls back to the
        ambient bundle established by
        :func:`~repro.obs.instrument.use_instrumentation` (and runs
        fully uninstrumented when there is none).
    """

    def __init__(
        self,
        config: SimConfig,
        scheduler,
        workload: Workload | None = None,
        instrumentation: Instrumentation | None = None,
    ):
        self.config = config
        self.scheduler = scheduler
        self.instrumentation = instrumentation
        self.workload = resolve_workload(config, workload)

    def run(self) -> SimulationResult:
        """Execute the full horizon and return the result record."""
        instr = (
            self.instrumentation
            if self.instrumentation is not None
            else current_instrumentation()
        )
        results, _ = run_segments([self], [self.workload], instr)
        return results[0]


def run_segments(tasks, workloads, instr, stack_scheduler=None):
    """Run ``R = len(tasks)`` runs as row segments of one slot loop.

    ``tasks`` expose ``.config`` and ``.scheduler``; ``workloads`` are
    their resolved workloads.  Every slot's
    :class:`~repro.net.gateway.SlotObservation` carries the per-run
    segment bounds and Eq. (2) budgets.  With ``R == 1`` the run's own
    scheduler serves its one segment, and churn, fault plans, per-slot
    traces and the live plane all apply.  With ``R > 1`` the runs must
    be batch-compatible and untraced (see :mod:`repro.sim.batch`):
    ``stack_scheduler(run_offsets)`` builds the scheduler serving the
    stacked rows, whose ``finalize_runs(registries)`` publishes its
    final gauge state into the per-run registries after the loop.

    Returns ``(results, run_metric_states)``: one result per run in
    task order, and — for an instrumented ``R > 1`` loop — one metrics
    state per run, for the caller to merge into the bundle (a single
    run records straight into the bundle and returns none).
    """
    backend = tasks[0].config.kernel_backend
    with ExitStack() as stack:
        if backend is not None:
            # The whole run — including scheduler.reset(), which clears
            # cached kernel resolutions — executes under the configured
            # backend.
            stack.enter_context(use_backend(backend))
        if instr is not None:
            # Activate the recorder for the *whole* loop — scheduler
            # reset and the lazy fleet/RRC kernel resolutions all happen
            # inside, so every registry-resolved kernel self-reports.
            stack.enter_context(activate_spans(instr.spans))
            stack.enter_context(instr.spans.span("run"))
        return _slot_loop(tasks, workloads, instr, stack_scheduler)


def _eq24_tables(radio, sig_dbm: np.ndarray, tau_s: float, delta_kb: float):
    """Eq. (24) link caps and per-KB energy for a whole signal array.

    The models' ``out=``-path is the ufunc chain a per-slot evaluation
    runs, and every op is elementwise, so each element is bitwise what
    that slot's evaluation gives.
    """
    link = np.empty(sig_dbm.shape, dtype=np.int64)
    p = np.empty(sig_dbm.shape, dtype=float)
    scratch = np.empty(sig_dbm.shape, dtype=float)
    radio.throughput.max_units(sig_dbm, tau_s, delta_kb, out=link, scratch=scratch)
    radio.power.p(sig_dbm, out=p, scratch=scratch)
    return link, p


def _slot_loop(tasks, workloads, instr, stack_scheduler):
    cfg = tasks[0].config
    radio = cfg.radio
    n_runs = len(tasks)
    # n: the population of a lone run (churn, faults and traces are
    # R = 1 features); a stack's runs own segments of their own widths.
    n, gamma = cfg.n_users, cfg.n_slots
    widths = [t.config.n_users for t in tasks]
    run_offsets = np.zeros(n_runs + 1, dtype=np.int64)
    np.cumsum(widths, out=run_offsets[1:])
    total = int(run_offsets[-1])
    churn = cfg.has_churn

    # Fault injection: a plan on the config wins; otherwise the
    # ambient plan (repro-experiments --faults) applies.  With
    # neither, every fault hook below compiles to the historical
    # no-op path — bit-identical to the seed behaviour.
    plan = cfg.faults if cfg.faults is not None else current_fault_plan()
    faults_on = plan is not None and not plan.is_empty

    instrumented = instr is not None
    live = instr.live if instrumented else None
    live_on = live is not None
    if instrumented:
        tracer = instr.tracer
        trace_on = tracer.enabled
        _pc = perf_counter
        # The block node and the phase nodes are interned before the
        # scheduler resets, in pipeline order, so they precede the
        # kernel nodes resolved mid-run and the flame graph reads like
        # a slot.  Observe, schedule and transmit are timed inside the
        # gateway.
        spans = instr.spans
        rec_block = spans.adder(spans.path_node(SLOT_PREFIX))
        rec = {ph: spans.adder(spans.slot_phase_id(ph)) for ph in SLOT_PHASES}
        rec_playback, rec_rrc, rec_feedback = (
            rec["playback"], rec["rrc"], rec["feedback"]
        )
        gateway_timers = (rec["observe"], rec["schedule"], rec["transmit"])
    else:
        gateway_timers = None

    scheduler = tasks[0].scheduler if n_runs == 1 else stack_scheduler(run_offsets)
    scheduler.reset()
    scheduler.bind_instrumentation(instr)
    flows = [f for wl in workloads for f in wl.flows]
    # Row space: every run's whole population without churn; otherwise
    # a small capacity the session manager doubles on demand.
    if churn:
        rows = min(n, INITIAL_CAPACITY)
        fleet = ClientFleet.with_capacity(rows, cfg.tau_s, cfg.buffer_capacity_s)
    else:
        rows = total
        fleet = ClientFleet(flows, cfg.tau_s, cfg.buffer_capacity_s)
    # All per-row observation/transmit buffers for the whole run;
    # the slot loop allocates no array at steady state.
    arena = SlotArena(rows)
    rrc = RRCFleet(rows, radio.rrc)
    gateway = Gateway(scheduler, cfg.tau_s, cfg.delta_kb)
    if churn:
        # Row-capacity alignment: stateful schedulers built for
        # cfg.n_users shrink once here, before any state accrues.
        scheduler.grow_users(rows)
        mgr = SessionManager(flows, fleet, rrc, arena, scheduler)
        policy = make_admission_policy(cfg)
        policy.reset()
        departure = np.full(n, -1, dtype=np.int64)

    # Per-run Eq. (2) budgets through each run's own capacity model
    # and slicer, with the scalar chain a slot evaluates.  Without
    # background traffic or capacity faults both are slot-invariant and
    # one evaluation covers the horizon; otherwise every slot is
    # evaluated, run-major, so a stateful slicer sees its run's slots
    # in order.
    cap_models = [ConstantCapacity(t.config.capacity_kbps) for t in tasks]
    varying = any(t.config.background is not None for t in tasks)
    if faults_on and plan.capacity:
        factors = plan.capacity_factors(gamma)
        cap_models = [FaultyCapacity(m, factors) for m in cap_models]
        varying = True
    slicers = [
        ResourceSlicer(t.config.background) if t.config.background else ResourceSlicer()
        for t in tasks
    ]
    n_eval = gamma if varying else 1
    cap_table = np.empty((n_eval, n_runs), dtype=float)
    for r, (model, slicer) in enumerate(zip(cap_models, slicers)):
        for slot in range(n_eval):
            cap = model.capacity_kbps(slot)
            cap_table[slot, r] = slicer.video_capacity_kbps(cap, slot)
    budget_table = np.floor(cfg.tau_s * cap_table / cfg.delta_kb).astype(np.int64)
    if not varying:
        cap_table = np.broadcast_to(cap_table, (gamma, n_runs))
        budget_table = np.broadcast_to(budget_table, (gamma, n_runs))

    # Per-run result grids: run r's record is grids[r], C-contiguous
    # (n_slots, N_r) arrays handed out without a copy, which reduce
    # exactly like a lone run's.  A slot writes one row per grid into
    # slot-major staging rows; with R = 1 those are the grids' own rows,
    # otherwise a block buffer flushed, run slice by run slice, every
    # SLOT_BLOCK_SLOTS slots.
    grids = [
        tuple(np.zeros((gamma, w), dtype=dt) for dt in _GRID_DTYPES)
        for w in widths
    ]
    if n_runs > 1:
        staging = tuple(
            np.empty((SLOT_BLOCK_SLOTS, total), dtype=dt) for dt in _GRID_DTYPES
        )
    # The lone run's grids, which the live plane reads while it runs.
    _, delivered, rebuf, e_tail, buffer_s, _ = grids[0]
    completion = np.full(total, -1, dtype=np.int64)

    signals = [wl.signal_dbm[:gamma] for wl in workloads]
    stall_grid = outage_mask = stall_row = None
    if faults_on:
        # Blackouts are applied to a *copy* of the generated trace
        # (the workload object itself is shared across schedulers
        # and must stay pristine), and the stall/outage masks are
        # precomputed once — the slot loop pays one row lookup.
        # Windows name sessions; churn runs gather them into rows.
        signals = [plan.apply_signal(signals[0])]
        stall_grid = plan.stall_grid(gamma, n)
        outage_mask = plan.outage_slot_mask(gamma)
    if churn:
        vacant_link, vacant_p = _eq24_tables(
            radio, np.array([VACANT_SIG_DBM]), cfg.tau_s, cfg.delta_kb
        )
    arrivals = np.array([f.arrival_slot for f in flows], dtype=np.int64)

    scheduler_name = getattr(scheduler, "name", type(scheduler).__name__)
    if instrumented and trace_on:
        # Run boundary + the parameters trace analysis needs to
        # segment multi-run traces and select invariant checkers.
        tracer.emit(
            "run.start",
            scheduler=scheduler_name,
            n_users=n,
            n_slots=gamma,
            tau_s=cfg.tau_s,
            delta_kb=cfg.delta_kb,
            seed=cfg.seed,
            kernel_backend=backend_info()["resolved"],
            **(
                {"arrival_process": cfg.arrival_process, "admission": cfg.admission}
                if churn
                else {}
            ),
            rrc={
                "pd_mw": radio.rrc.pd_mw,
                "pf_mw": radio.rrc.pf_mw,
                "t1_s": radio.rrc.t1_s,
                "t2_s": radio.rrc.t2_s,
            },
            params=_scheduler_trace_params(scheduler),
            **({"faults": plan.spec()} if faults_on else {}),
        )
        if faults_on:
            _emit_fault_windows(tracer, plan)
    if live_on:
        live.begin_run(scheduler_name, n_slots=gamma, n_users=n)
        live_every = live.watch_every
        live_start = 0
    if instrumented:
        span_block_start = 0
        _block_t0 = perf_counter()

    # Without churn every slot's row vectors are the result grids'
    # rows; with churn they are arena rows scattered after the slot.
    joined, departed = None, None
    row_offsets = run_offsets
    slot = -1
    block_start = block_end = 0
    try:
        for slot in range(gamma):
            if slot == block_end:
                # Next block of slots: the Eq. (24) link/power tables of
                # every run in one vectorized 2-D pass over the
                # (fault-applied) signal, and the rows slots write to.
                block_start, block_end = slot, min(slot + SLOT_BLOCK_SLOTS, gamma)
                if n_runs == 1:
                    sig_block = signals[0][block_start:block_end]
                    stage = tuple(g[block_start:block_end] for g in grids[0])
                else:
                    sig_block = np.concatenate(
                        [sig[block_start:block_end] for sig in signals], axis=1
                    )
                    stage = staging
                link_block, p_block = _eq24_tables(
                    radio, sig_block, cfg.tau_s, cfg.delta_kb
                )
                st_alloc, st_delivered, st_rebuf, st_tail, st_buffer, st_active = (
                    stage
                )
            i = slot - block_start
            if churn:
                # 0. Session lifecycle: roll the join/depart masks,
                #    then admit (or reject) every session whose
                #    arrival slot has come, in deterministic
                #    (arrival, user) order.
                mgr.begin_slot()
                for sess in mgr.due_sessions(slot):
                    ctx = AdmissionContext(
                        slot=slot,
                        active_sessions=mgr.active_count,
                        capacity_rows=mgr.capacity,
                        unit_budget=cfg.unit_budget_per_slot,
                        flow=flows[sess],
                    )
                    if policy.admit(ctx):
                        row = mgr.admit(sess)
                        if instrumented and trace_on:
                            tracer.emit(
                                "session.start",
                                slot=slot,
                                user=int(sess),
                                row=int(row),
                                arrival_slot=int(arrivals[sess]),
                            )
                    else:
                        mgr.reject(sess)
                        if instrumented and trace_on:
                            tracer.emit(
                                "session.reject",
                                slot=slot,
                                user=int(sess),
                                policy=policy.name,
                            )
                occ = mgr.occupied_rows()
                sess_of = mgr.row_session[occ]
                # Admission may have grown the arena and the masks.
                rebuf_row, tail_row = arena.rebuf_s, arena.tail_mj
                joined, departed = mgr.joined_mask, mgr.departed_mask
                if row_offsets[-1] != fleet.n_users:
                    # A churn run is one segment over the row capacity.
                    row_offsets = np.array([0, fleet.n_users], dtype=np.int64)
            else:
                rebuf_row, tail_row = st_rebuf[i], st_tail[i]

            # 1. Playback: Eq. (7)/(8) with last slot's deliveries.
            #    Sessions that have not arrived yet do not play (and
            #    do not accrue startup rebuffering).  Completion is
            #    assembled in arena scratch (the observe/transmit
            #    buffers are free during playback).
            if instrumented:
                _t0 = _pc()
            fleet.begin_slot(slot, out=rebuf_row)
            newly_done = fleet.playback_complete_into(
                arena.b1_tmp, arena.f8_tmp, arena.tx_mask
            )
            if churn:
                # Resident rows only; they retire at slot end.
                np.greater_equal(mgr.row_session, 0, out=arena.tx_mask)
                np.logical_and(newly_done, arena.tx_mask, out=newly_done)
                done_rows = np.flatnonzero(newly_done)
                completion[mgr.row_session[done_rows]] = slot
            else:
                np.less(completion, 0, out=arena.tx_mask)
                np.logical_and(newly_done, arena.tx_mask, out=newly_done)
                np.less_equal(arrivals, slot, out=arena.tx_mask)
                np.logical_and(newly_done, arena.tx_mask, out=newly_done)
                if newly_done.any():
                    completion[newly_done] = slot
            if instrumented:
                rec_playback(_pc() - _t0)

            # 2-4. Observe, schedule, transmit (timed inside the gateway).
            idle_cost = rrc.expected_idle_cost_mj(
                cfg.tau_s, out=arena.idle_tail_cost_mj
            )
            if churn:
                # Session-keyed signal, link, power and stall rows
                # gathered into row space: vacant rows see a floor
                # signal (they are inactive, so schedulers allocate
                # them nothing) and the >= 0 mask discards the wrapped
                # values fancy indexing produces for them.
                sig_row = arena.sig_dbm
                link_row, p_row = arena.link_units, arena.p_mj_per_kb
                sig_row.fill(VACANT_SIG_DBM)
                link_row.fill(vacant_link[0])
                p_row.fill(vacant_p[0])
                if occ.size:
                    sig_row[occ] = sig_block[i][sess_of]
                    link_row[occ] = link_block[i][sess_of]
                    p_row[occ] = p_block[i][sess_of]
                if stall_grid is not None:
                    stall_row = stall_grid[slot][mgr.row_session]
                    stall_row &= mgr.row_session >= 0
            else:
                sig_row, link_row, p_row = sig_block[i], link_block[i], p_block[i]
                if stall_grid is not None:
                    stall_row = stall_grid[slot]
            obs, phi, sent_kb = gateway.step(
                slot,
                sig_row,
                fleet,
                link_row,
                p_row,
                idle_cost,
                cap_table[slot],
                budget_table[slot],
                row_offsets,
                arena,
                timers=gateway_timers,
                joined_mask=joined,
                departed_mask=departed,
                stall_mask=stall_row,
            )
            check_constraints(phi, obs)
            np.multiply(phi, cfg.delta_kb, out=arena.f8_tmp)
            np.add(arena.f8_tmp, 1e-9, out=arena.f8_tmp)
            np.greater(sent_kb, arena.f8_tmp, out=arena.b1_tmp)
            if arena.b1_tmp.any():
                raise SimulationError(f"slot {slot}: delivered more than allocated")

            # 5. Radio energy accounting (Eq. 5: trans XOR tail).  The
            #    Eq. (3) transmission energy P(sig) * delivered is
            #    derived from the recorded deliveries (see
            #    SimulationResult.energy_trans_mj); occupancy/tail
            #    metrics are batch-derived after the loop.
            if instrumented:
                _t0 = _pc()
            tx_mask = np.greater(sent_kb, 0.0, out=arena.tx_mask)
            rrc.step(tx_mask, cfg.tau_s, out=tail_row)
            if instrumented:
                rec_rrc(_pc() - _t0)

            # 6. Scheduler feedback.
            if instrumented:
                _t0 = _pc()
            scheduler.notify(obs, phi, sent_kb)
            if instrumented:
                rec_feedback(_pc() - _t0)

            if churn:
                # Scatter row-space results into the session grids.
                if occ.size:
                    st_alloc[i, sess_of] = phi[occ]
                    st_delivered[i, sess_of] = sent_kb[occ]
                    st_rebuf[i, sess_of] = arena.rebuf_s[occ]
                    st_tail[i, sess_of] = arena.tail_mj[occ]
                    st_buffer[i, sess_of] = obs.buffer_s[occ]
                    st_active[i, sess_of] = obs.active[occ]
            else:
                st_alloc[i] = phi
                st_delivered[i] = sent_kb
                st_buffer[i] = obs.buffer_s
                st_active[i] = obs.active
            if n_runs > 1 and slot == block_end - 1:
                # Flush the block's slot-major rows into each run's
                # grids: columns lo:hi of (slots, sum N_r) -> (slots, N_r).
                width = block_end - block_start
                for r, run_grids in enumerate(grids):
                    lo, hi = run_offsets[r], run_offsets[r + 1]
                    for g, st in zip(run_grids, staging):
                        g[block_start:block_end] = st[:width, lo:hi]

            if instrumented and trace_on:
                # Session-keyed Eq. (3) energy, as the result derives it:
                # P(sig) * delivered, exactly 0 where nothing was sent.
                trans_users = np.multiply(
                    p_block[i],
                    st_delivered[i],
                    out=np.zeros_like(st_delivered[i]),
                    where=st_delivered[i] > 0.0,
                )
                if churn:
                    link_users = np.zeros(n, dtype=np.int64)
                    rate_users = np.zeros(n, dtype=float)
                    if occ.size:
                        link_users[sess_of] = obs.link_units[occ]
                        rate_users[sess_of] = obs.rate_kbps[occ]
                    resident = {"resident_sessions": int(mgr.active_count)}
                else:
                    link_users = np.array(obs.link_units)
                    rate_users = obs.rate_kbps
                    resident = {}
                tracer.emit(
                    "slot",
                    slot=slot,
                    active_users=int(obs.active.sum()),
                    **resident,
                    tx_users=int(tx_mask.sum()),
                    allocated_units=int(phi.sum()),
                    unit_budget=int(obs.unit_budget),
                    delivered_kb=float(sent_kb.sum()),
                    rebuffering_s=float(st_rebuf[i].sum()),
                    energy_trans_mj=float(trans_users.sum()),
                    energy_tail_mj=float(st_tail[i].sum()),
                    mean_buffer_s=float(st_buffer[i].mean()),
                    # Per-user vectors: what repro.obs.analyze needs
                    # to reconstruct timelines and run the invariant
                    # checkers offline.  Only built when a real
                    # tracer is attached, so the NullTracer overhead
                    # budget is untouched.  Arena-backed vectors are
                    # referenced through the result grids or copied
                    # here — the arena reuses its buffers next slot,
                    # so raw references would go stale in a
                    # recording tracer.
                    users={
                        "phi": st_alloc[i],
                        "delivered_kb": st_delivered[i],
                        "rebuffering_s": st_rebuf[i],
                        "buffer_s": st_buffer[i],
                        "energy_trans_mj": trans_users,
                        "energy_tail_mj": st_tail[i],
                        "link_units": link_users,
                        "sig_dbm": sig_block[i],
                        "rate_kbps": rate_users,
                        "active": st_active[i],
                    },
                )

            if churn:
                # Retirement happens at the *end* of the completion
                # slot — the slot's tail accrual and accounting
                # include the session — and frees the row.
                for row in done_rows:
                    sess = int(mgr.row_session[row])
                    departure[sess] = slot
                    mgr.retire(sess)
                    if instrumented and trace_on:
                        tracer.emit(
                            "session.end", slot=slot, user=sess, row=int(row)
                        )

            # Live telemetry consumes whole blocks straight from the
            # result grids (R = 1: the staging rows are grid rows) — one
            # comparison per slot, vectorized cell sums every
            # watch_every slots (plus the run tail).
            if live_on and (slot - live_start + 1 >= live_every or slot == gamma - 1):
                end = slot + 1
                live_delivered = delivered[live_start:end]
                live.observe_block(
                    slot,
                    rebuf[live_start:end].sum(axis=1),
                    transmission_energy_mj(
                        radio.power, signals[0][live_start:end], live_delivered
                    ).sum(axis=1)
                    + e_tail[live_start:end].sum(axis=1),
                    live_delivered.sum(axis=1),
                    buffer_s[live_start:end].mean(axis=1),
                    active_users=(
                        int(mgr.active_count)
                        if churn
                        else int(st_active[i].sum())
                    ),
                    outage_slots=(
                        int(outage_mask[live_start:end].sum())
                        if outage_mask is not None
                        else 0
                    ),
                )
                live_start = end
            # One run;slots span per block of SPAN_BLOCK_SLOTS slots
            # (plus the run tail) — a single comparison per slot.
            if instrumented and (
                slot - span_block_start + 1 >= SPAN_BLOCK_SLOTS
                or slot == gamma - 1
            ):
                rec_block(_pc() - _block_t0)
                span_block_start = slot + 1
                _block_t0 = _pc()
    except BaseException as exc:
        if instrumented:
            # Close the open run;slots block so it covers the slots its
            # phases recorded, the aborted one included.
            rec_block(_pc() - _block_t0)
            what = "run" if n_runs == 1 else f"batch of {n_runs} runs"
            abort_run(instr, exc, slot, what, scheduler_name=scheduler_name)
        raise

    session_counts = None
    session_fields = {}
    if churn:
        n_admitted = int(mgr.admitted.sum())
        n_rejected = int(mgr.rejected.sum())
        session_counts = {
            "offered": int(n),
            "arrived": n_admitted + n_rejected,
            "admitted": n_admitted,
            "rejected": n_rejected,
            "completed": int(mgr.completed.sum()),
            "active": int(mgr.active_count),
        }
        session_fields = dict(
            admitted=mgr.admitted.copy(),
            rejected=mgr.rejected.copy(),
            departure_slot=departure,
            offered_video_kb=workloads[0].offered_video_kb(),
            admitted_video_kb=workloads[0].admitted_video_kb(mgr.admitted),
        )
    # Per-run results in task order: each run's grids are its own
    # C-contiguous (n_slots, N_r) arrays, so NumPy's pairwise summation
    # visits exactly the elements, in exactly the layout, a lone run
    # would reduce.
    results: list[SimulationResult] = []
    for r, task in enumerate(tasks):
        lo, hi = int(run_offsets[r]), int(run_offsets[r + 1])
        alloc_r, delivered_r, rebuf_r, e_tail_r, buffer_r, active_r = grids[r]
        results.append(
            SimulationResult(
                scheduler_name=getattr(
                    task.scheduler, "name", type(task.scheduler).__name__
                ),
                config=task.config,
                allocation_units=alloc_r,
                delivered_kb=delivered_r,
                rebuffering_s=rebuf_r,
                energy_tail_mj=e_tail_r,
                buffer_s=buffer_r,
                active=active_r,
                completion_slot=completion[lo:hi].copy(),
                arrival_slot=arrivals[lo:hi].copy(),
                workload=workloads[r],
                faulted_signal_dbm=signals[0] if faults_on else None,
                **session_fields,
            )
        )
    # Each run's derived Eq. (3) energy, one grid alive at a time: the
    # lone run's is kept for its exit event and accounting.
    for res in results:
        e_trans = res.energy_trans_mj
        if not np.all(np.isfinite(e_trans)):
            raise SimulationError("non-finite transmission energy recorded")
    if instrumented and trace_on:
        # A traced loop is one run: e_trans is its grid.
        tracer.emit(
            "run.end",
            scheduler=scheduler_name,
            n_slots=gamma,
            delivered_total_kb=float(delivered.sum()),
            energy_total_mj=float(e_trans.sum() + e_tail.sum()),
            rebuffering_total_s=float(rebuf.sum()),
            completed_users=int((completion >= 0).sum()),
            **({"sessions": session_counts} if churn else {}),
        )
    if live_on:
        live.end_run()

    registries: list[MetricsRegistry] = []
    if instrumented:
        # A stacked run's accounting goes into its own registry, for the
        # caller to merge in task order: every counter gets the one
        # increment a lone run applies, so the merged registry — locally,
        # or across a process pool shipping these states home — equals a
        # run-by-run one bit-for-bit.
        for r, (task, res) in enumerate(zip(tasks, results)):
            reg = instr.metrics if n_runs == 1 else MetricsRegistry()
            record_run_metrics(
                reg, task.config, res.allocation_units, res.delivered_kb,
                e_trans if n_runs == 1 else res.energy_trans_mj,
                res.energy_tail_mj,
                np.ascontiguousarray(budget_table[:, r]), sessions=session_counts,
            )
            if faults_on:
                _fault_counters(reg, plan, outage_mask, gamma)
            registries.append(reg)
    run_metric_states: list[dict] = []
    if instrumented and n_runs > 1:
        # The stacked scheduler publishes final gauge state (e.g. EMA's
        # virtual queues) into the last run of each block it serves —
        # gauges are last-write-wins, so merged in task order the value
        # matches a run-by-run sequence.
        scheduler.finalize_runs(registries)
        run_metric_states = [reg.state() for reg in registries]
    return results, run_metric_states
