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
:meth:`Simulation.run`, and every churn or faulted run) is the
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
slot's rows go into per-block staging rows, flushed run slice by run
slice into the session-keyed result grids, at every ``R``.  With churn
(``R = 1`` only), a :class:`~repro.sim.sessions.SessionManager` admits
arrivals into a growable row space at slot start, retires completed
sessions at slot end, and each slot's row-space vectors are scattered
into the staging rows through its ``row -> session`` map.

The engine is deliberately strict: it asserts conservation invariants
as it goes (delivered bytes never exceed capacity or session size) and
fails loudly on scheduler misbehaviour.

Observability: pass an :class:`~repro.obs.instrument.Instrumentation`
bundle (or establish one ambiently with
:func:`~repro.obs.instrument.use_instrumentation`) and the engine times
every phase and counts slots/energy into the metrics registry.  The
slot loop writes no trace: under a tracing bundle it records, in one
:class:`RunLog` per run, only what a run's grids cannot reproduce, and
:func:`trace_events` derives the run's ``run.start``, ``fault.window``,
``slot`` and ``run.end`` events from its finished result and merges the
log back in, so stacked and pooled runs trace like lone ones.  The
live plane follows every run of a loop too: every ``watch_every``
slots it reads each run's slot stream from the run's flushed grids.
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
from repro.media.fleet import ClientFleet, rate_grid_kbps
from repro.net.basestation import ConstantCapacity, FaultyCapacity
from repro.net.gateway import Gateway
from repro.net.slicing import ResourceSlicer
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SLOT_PREFIX, activate_spans
from repro.radio.rrc import RRCFleet, fleet_occupancy_from_tx
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult, transmission_energy_mj
from repro.sim.sessions import INITIAL_CAPACITY, SessionManager
from repro.sim.workload import Workload, resolve_workload

__all__ = ["Simulation", "run_segments", "RunLog", "trace_events", "write_traces"]

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


def _fault_window_events(plan):
    """One ``fault.window`` event per injected window, written at run
    start so trace analysis sees the full plan before any slot."""
    for w in plan.signal:
        yield "fault.window", dict(
            fault="signal",
            start_slot=w.start_slot,
            n_slots=w.n_slots,
            users=list(w.users) if w.users is not None else None,
            level_dbm=w.level_dbm,
        )
    for w in plan.capacity:
        yield "fault.window", dict(
            fault="capacity", start_slot=w.start_slot, n_slots=w.n_slots, factor=w.factor
        )
    for w in plan.stalls:
        yield "fault.window", dict(
            fault="stall", start_slot=w.start_slot, n_slots=w.n_slots, users=list(w.users)
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


def abort_run(instr, exc, slot, what="run", scheduler_name=None, runs=(), done=0) -> None:
    """Leave a valid, parseable trace prefix behind a crashed (or
    SLO-aborted) loop: write each of ``runs`` (``(partial result, log)``
    pairs) up to its ``done`` completed slots, then one final
    ``run.abort``; abort the live run, then flush and close the bundle.
    The caller re-raises."""
    log.warning(
        "%s aborted at slot %d: %s: %s", what, slot, type(exc).__name__, exc
    )
    if instr.tracer.enabled:
        for res, run_log in runs:
            for kind, fields in trace_events(res, run_log, slots=done):
                instr.tracer.emit(kind, **fields)
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


def record_run_metrics(metrics, res, e_trans, budgets) -> None:
    """One run's registry accounting, derived from its result.

    Identical totals to per-slot increments, in a few vectorised
    operations.  ``e_trans`` is the run's derived Eq. (3) energy grid
    and ``budgets`` its Eq. (2) unit budget per slot; a churn run also
    counts its admitted/rejected/completed sessions.
    """
    cfg, alloc, delivered = res.config, res.allocation_units, res.delivered_kb
    kinfo = backend_info()
    metrics.gauge("kernels.backend").set(kinfo["resolved"])
    metrics.gauge("kernels.requested").set(kinfo["requested"])
    if kinfo["numba_version"] is not None:
        metrics.gauge("kernels.numba_version").set(kinfo["numba_version"])
    metrics.counter("engine.slots").inc(cfg.n_slots)
    metrics.counter("energy.trans_mj").inc(float(e_trans.sum()))
    metrics.counter("rrc.tail_mj").inc(float(res.energy_tail_mj.sum()))
    occupancy = fleet_occupancy_from_tx(delivered > 0.0, cfg.tau_s, cfg.radio.rrc)
    metrics.counter("rrc.occupancy.dch").inc(occupancy["dch"])
    metrics.counter("rrc.occupancy.fach").inc(occupancy["fach"])
    metrics.counter("rrc.occupancy.idle").inc(occupancy["idle"])
    metrics.counter("scheduler.invocations").inc(cfg.n_slots)
    if res.admitted is not None:
        sessions = session_counts(res)
        for key in ("admitted", "rejected", "completed"):
            metrics.counter(f"sessions.{key}").inc(sessions[key])
    used_units = alloc.sum(axis=1)
    near_miss = int(np.count_nonzero((budgets > 0) & (used_units > 0.9 * budgets)))
    metrics.counter("allocation.near_miss").inc(near_miss)
    truncated = float(np.maximum(alloc * cfg.delta_kb - delivered, 0.0).sum())
    metrics.counter("allocation.truncated_kb").inc(truncated)


def session_counts(res) -> dict:
    """A churn run's session outcome counts, from its result."""
    admitted, rejected = int(res.admitted.sum()), int(res.rejected.sum())
    completed = int((res.departure_slot >= 0).sum())
    return dict(
        offered=int(res.admitted.size), arrived=admitted + rejected, admitted=admitted,
        rejected=rejected, completed=completed, active=admitted - completed,
    )


class RunLog:
    """What a run's trace needs beyond its result grids.

    Three kinds of event carry data the grids lack: churn's
    ``session.*`` events (their row ids), EMA's ``ema.queues`` snapshots
    and the live watchdog's ``slo.*`` events.  The slot loop records
    them here against their position instead of emitting them (the
    log's :meth:`emit` stands in for the watchdog's tracer).  Position
    ``2 * slot`` precedes the slot's ``slot`` event, ``2 * slot + 1``
    follows it and ``2 * n_slots`` follows ``run.end``.  The log also keeps the run's
    traced scheduler parameters, resolved kernel backend and fault plan.
    :func:`trace_events` merges it with the events it derives from the
    finished result.  Logs pickle, so a pool worker ships them home with
    its results.
    """

    #: Read by the watchdog, as on a tracer.
    enabled = True

    def __init__(self, params=None, backend=None, plan=None):
        self.params = dict(params or {})
        self.backend = backend
        self.plan = plan
        self.events: list[tuple[int, str, dict]] = []
        #: Position the loop is at, for :meth:`emit`.
        self.at = 0

    def record(self, at: int, kind: str, /, **fields) -> None:
        self.events.append((at, kind, fields))

    def emit(self, kind: str, /, **fields) -> None:
        self.record(self.at, kind, **fields)


def _budget_tables(configs, plan, gamma: int):
    """Per-run Eq. (2) unit budget tables, ``(gamma, R)``.

    Each run's budgets go through its own capacity model and slicer,
    with the scalar chain a slot evaluates.  Without background traffic
    or capacity faults they are slot-invariant and one evaluation covers
    the horizon (the table is a broadcast view); otherwise every slot
    is evaluated, run-major, so a stateful slicer sees its run's slots
    in order.
    """
    cfg = configs[0]
    cap_models = [ConstantCapacity(c.capacity_kbps) for c in configs]
    varying = any(c.background is not None for c in configs)
    if plan is not None and plan.capacity:
        factors = plan.capacity_factors(gamma)
        cap_models = [FaultyCapacity(m, factors) for m in cap_models]
        varying = True
    slicers = [
        ResourceSlicer(c.background) if c.background else ResourceSlicer()
        for c in configs
    ]
    n_eval = gamma if varying else 1
    cap_table = np.empty((n_eval, len(configs)), dtype=float)
    for r, (model, slicer) in enumerate(zip(cap_models, slicers)):
        for slot in range(n_eval):
            cap = model.capacity_kbps(slot)
            cap_table[slot, r] = slicer.video_capacity_kbps(cap, slot)
    budget_table = np.floor(cfg.tau_s * cap_table / cfg.delta_kb).astype(np.int64)
    return np.broadcast_to(budget_table, (gamma, len(configs)))


def trace_events(res, run_log: RunLog | None = None, slots: int | None = None, params=None):
    """The trace of run ``res``, as ``(kind, fields)`` pairs in order.

    ``run.start``, ``fault.window``, one ``slot`` event per slot and
    ``run.end`` are derived from the result: its grids, workload and
    config, plus the Eq. (24) link units and Eq. (2) budgets recomputed
    with the slot loop's own tables, bitwise what the loop observed.
    ``run_log``'s recorded events are merged in at their positions.
    ``slots`` cuts an aborted run's trace after that many completed
    slots (the recorded events of the slot in progress follow; no
    ``run.end``).  Without a log (an in-memory result), ``params``
    stands in for the scheduler parameters, the config's fault plan
    applies, and a churn run has no ``session.*`` events, so its slot
    totals sum in session order rather than the loop's row order.

    The slot totals are reduced a run at a time and every number goes
    out as a plain Python ``int``/``float``/``bool``: a ``slot`` event's
    per-user vectors (its ``users`` payload) are lists, converted from
    the grids a block of :data:`SLOT_BLOCK_SLOTS` slots at a time, so
    the encoder never calls back into Python for them and the extra
    memory is a block's, not the horizon's.
    """
    recorded = run_log is not None
    if run_log is None:
        plan = res.config.faults
        if plan is not None and plan.is_empty:
            plan = None
        run_log = RunLog(params, backend_info()["resolved"], plan)
    cfg, plan = res.config, run_log.plan
    radio = cfg.radio
    gamma, n = res.allocation_units.shape
    churn = res.admitted is not None
    yield "run.start", dict(
        scheduler=res.scheduler_name,
        n_users=n,
        n_slots=gamma,
        tau_s=cfg.tau_s,
        delta_kb=cfg.delta_kb,
        seed=cfg.seed,
        kernel_backend=run_log.backend,
        **(
            {"arrival_process": cfg.arrival_process, "admission": cfg.admission}
            if churn
            else {}
        ),
        rrc={k: getattr(radio.rrc, k) for k in ("pd_mw", "pf_mw", "t1_s", "t2_s")},
        params=run_log.params,
        **({"faults": plan.spec()} if plan is not None else {}),
    )
    if plan is not None:
        yield from _fault_window_events(plan)

    alloc, delivered, rebuf = res.allocation_units, res.delivered_kb, res.rebuffering_s
    e_tail, buffer_s, active = res.energy_tail_mj, res.buffer_s, res.active
    e_trans = res.energy_trans_mj
    sig = res.signal_dbm
    link, _ = _eq24_tables(radio, sig, cfg.tau_s, cfg.delta_kb)
    rates = rate_grid_kbps(res.workload.flows, gamma)
    budgets = _budget_tables([cfg], plan, gamma)[:, 0]
    if churn:
        # Only resident sessions occupy rows: the others' link and rate
        # columns read 0.  The loop summed deliveries over its row
        # space, whose rows the session.start events name and whose
        # capacity doubles on demand.
        resident = res.session_mask()
        link[~resident] = 0
        rates[~resident] = 0.0
        row_of = np.full(n, -1, dtype=np.int64)
        capacity = min(cfg.n_users, INITIAL_CAPACITY)
    n_out = gamma if slots is None else slots
    # Slot totals, a run at a time: on the C-contiguous result grids an
    # axis=1 reduction reduces each row as ``rebuf[s].sum()`` does,
    # bitwise, and ``tolist`` hands the encoder plain Python numbers.
    n_active = active[:n_out].sum(axis=1).tolist()
    n_tx = (delivered[:n_out] > 0.0).sum(axis=1).tolist()
    units = alloc[:n_out].sum(axis=1).tolist()
    unit_budget = budgets[:n_out].tolist()
    delivered_sum = delivered[:n_out].sum(axis=1).tolist()
    rebuf_sum = rebuf[:n_out].sum(axis=1).tolist()
    trans_sum = e_trans[:n_out].sum(axis=1).tolist()
    tail_sum = e_tail[:n_out].sum(axis=1).tolist()
    mean_buffer = buffer_s[:n_out].mean(axis=1).tolist()
    # Per-user vectors: what repro.obs.analyze needs to reconstruct
    # timelines and run the invariant checkers.
    columns = {
        "phi": alloc,
        "delivered_kb": delivered,
        "rebuffering_s": rebuf,
        "buffer_s": buffer_s,
        "energy_trans_mj": e_trans,
        "energy_tail_mj": e_tail,
        "link_units": link,
        "sig_dbm": sig,
        "rate_kbps": rates,
        "active": active,
    }
    if churn:
        n_resident = resident[:n_out].sum(axis=1).tolist()
    events, k = run_log.events, 0
    for s in range(n_out):
        while k < len(events) and events[k][0] <= 2 * s:
            _, kind, fields = events[k]
            k += 1
            if kind == "session.start":
                row_of[fields["user"]] = fields["row"]
                while fields["row"] >= capacity:
                    capacity *= 2
            yield kind, fields
        i = s % SLOT_BLOCK_SLOTS
        if i == 0:
            block = slice(s, min(s + SLOT_BLOCK_SLOTS, n_out))
            rows = {key: grid[block].tolist() for key, grid in columns.items()}
        delivered_kb = delivered_sum[s]
        resident_sessions = {}
        if churn:
            resident_sessions["resident_sessions"] = n_resident[s]
            if recorded:
                occ = np.flatnonzero(resident[s])
                by_row = np.zeros(capacity)
                by_row[row_of[occ]] = delivered[s, occ]
                delivered_kb = float(by_row.sum())
        yield "slot", dict(
            slot=s,
            active_users=n_active[s],
            **resident_sessions,
            tx_users=n_tx[s],
            allocated_units=units[s],
            unit_budget=unit_budget[s],
            delivered_kb=delivered_kb,
            rebuffering_s=rebuf_sum[s],
            energy_trans_mj=trans_sum[s],
            energy_tail_mj=tail_sum[s],
            mean_buffer_s=mean_buffer[s],
            users={key: col[i] for key, col in rows.items()},
        )
        while k < len(events) and events[k][0] <= 2 * s + 1:
            yield events[k][1:]
            k += 1
    if slots is None:
        yield "run.end", dict(
            scheduler=res.scheduler_name,
            n_slots=gamma,
            delivered_total_kb=float(delivered.sum()),
            energy_total_mj=float(e_trans.sum() + e_tail.sum()),
            rebuffering_total_s=float(rebuf.sum()),
            completed_users=int((res.completion_slot >= 0).sum()),
            **({"sessions": session_counts(res)} if churn else {}),
        )
    for _, kind, fields in events[k:]:
        yield kind, fields


def write_traces(instr, results, logs) -> None:
    """Write each run's trace, in order, into a tracing bundle.

    ``logs`` are the runs' :class:`RunLog` objects (``None`` or empty
    when nothing was recorded).
    """
    if not logs or instr is None or not instr.tracer.enabled:
        return
    for res, run_log in zip(results, logs):
        for kind, fields in trace_events(res, run_log):
            instr.tracer.emit(kind, **fields)


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
        from repro.sim.batch import BatchPlan

        return BatchPlan([self]).run(self.instrumentation)[0]


def run_segments(tasks, workloads, instr, stack_scheduler=None, logs=None):
    """Run ``R = len(tasks)`` runs as row segments of one slot loop.

    ``tasks`` expose ``.config`` and ``.scheduler``; ``workloads`` are
    their resolved workloads.  Every slot's
    :class:`~repro.net.gateway.SlotObservation` carries the per-run
    segment bounds and Eq. (2) budgets.  With ``R == 1`` the run's own
    scheduler serves its one segment, and churn and fault plans apply.
    The live plane follows every run, at every ``R``.  With ``R > 1``
    the runs must be batch-compatible (see :mod:`repro.sim.batch`):
    ``stack_scheduler(run_offsets)`` builds the scheduler serving the
    stacked rows.  ``logs`` (one :class:`RunLog` per run, or ``None``)
    receive what each run's trace needs beyond its result; the caller
    writes the traces with :func:`write_traces`, except for an aborted
    loop, whose trace prefixes :func:`abort_run` writes.

    An instrumented loop records into one fresh registry per run, for
    every ``R``: the run's accounting after the loop, its scheduler's
    final state (``finalize_runs``), and, under a live plane, its
    ``slo.*`` alerts as they fire.  An aborted loop merges them into
    the bundle before closing it.

    Returns ``(results, run_metric_states)``: one result per run in
    task order, and — when instrumented — one metrics state per run,
    for the caller to merge into the bundle in task order.
    """
    registries = [MetricsRegistry() for _ in tasks] if instr is not None else []
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
        return _slot_loop(tasks, workloads, instr, stack_scheduler, logs, registries)


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


def _slot_loop(tasks, workloads, instr, stack_scheduler, logs, registries):
    cfg = tasks[0].config
    radio = cfg.radio
    n_runs = len(tasks)
    # n: the population of a lone run (churn and faults are R = 1
    # features); a stack's runs own segments of their own widths.
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
    if plan is not None and plan.is_empty:
        plan = None
    faults_on = plan is not None

    instrumented = instr is not None
    live = instr.live if instrumented else None
    live_on = live is not None
    if instrumented:
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
    # A traced loop records, per run, the header its trace needs and the
    # events its grids lack; a churn run's log takes its session events.
    for rl, task in zip(logs or (), tasks):
        rl.params = _scheduler_trace_params(task.scheduler)
        rl.backend, rl.plan = backend_info()["resolved"], plan
    run_log = logs[0] if logs is not None and n_runs == 1 else None
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

    budget_table = _budget_tables([t.config for t in tasks], plan, gamma)

    # Per-run result grids: run r's record is grids[r], C-contiguous
    # (n_slots, N_r) arrays handed out without a copy, which reduce
    # exactly like a lone run's.  A slot writes one row per grid into
    # slot-major staging rows, a block buffer flushed, run slice by run
    # slice, every SLOT_BLOCK_SLOTS slots (and before the live plane
    # reads the grids).
    grids = [
        tuple(np.zeros((gamma, w), dtype=dt) for dt in _GRID_DTYPES)
        for w in widths
    ]
    staging = tuple(
        np.empty((SLOT_BLOCK_SLOTS, total), dtype=dt) for dt in _GRID_DTYPES
    )
    st_alloc, st_delivered, st_rebuf, st_tail, st_buffer, st_active = staging
    flushed = 0

    def flush(stop: int) -> None:
        # The block's slot-major rows from the last flush up to ``stop``
        # into each run's grids: columns lo:hi of (slots, sum N_r) ->
        # (slots, N_r).
        nonlocal flushed
        fresh = slice(flushed - block_start, stop - block_start)
        for r, run_grids in enumerate(grids):
            lo, hi = run_offsets[r], run_offsets[r + 1]
            for g, st in zip(run_grids, staging):
                g[flushed:stop] = st[fresh, lo:hi]
        flushed = stop

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

    names = [getattr(t.scheduler, "name", type(t.scheduler).__name__) for t in tasks]

    def finish() -> list[SimulationResult]:
        # Per-run results in task order: each run's grids are its own
        # C-contiguous (n_slots, N_r) arrays, so NumPy's pairwise
        # summation visits exactly the elements, in exactly the layout,
        # a lone run would reduce.
        session_fields = {}
        if churn:
            session_fields = dict(
                admitted=mgr.admitted.copy(),
                rejected=mgr.rejected.copy(),
                departure_slot=departure,
                offered_video_kb=workloads[0].offered_video_kb(),
                admitted_video_kb=workloads[0].admitted_video_kb(mgr.admitted),
            )
        results = []
        for r, task in enumerate(tasks):
            lo, hi = int(run_offsets[r]), int(run_offsets[r + 1])
            alloc_r, delivered_r, rebuf_r, e_tail_r, buffer_r, active_r = grids[r]
            results.append(
                SimulationResult(
                    scheduler_name=names[r],
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
        return results

    scheduler_name = getattr(scheduler, "name", type(scheduler).__name__)
    if live_on:
        # One stream per run: its slo.* alerts count into the run's
        # registry and, traced, are logged at their slot.
        streams = [
            live.begin_run(
                names[r], gamma, w, registries[r], logs[r] if logs else instr.tracer
            )
            for r, w in enumerate(widths)
        ]
        live_every = live.watch_every
        live_start = 0
    if instrumented:
        span_block_start = 0
        _block_t0 = perf_counter()

    # Without churn every slot's row vectors are staging rows; with
    # churn they are arena rows scattered after the slot.
    joined, departed = None, None
    row_offsets = run_offsets
    slot = -1
    # Slots whose rows are all written: an aborted run's trace keeps them.
    done = 0
    block_start = block_end = 0
    try:
        for slot in range(gamma):
            if slot == block_end:
                # Next block of slots: the Eq. (24) link/power tables of
                # every run in one vectorized 2-D pass over the
                # (fault-applied) signal, and the rows slots write to.
                block_start, block_end = slot, min(slot + SLOT_BLOCK_SLOTS, gamma)
                sig_block = np.concatenate(
                    [sig[block_start:block_end] for sig in signals], axis=1
                )
                link_block, p_block = _eq24_tables(
                    radio, sig_block, cfg.tau_s, cfg.delta_kb
                )
                if churn:
                    # Only resident sessions are scattered into a row;
                    # the others' cells read 0.
                    for st in staging:
                        st.fill(0)
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
                        if run_log is not None:
                            run_log.record(
                                2 * slot,
                                "session.start",
                                slot=slot,
                                user=int(sess),
                                row=int(row),
                                arrival_slot=int(arrivals[sess]),
                            )
                    else:
                        mgr.reject(sess)
                        if run_log is not None:
                            run_log.record(
                                2 * slot,
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
            if logs is not None:
                for r, kind, fields in scheduler.trace_snapshots():
                    logs[r].record(2 * slot, kind, slot=slot, **fields)

            if churn:
                # Scatter row-space results into the session columns.
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
            done = slot + 1
            if done == block_end:
                flush(block_end)

            if churn:
                # Retirement happens at the *end* of the completion
                # slot — the slot's tail accrual and accounting
                # include the session — and frees the row.
                for row in done_rows:
                    sess = int(mgr.row_session[row])
                    departure[sess] = slot
                    mgr.retire(sess)
                    if run_log is not None:
                        run_log.record(
                            2 * slot + 1, "session.end", slot=slot, user=sess, row=int(row)
                        )

            # Live telemetry consumes whole blocks of each run from its
            # flushed result grids, which reduce bitwise as a lone run's
            # do — one comparison per slot, vectorized cell sums every
            # watch_every slots (plus the run tail).
            if live_on and (slot - live_start + 1 >= live_every or slot == gamma - 1):
                flush(done)
                w = slice(live_start, done)
                outage = int(outage_mask[w].sum()) if outage_mask is not None else 0
                for r, stream in enumerate(streams):
                    _, delivered, rebuf, e_tail, buffer_s, active = grids[r]
                    if logs is not None:
                        logs[r].at = 2 * slot + 1
                    e_trans = transmission_energy_mj(
                        radio.power, signals[r][w], delivered[w]
                    )
                    live.observe_block(
                        stream,
                        slot,
                        rebuf[w].sum(axis=1),
                        e_trans.sum(axis=1) + e_tail[w].sum(axis=1),
                        delivered[w].sum(axis=1),
                        buffer_s[w].mean(axis=1),
                        int(mgr.active_count) if churn else int(active[slot].sum()),
                        outage,
                    )
                live_start = done
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
            runs = ()
            if logs is not None:
                flush(done)
                runs = zip(finish(), logs)
            # The partial registries (the runs' slo.* alerts, the
            # scheduler's state at the abort) outlive the loop.
            scheduler.finalize_runs(registries)
            for reg in registries:
                instr.metrics.merge_state(reg.state())
            what = "run" if n_runs == 1 else f"batch of {n_runs} runs"
            abort_run(instr, exc, slot, what, scheduler_name, runs, done)
        raise

    results = finish()
    if live_on:
        for r, stream in enumerate(streams):
            if logs is not None:
                logs[r].at = 2 * gamma
            live.end_run(stream)

    # Each run's derived Eq. (3) energy, once and one grid alive at a
    # time: checked, then accounted into the run's own registry, for the
    # caller to merge in task order: every counter gets the one
    # increment a run-by-run execution applies, so the merged registry —
    # locally, or across a process pool shipping these states home —
    # does not depend on how runs were grouped.
    for r, res in enumerate(results):
        e_trans = res.energy_trans_mj
        if not np.all(np.isfinite(e_trans)):
            raise SimulationError("non-finite transmission energy recorded")
        if instrumented:
            reg = registries[r]
            record_run_metrics(reg, res, e_trans, np.ascontiguousarray(budget_table[:, r]))
            if faults_on:
                _fault_counters(reg, plan, outage_mask, gamma)
    scheduler.finalize_runs(registries)
    return results, [reg.state() for reg in registries]
