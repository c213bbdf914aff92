"""Run-stacked batch execution: R compatible runs, one slot loop.

Every figure in the paper aggregates many *independent* runs — seeds,
sweep points, calibration grids.  Run one by one, each pays the full
per-slot Python cost (engine loop, gateway dispatch, kernel launch);
:func:`run_batch` instead stacks R compatible runs as row segments of
the engine's one slot loop (:func:`~repro.sim.engine.run_segments`):
a single ``(N_1 + ... + N_R,)``-row
:class:`~repro.media.fleet.ClientFleet` /
:class:`~repro.radio.rrc.RRCFleet` with a per-run segment table, whose
per-run result grids are the runs'
:class:`~repro.sim.results.SimulationResult` objects.  Runs may differ
in population (a *ragged* stack: run ``r`` owns ``N_r`` rows).  A
single run is the same loop with ``R = 1``.

The contract is **bit-identity** with running each task alone (guarded
by ``tests/integration/test_batch_equivalence.py``).  It holds because:

* every fleet/RRC/arena/receiver operation in the slot pipeline is
  row-elementwise, so the run axis rides the row axis for free;
* the only cross-user couplings — the Eq. (2) budget in
  ``check_constraints`` / ``clip_to_constraints``, RTMA's rounds, and
  EMA's knapsack DP — are segment-aware for every ``R``: each
  :class:`~repro.net.gateway.SlotObservation` carries per-run budgets
  and segment bounds, and :class:`~repro.core.rtma.RTMAScheduler` /
  :class:`~repro.core.ema.EMAScheduler` keep their parameters as
  per-lane arrays and always call the ``rtma_rounds_batch`` /
  ``ema_dp_batch`` kernels, so a stack is built with their ``stack``
  classmethods.  RTMA's numpy kernel solves every segment's rounds in
  one closed-form int64 pass; it matches the scalar kernel on each
  segment alone byte for byte, because no sum it takes crosses a
  segment bound;
* the stack's scheduler serves it in *blocks*, one per block key
  (:func:`_block_key`): RTMA runs through ``stack``, EMA runs of one
  ``tau_s`` through ``stack``, a
  :class:`~repro.core.scheduler.ClipScheduler` baseline with equal
  ``shared_params`` through its first instance, anything else alone.
  :class:`BatchPlan` orders the loop's segments by block key, stably,
  so each key is one block however the tasks interleave (a
  Default/Throttling/ON-OFF/RTMA stack of three sweep points is four
  blocks), and hands results and per-run metric states back in task
  order.  Each block sees its own
  :class:`~repro.net.gateway.SlotObservation` over its rows, with its
  own segment table and budgets — what a stack of that block alone
  would see.  There is one Eq. (2) clip per slot for the whole stack:
  every baseline block returns its wanted units and
  ``clip_to_constraints`` fits them all at once, with a row -> run
  layout built once per loop, before the RTMA and EMA blocks fill
  their own rows (see :class:`_BlockScheduler`);
* every run's result grids are its own C-contiguous
  ``(n_slots, N_r)`` arrays, filled from the loop's slot-major staging
  rows one run slice at a time, so reductions feeding results and
  metrics follow a lone run's pairwise summation order;
* the Eq. (24) link/power tables and Eq. (2) budget tables are built
  the same way for every ``R``.

Compatibility: stacked runs must share ``n_slots``, ``tau_s``,
``delta_kb``, ``buffer_capacity_s``, the radio profile and the kernel
backend; user counts, BS capacity, background traffic, seeds, signal
models, scheduler types and per-run scheduler parameters (RTMA
thresholds, EMA ``V``) may differ.  One scheduler instance may not
serve two runs.  Dynamic-lifecycle (churn) runs and fault plans cannot
be stacked.  :func:`batch_incompatibility` is the
single oracle — the executor uses it to decide which consecutive tasks
may share a batch.

Instrumentation: metrics and spans are recorded the same way for
every ``R`` (one span per phase per slot covers the whole loop, and
one ``run`` span counts the loop).  Each run records into its own
registry, one included: its counters, derived after the loop by
:func:`~repro.sim.engine.record_run_metrics`, and its scheduler's final
gauges, published by ``finalize_runs`` (EMA's ``PC_i(n)``).
:meth:`BatchPlan.run` merges them in task order, so the registry does
not depend on how runs are grouped.  Traces do not either: each
run's trace is written from its finished result and
:class:`~repro.sim.engine.RunLog` (:func:`~repro.sim.engine.trace_events`),
in task order.  The live telemetry plane alone needs each run's own
slot stream, so :meth:`BatchPlan.run` runs every task as a one-segment
loop when one is attached (:func:`runs_alone`), and the executor then
gives every task its own group, so pool workers run them alone too.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import clip_to_constraints, segment_rows
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.core.scheduler import ClipScheduler, Scheduler
from repro.errors import ConfigurationError
from repro.faults import current_fault_plan
from repro.net.gateway import SlotObservation
from repro.obs.instrument import Instrumentation, current_instrumentation
from repro.sim.engine import RunLog, run_segments, write_traces
from repro.sim.results import SimulationResult
from repro.sim.workload import resolve_workload

__all__ = ["BatchPlan", "run_batch", "batch_incompatibility", "runs_alone"]

#: Config fields that must be equal across every run of a batch (the
#: slot loop, stacked fleet, RRC profile, and backend context are
#: shared).  ``n_users``, ``capacity_kbps`` and ``background`` are
#: deliberately absent — each run keeps its own row segment and BS/
#: slicer through the segment table.
_COMPAT_FIELDS = (
    "n_slots",
    "tau_s",
    "delta_kb",
    "buffer_capacity_s",
    "profile",
    "kernel_backend",
)


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
    if len({id(t.scheduler) for t in tasks}) != len(tasks):
        return "the same scheduler instance appears in multiple runs"
    return None


def runs_alone(instr: Instrumentation | None) -> bool:
    """Whether every run observed by ``instr`` needs its own loop.

    The live telemetry plane consumes a run's own slot stream, so under
    a live plane each run is a one-segment loop.
    """
    return instr is not None and instr.live is not None


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
    """R validated, workload-resolved runs ready for stacked execution.

    The loop stacks the runs grouped by block key
    (:func:`_block_key`), stably: runs one scheduler instance can serve
    become adjacent row segments, so a stack of Default/Throttling/
    ON-OFF/RTMA points is four blocks, not one per run.  Results and
    per-run metric states come back in task order.
    """

    def __init__(self, tasks):
        self.tasks = list(tasks)
        reason = batch_incompatibility(self.tasks)
        if reason is not None:
            raise ConfigurationError(f"runs cannot be batched: {reason}")
        #: One metrics state per run, in task order, populated by an
        #: instrumented execution (empty on uninstrumented ones).  Each
        #: state holds exactly the single increment per counter a lone
        #: run applies, so merging them in task order — locally or
        #: across a process pool — reproduces the run-by-run registry
        #: bit-for-bit.
        self.run_metric_states: list[dict] = []
        #: One :class:`~repro.sim.engine.RunLog` per run, in task order,
        #: when the execution recorded them (empty otherwise).
        self.run_logs: list[RunLog] = []
        self.workloads = [
            resolve_workload(t.config, getattr(t, "workload", None))
            for t in self.tasks
        ]
        keys = [
            _block_key(t.scheduler, t.config.n_users, i)
            for i, t in enumerate(self.tasks)
        ]
        rank: dict = {}
        for key in keys:
            rank.setdefault(key, len(rank))
        #: Task indices in loop (block) order: by first appearance of
        #: each key, task order within a key.
        self.order = sorted(range(len(keys)), key=lambda i: rank[keys[i]])
        self._keys = [keys[i] for i in self.order]

    @property
    def n_runs(self) -> int:
        return len(self.tasks)

    def run(
        self, instrumentation: Instrumentation | None = None, record: bool | None = None
    ) -> list[SimulationResult]:
        """Execute the batch: one stacked loop, or run by run when it must.

        ``record`` (default: whether the bundle traces) keeps each run's
        :class:`~repro.sim.engine.RunLog` in :attr:`run_logs`, for a pool
        worker to ship home; a tracing bundle gets each run's trace
        written in task order.
        """
        instr = (
            instrumentation
            if instrumentation is not None
            else current_instrumentation()
        )
        if record is None:
            record = instr is not None and instr.tracer.enabled
        n = len(self.tasks)
        by_task, states_by_task, logs_by_task = [None] * n, [None] * n, [None] * n
        for loop in [[i] for i in range(n)] if runs_alone(instr) else [self.order]:
            logs = [RunLog() for _ in loop] if record else None
            results, states = run_segments(
                [self.tasks[i] for i in loop],
                [self.workloads[i] for i in loop],
                instr,
                self._make_scheduler,
                logs,
            )
            for k, i in enumerate(loop):
                by_task[i] = results[k]
                states_by_task[i] = states[k] if states else None
                logs_by_task[i] = logs[k] if logs else None
            if logs is not None:
                # Each run's trace, in task order.
                done = sorted(loop)
                write_traces(
                    instr, [by_task[i] for i in done], [logs_by_task[i] for i in done]
                )
        self.run_metric_states = states_by_task if instr is not None else []
        self.run_logs = logs_by_task if record else []
        for state in self.run_metric_states:
            instr.metrics.merge_state(state)
        return by_task

    def _make_scheduler(self, run_offsets: np.ndarray) -> _BlockScheduler:
        scheds = [self.tasks[i].scheduler for i in self.order]
        return _BlockScheduler(scheds, self._keys, run_offsets)


def _block_key(sched, n_users: int, index: int) -> tuple:
    """Runs whose schedulers share a key are served by one instance.

    RTMA stacks any thresholds and EMA any ``V``/floor/seed lanes of one
    ``tau_s`` (an EMA instance sized for another population serves
    alone, where its allocate rejects the mismatch).  A row-elementwise
    baseline serves every run with equal parameters through one
    instance; any other scheduler serves its own run (``index`` makes
    its key unique).  The baselines that share are the
    :class:`~repro.core.scheduler.ClipScheduler` classes declaring their
    own ``shared_params``.
    """
    kind = type(sched)
    if kind is RTMAScheduler:
        return (kind,)
    if kind is EMAScheduler and sched.n_users == n_users:
        return (kind, sched.tau_s)
    params = vars(kind).get("shared_params")
    if params is not None:
        return (kind, *(getattr(sched, a) for a in params))
    return (None, index)


class _Block:
    """Runs ``start:stop`` of a stack, rows ``lo:hi``, one scheduler."""

    __slots__ = (
        "start", "stop", "lo", "hi", "rows", "whole", "run_offsets", "scheduler",
        "clips",
    )

    def __init__(self, scheds, key, start: int, stop: int, run_offsets: np.ndarray):
        self.start, self.stop = start, stop
        self.lo, self.hi = int(run_offsets[start]), int(run_offsets[stop])
        self.rows = slice(self.lo, self.hi)
        self.whole = start == 0 and stop == run_offsets.shape[0] - 1
        self.run_offsets = run_offsets[start : stop + 1] - self.lo
        members = scheds[start:stop]
        if key[0] is RTMAScheduler or key[0] is EMAScheduler:
            self.scheduler = key[0].stack(members, self.run_offsets)
        else:
            # A clip-shared baseline with equal parameters: its
            # row-elementwise state auto-sizes to the block's rows, so
            # each lane evolves exactly as in its own run.  Any other
            # scheduler is a one-run block served by its own instance.
            self.scheduler = members[0]
        #: Whether the scheduler's allocation is its wanted units fitted
        #: by ``clip_to_constraints``, so the stack's one clip serves it.
        self.clips = type(self.scheduler).allocate is ClipScheduler.allocate

    def view(self, obs: SlotObservation) -> SlotObservation:
        """``obs`` restricted to the block's rows and runs."""
        if self.whole:
            return obs
        rows = self.rows
        budgets = obs.run_unit_budgets[self.start : self.stop]
        return SlotObservation._of(
            {
                "slot": obs.slot,
                "tau_s": obs.tau_s,
                "delta_kb": obs.delta_kb,
                "unit_budget": int(budgets.sum()),
                "sig_dbm": obs.sig_dbm[rows],
                "rate_kbps": obs.rate_kbps[rows],
                "link_units": obs.link_units[rows],
                "p_mj_per_kb": obs.p_mj_per_kb[rows],
                "active": obs.active[rows],
                "buffer_s": obs.buffer_s[rows],
                "remaining_kb": obs.remaining_kb[rows],
                "idle_tail_cost_mj": obs.idle_tail_cost_mj[rows],
                "receivable_kb": obs.receivable_kb[rows],
                "joined": None,
                "departed": None,
                "run_offsets": self.run_offsets,
                "run_unit_budgets": budgets,
            }
        )


class _BlockScheduler(Scheduler):
    """The scheduler of a stack: one instance per block of runs.

    The stack's runs split into maximal blocks of consecutive runs with
    one block key (:func:`_block_key`).  A block's instance sees
    :meth:`_Block.view` of each slot's observation — for a single
    block, the observation itself — so every lane evolves exactly as
    in a run-by-run execution.

    Each slot, every :class:`~repro.core.scheduler.ClipScheduler` block
    writes its wanted units into the loop's want buffer, whose other
    rows stay 0; one ``clip_to_constraints`` over the whole observation
    fits them, and every other block's allocation then fills its own
    rows.  That equals clipping each block alone: Eq. (2) holds per run
    segment, every segment lies inside one block, and the clip is exact
    int64 arithmetic, so a zero row changes no other row's grant.
    """

    def __init__(self, scheds, keys, run_offsets: np.ndarray):
        self.blocks: list[_Block] = []
        start = 0
        while start < len(scheds):
            stop = start + 1
            while stop < len(scheds) and keys[stop] == keys[start]:
                stop += 1
            self.blocks.append(_Block(scheds, keys[start], start, stop, run_offsets))
            start = stop
        first = self.blocks[0].scheduler
        self.name = getattr(first, "name", type(first).__name__)
        self._clips = any(b.clips for b in self.blocks)
        # The clip's segment layout and want buffer, for the whole loop.
        self._row_run = segment_rows(run_offsets)
        self._want = np.zeros(int(run_offsets[-1]))
        self._views: list[SlotObservation] = []

    def allocate(self, obs: SlotObservation) -> np.ndarray:
        self._views = views = [b.view(obs) for b in self.blocks]
        if self._clips:
            want = self._want
            for b, view in zip(self.blocks, views):
                if b.clips:
                    want[b.rows] = b.scheduler.want(view)
            phi = clip_to_constraints(want, obs, self._row_run)
        else:
            phi = np.zeros(obs.n_users, dtype=np.int64)
        for b, view in zip(self.blocks, views):
            if not b.clips:
                phi[b.rows] = b.scheduler.allocate(view)
        return phi

    def notify(
        self, obs: SlotObservation, phi: np.ndarray, delivered_kb: np.ndarray
    ) -> None:
        for b, view in zip(self.blocks, self._views):
            b.scheduler.notify(view, phi[b.rows], delivered_kb[b.rows])

    def reset(self) -> None:
        self._views = []
        for b in self.blocks:
            b.scheduler.reset()

    def trace_snapshots(self) -> list[tuple[int, str, dict]]:
        return [
            (b.start + r, kind, fields)
            for b in self.blocks
            for r, kind, fields in b.scheduler.trace_snapshots()
        ]

    def finalize_runs(self, registries) -> None:
        for b in self.blocks:
            b.scheduler.finalize_runs(registries[b.start : b.stop])
