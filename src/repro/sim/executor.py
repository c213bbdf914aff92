"""Run execution backends: serial and process-pool, one ``map_runs`` API.

The repo's orchestration helpers (:mod:`repro.sim.runner`'s
comparison and calibration phases and ``multi_seed``) all reduce to
the same shape: *run a batch of independent simulations and collect
their results in order*.  This
module gives that shape a single entry point:

* :class:`RunTask` — one simulation to run (config, scheduler
  instance, optional pre-generated workload);
* :class:`RunExecutor` — maps a task batch to
  :class:`~repro.sim.results.SimulationResult` objects, either
  in-process (``jobs=1``, the default) or on a process pool
  (``jobs=N``), stacking consecutive compatible tasks into one slot
  loop by default (``batch_size=None``) — byte-for-byte the results of
  a plain loop over ``Simulation(...).run()``;
* :func:`map_runs` — module-level convenience resolving the ambient
  executor installed with :func:`use_executor` (mirroring
  :func:`repro.obs.instrument.use_instrumentation`), so experiment
  code stays declarative and ``repro-experiments --jobs N``
  parallelises every sweep underneath it without any experiment module
  knowing.

Determinism contract
--------------------
``jobs=N`` is bit-identical to ``jobs=1`` in results *and metrics*:

* results are returned in task order regardless of completion order;
* explicit workloads are shipped to each worker once (deduplicated by
  object identity); tasks without a workload generate one in the
  worker, cached by :func:`~repro.obs.provenance.config_hash` — the
  same deterministic generation a serial run performs;
* each worker runs under a private :class:`Instrumentation`; its
  runs' metrics states (one registry per run) and its span-tree state
  are merged back into the parent bundle in task order.  Engine
  counters receive one increment per run, so the merged registry
  equals the serially-populated one exactly, and the merged span tree
  has the same structure and counts as a serial run's
  (``tests/sim/test_executor.py``).

The metrics registry does not depend on the grouping.  The span tree
does in one respect: the ``run`` span counts slot loops, so it matches
``jobs=1`` for the same groups, e.g. at ``batch_size=1``.

Traces do not depend on the grouping either.  Each run's trace is
written from its finished result and its
:class:`~repro.sim.engine.RunLog`; under a tracing bundle a worker
records the logs and ships them home with the results, and the parent
writes the group's traces in task order, as it merges metrics and span
states.  So ``trace.jsonl`` is byte-identical at every ``jobs`` and
``batch_size``.

Liveness
--------
When the parent bundle carries a live telemetry plane
(:mod:`repro.obs.live`), its spec is shipped to every worker so SLO
rules evaluate inside the pool and the ``slo.*`` counters merge back
identically to a serial run.  Passing ``heartbeat_s`` additionally has
workers heartbeat progress over a manager queue; the parent's
:class:`~repro.obs.live.HeartbeatMonitor` drains it on a daemon
thread, counts ``executor.heartbeats``, and flags any worker silent
longer than ``stall_after_s`` (default 30 s) as stalled —
``executor.stall``/``executor.resume`` trace events, an
``executor.stalls`` counter, and a per-worker table in the live
dashboard and metric exports.  Heartbeats are off by default
(``heartbeat_s=None``) so pooled metrics stay byte-identical to
serial ones; ``repro-experiments`` turns them on whenever the live
plane is active and ``--jobs > 1``.

Resilience
----------
Pool dispatch submits each group of tasks individually and collects
them in task order, so one bad group never costs the sweep (the
counters and fault indices below count groups; ``batch_size=1`` makes
every task its own group):

* an unhandled exception in a worker is retried in-pool up to
  ``task_retries`` times (``executor.task_retries`` counter), then run
  serially in the parent;
* ``task_timeout_s`` bounds the wait per task (measured from when the
  parent starts collecting that task, so it covers queueing plus
  execution); a timed-out task is cancelled where possible and run
  serially (``executor.task_timeouts``);
* a broken pool (worker OOM-killed or hard-crashed) no longer discards
  the batch: results already completed are kept, the heartbeat table's
  entries for the dead workers are retired
  (:meth:`~repro.obs.live.HeartbeatMonitor.retire_workers`), and only
  the unfinished tasks re-run serially (``executor.pool_breaks``,
  ``executor.serial_fallbacks``).

A task that falls back to serial execution runs under a private
bundle mirroring the worker protocol, so its metrics/span state still
merges in task order and the deterministic-merge contract
survives the failure.  The ``executor.*`` failure counters are created
lazily, only when a failure actually happens — a healthy pooled run's
metric state stays byte-identical to a serial one.

For testing this machinery (and chaos drills), ``worker_faults``
accepts :class:`~repro.faults.WorkerFault` injectors that crash,
raise, or delay specific task indices inside the workers; the parent
serial fallback never injects, so every task ultimately completes.
An ambient :class:`~repro.faults.FaultPlan` (installed with
:func:`repro.faults.use_fault_plan`) is shipped to the workers and
re-installed around each task, so ``repro-experiments --faults`` works
under ``--jobs N``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, WorkerFault, current_fault_plan, use_fault_plan
from repro.obs.instrument import Instrumentation, current_instrumentation
from repro.obs.provenance import config_hash
from repro.sim.batch import BatchPlan, batch_incompatibility, run_batch, runs_alone
from repro.sim.engine import write_traces
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult
from repro.sim.workload import Workload, generate_workload

__all__ = [
    "RunTask",
    "RunExecutor",
    "map_runs",
    "use_executor",
    "current_executor",
]

log = logging.getLogger("repro.sim.executor")


@dataclass(frozen=True)
class RunTask:
    """One simulation to execute.

    ``scheduler`` is a ready-built (picklable) scheduler *instance* —
    factories close over configs and do not cross process boundaries,
    so callers construct schedulers before batching.  ``workload=None``
    generates the config's seeded workload at run time (in the worker,
    cached by config hash).
    """

    config: SimConfig
    scheduler: object
    workload: Workload | None = field(default=None)


#: Worker-process state: explicit workloads shipped by the parent
#: (keyed by batch-local ids) plus generated workloads keyed by config
#: hash, so repeated configs in a batch generate once per worker.
_WORKER_WORKLOADS: dict[str, Workload] = {}
#: Worker-side heartbeat emitter and live-plane spec, installed by the
#: pool initializer when the parent runs with heartbeats enabled.
_WORKER_HEARTBEAT = None
_WORKER_LIVE_SPEC: dict[str, Any] | None = None
#: Worker-fault injectors and the ambient fault plan, shipped through
#: the pool initializer (the parent's context stack does not cross the
#: process boundary).
_WORKER_FAULTS: tuple[WorkerFault, ...] = ()
_WORKER_FAULT_PLAN: FaultPlan | None = None


def _init_worker(
    workload_table: dict[str, Workload],
    heartbeat_queue=None,
    heartbeat_s: float = 1.0,
    live_spec: dict[str, Any] | None = None,
    worker_faults: tuple[WorkerFault, ...] = (),
    fault_plan_spec: dict[str, Any] | None = None,
) -> None:
    global _WORKER_HEARTBEAT, _WORKER_LIVE_SPEC, _WORKER_FAULTS, _WORKER_FAULT_PLAN
    _WORKER_WORKLOADS.clear()
    _WORKER_WORKLOADS.update(workload_table)
    _WORKER_LIVE_SPEC = live_spec
    _WORKER_FAULTS = tuple(worker_faults)
    _WORKER_FAULT_PLAN = (
        FaultPlan.from_spec(fault_plan_spec) if fault_plan_spec is not None else None
    )
    if heartbeat_queue is not None:
        from repro.obs.live import HeartbeatEmitter

        _WORKER_HEARTBEAT = HeartbeatEmitter(heartbeat_queue, every_s=heartbeat_s)
        _WORKER_HEARTBEAT.beat("idle")
    else:
        _WORKER_HEARTBEAT = None


def _maybe_worker_fault(task_index: int, attempt: int) -> None:
    """Fire any armed injector for this (task, attempt) pair.

    Runs *inside the pool worker*, before any simulation work.  The
    parent's serial fallback never calls this, so an injected fault can
    delay a batch but never fail it.
    """
    for fault in _WORKER_FAULTS:
        if fault.task_index != task_index or attempt >= fault.times:
            continue
        if fault.kind == "delay":
            time.sleep(fault.delay_s)
        elif fault.kind == "raise":
            raise RuntimeError(
                f"injected worker fault: task {task_index} attempt {attempt}"
            )
        elif fault.kind == "crash":
            os._exit(1)


def _worker_fault_context():
    """The shipped ambient fault plan, re-installed around one task."""
    if _WORKER_FAULT_PLAN is not None:
        return use_fault_plan(_WORKER_FAULT_PLAN)
    return nullcontext()


def _private_bundle(
    live_spec: dict[str, Any] | None, heartbeat=None
) -> Instrumentation:
    """A worker's private bundle: NullTracer (the parent writes the
    group's traces from its results and run logs), a live plane rebuilt
    from the parent's spec (carrying the worker's heartbeat, if any),
    and a fresh span recorder."""
    live = None
    if live_spec is not None or heartbeat is not None:
        from repro.obs.live import LiveTelemetry

        live = LiveTelemetry.from_spec(live_spec or {}, heartbeat=heartbeat)
    return Instrumentation(live=live)


def _run_plan(tasks: list[RunTask], sub: Instrumentation | None, traced: bool):
    """Run one group through a :class:`~repro.sim.batch.BatchPlan`
    under the private bundle ``sub``; returns the shape a worker ships.

    The metrics round trip ships the plan's *per-run* registry states;
    the parent merges them in task order, so counter float-accumulation
    order matches a run-by-run execution bit-for-bit.  ``traced``
    records each run's log, shipped for the parent to write the runs'
    traces.
    """
    plan = BatchPlan(tasks)
    results = plan.run(sub, record=traced)
    if sub is None:
        return results, None, None, None
    return results, plan.run_metric_states, sub.spans.state(), plan.run_logs


def _run_group(payload):
    _maybe_worker_fault(payload[-2], payload[-1])
    with _worker_fault_context():
        return _run_group_inner(payload)


def _run_group_inner(payload):
    """Worker entry for one group of consecutive compatible tasks.

    ``payload`` carries the group's configs/schedulers/workload keys in
    task order; the group runs through :func:`_run_plan` under a
    :func:`_private_bundle`.
    """
    configs, schedulers, wl_keys, instrumented, traced, group_index = payload[:6]
    tasks = []
    for config, scheduler, wl_key in zip(configs, schedulers, wl_keys):
        if wl_key is not None:
            workload = _WORKER_WORKLOADS[wl_key]
        else:
            key = config_hash(config)
            workload = _WORKER_WORKLOADS.get(key)
            if workload is None:
                workload = generate_workload(config)
                _WORKER_WORKLOADS[key] = workload
        tasks.append(RunTask(config, scheduler, workload))
    heartbeat = _WORKER_HEARTBEAT
    if heartbeat is not None:
        heartbeat.task = group_index
    sub = None
    if instrumented:
        sub = _private_bundle(_WORKER_LIVE_SPEC, heartbeat)
    elif heartbeat is not None:
        heartbeat.beat("task.start", n_slots=configs[0].n_slots)
    out = _run_plan(tasks, sub, traced)
    if heartbeat is not None:
        heartbeat.beat("idle")
    return out


class RunExecutor:
    """Executes :class:`RunTask` batches, serially or on a process pool.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs every group in-process,
        with the caller's (or ambient) instrumentation observing each
        run directly.
    heartbeat_s:
        When set (and the batch is instrumented), pool workers emit
        heartbeats at most every ``heartbeat_s`` seconds over a manager
        queue, and the parent runs a
        :class:`~repro.obs.live.HeartbeatMonitor` for the batch's
        duration (straggler/stall detection, ``executor.*`` counters,
        worker table in the live snapshot).  ``None`` (default) keeps
        the executor metrics-silent, preserving the byte-identical
        ``jobs=1`` vs ``jobs=N`` metrics contract CI checks.
    stall_after_s:
        Heartbeat silence (mid-task) after which a worker is flagged
        as stalled.
    batch_size:
        Cap on the runs stacked into one :func:`~repro.sim.batch.run_batch`
        slot loop.  ``None`` (default) is *auto*: no cap.  Every maximal
        run of *consecutive* compatible tasks (same shape, any scheduler
        types — see :func:`~repro.sim.batch.batch_incompatibility`) is split
        into ``min(jobs, n)`` near-equal groups, so ``jobs=J`` still
        keeps ``J`` workers busy; an integer ``R`` additionally splits
        it into at least ``ceil(n / R)`` groups.  ``1`` runs every task
        as its own one-segment group — exactly a plain loop of
        ``Simulation(...).run()`` calls.  Incompatible neighbours simply
        break a group, so heterogeneous batches degrade to run-by-run
        behaviour instead of failing.  Each pool worker receives whole
        groups.  Results and metrics stay bit-identical to
        ``batch_size=1`` (``tests/integration/test_batch_equivalence.py``).
        A live batch keeps every task in its own group.
    task_timeout_s:
        Per-group result deadline for pool dispatch, measured from when
        the parent starts collecting that group (covers queueing plus
        execution).  A timed-out group is cancelled where possible and
        re-run serially in the parent.  ``None`` (default) waits
        forever, the historical behaviour.
    task_retries:
        In-pool resubmissions of a group whose worker raised, before
        the parent gives up on the pool and runs it serially.  The
        default ``1`` absorbs one transient failure per group.
    worker_faults:
        :class:`~repro.faults.WorkerFault` injectors installed in every
        pool worker — chaos drills for the resilience machinery above.
        Their ``task_index`` names a group (a task at
        ``batch_size=1``).  Empty (default) in normal operation.
    """

    def __init__(
        self,
        jobs: int = 1,
        heartbeat_s: float | None = None,
        stall_after_s: float = 30.0,
        batch_size: int | None = None,
        task_timeout_s: float | None = None,
        task_retries: int = 1,
        worker_faults: Sequence[WorkerFault] = (),
    ):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ConfigurationError("task_timeout_s must be positive")
        if task_retries < 0:
            raise ConfigurationError("task_retries must be >= 0")
        for fault in worker_faults:
            if not isinstance(fault, WorkerFault):
                raise ConfigurationError(
                    f"worker_faults entries must be WorkerFault, "
                    f"got {type(fault).__name__}"
                )
        self.jobs = int(jobs)
        self.heartbeat_s = float(heartbeat_s) if heartbeat_s is not None else None
        self.stall_after_s = float(stall_after_s)
        self.batch_size = int(batch_size) if batch_size is not None else None
        self.task_timeout_s = (
            float(task_timeout_s) if task_timeout_s is not None else None
        )
        self.task_retries = int(task_retries)
        self.worker_faults = tuple(worker_faults)

    def map_runs(
        self,
        tasks: Sequence[RunTask],
        instrumentation: Instrumentation | None = None,
    ) -> list[SimulationResult]:
        """Run every task; results are returned in task order.

        ``instrumentation=None`` falls back to the ambient bundle, as
        the engine itself would.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        instr = (
            instrumentation
            if instrumentation is not None
            else current_instrumentation()
        )
        groups = self._group_tasks(tasks, instr)
        if self.jobs == 1 or len(groups) == 1:
            results: list[SimulationResult] = []
            for group in groups:
                results.extend(run_batch(group, instrumentation=instr))
            return results
        return self._map_pool_groups(groups, instr)

    def _group_tasks(
        self, tasks: list[RunTask], instr: Instrumentation | None = None
    ) -> list[list[RunTask]]:
        """Split *consecutive* compatible tasks into stacked groups.

        Each maximal run of ``n`` compatible neighbours becomes
        ``max(min(jobs, n), ceil(n / batch_size))`` contiguous groups
        whose sizes differ by at most one, larger first.  Task order is
        never permuted — results must come back in task order, and
        batching is invisible to metrics only when each group is a
        contiguous slice of the original sequence.  Under a live plane
        every task is its own group
        (:func:`~repro.sim.batch.runs_alone`), in a pool worker too.
        """
        if runs_alone(instr):
            return [[t] for t in tasks]
        runs: list[list[RunTask]] = []
        for t in tasks:
            if runs and batch_incompatibility(runs[-1] + [t]) is None:
                runs[-1].append(t)
            else:
                runs.append([t])
        groups: list[list[RunTask]] = []
        for run in runs:
            n = len(run)
            k = min(self.jobs, n)
            if self.batch_size is not None:
                k = max(k, -(-n // self.batch_size))
            size, extra = divmod(n, k)
            start = 0
            for i in range(k):
                stop = start + size + (i < extra)
                groups.append(run[start:stop])
                start = stop
        return groups

    # -- pool resilience ----------------------------------------------

    @staticmethod
    def _ambient_plan_spec() -> dict[str, Any] | None:
        """Picklable spec of the ambient fault plan, for worker shipping."""
        plan = current_fault_plan()
        if plan is None or plan.is_empty:
            return None
        return plan.spec()

    @staticmethod
    def _note_failure(instr: Instrumentation | None, name: str) -> None:
        """Count one executor failure event.

        Failure counters are created lazily — a healthy pooled run's
        metric state must stay byte-identical to a serial run's, so the
        executor only touches the registry when something actually
        went wrong.
        """
        if instr is not None:
            instr.metrics.counter(name).inc()

    def _collect(
        self,
        pool: ProcessPoolExecutor,
        worker_fn,
        payloads: list[tuple],
        serial_fn,
        monitor,
        instr: Instrumentation | None,
    ) -> list[tuple]:
        """Submit every payload, collect results in task order.

        Per-task failure handling (see the module docstring): timeout
        and pool breakage fall straight back to ``serial_fn``; worker
        exceptions are resubmitted up to ``task_retries`` times first.
        Completed futures keep their results across a pool break, so
        only unfinished tasks pay the serial re-run.
        """
        futures: list[Any] = []
        broken = False
        for payload in payloads:
            try:
                futures.append(pool.submit(worker_fn, payload))
            except (BrokenProcessPool, RuntimeError):
                # Pool already broken/shut down: everything left runs
                # serially via the None sentinel below.
                futures.append(None)
        outs: list[tuple] = []
        for index, payload in enumerate(payloads):
            attempt = 0
            while True:
                fut = futures[index]
                if fut is None:
                    outs.append(self._serial_fallback(index, serial_fn, instr))
                    break
                try:
                    outs.append(fut.result(timeout=self.task_timeout_s))
                    break
                except FuturesTimeoutError:
                    fut.cancel()
                    self._note_failure(instr, "executor.task_timeouts")
                    log.warning(
                        "task %d produced no result within %.1fs; "
                        "running it serially",
                        index,
                        self.task_timeout_s,
                    )
                    outs.append(self._serial_fallback(index, serial_fn, instr))
                    break
                except BrokenProcessPool:
                    if not broken:
                        broken = True
                        self._note_failure(instr, "executor.pool_breaks")
                        retired = (
                            monitor.retire_workers() if monitor is not None else []
                        )
                        log.warning(
                            "process pool broke at task %d; keeping "
                            "completed results, re-running unfinished "
                            "tasks serially (%d worker entr%s retired)",
                            index,
                            len(retired),
                            "y" if len(retired) == 1 else "ies",
                        )
                    outs.append(self._serial_fallback(index, serial_fn, instr))
                    break
                except Exception as exc:
                    if attempt < self.task_retries and not broken:
                        attempt += 1
                        self._note_failure(instr, "executor.task_retries")
                        log.warning(
                            "task %d failed in worker (%s); in-pool "
                            "retry %d/%d",
                            index,
                            exc,
                            attempt,
                            self.task_retries,
                        )
                        resub = payload[:-1] + (attempt,)
                        try:
                            futures[index] = pool.submit(worker_fn, resub)
                            continue
                        except (BrokenProcessPool, RuntimeError):
                            pass
                    log.warning(
                        "task %d failed in worker (%s); running it serially",
                        index,
                        exc,
                    )
                    outs.append(self._serial_fallback(index, serial_fn, instr))
                    break
        return outs

    def _serial_fallback(self, index: int, serial_fn, instr):
        self._note_failure(instr, "executor.serial_fallbacks")
        return serial_fn(index)

    def _serial_group(
        self,
        group: list[RunTask],
        instr: Instrumentation | None,
        live_spec: dict[str, Any] | None,
        wl_cache: dict[str, Workload],
    ):
        """Run one group in the parent, mirroring the worker protocol.

        The group runs under a private bundle whose state is returned
        in the same ``(results, metrics, spans)`` shape a pool worker
        ships, so the caller's task-order merge treats a
        fallen-back group exactly like a pooled one.  No worker faults
        are installed here — an injected fault can never make a batch
        fail.
        """
        tasks = [
            RunTask(t.config, t.scheduler, self._resolve_workload(t, wl_cache))
            for t in group
        ]
        sub = _private_bundle(live_spec) if instr is not None else None
        return _run_plan(tasks, sub, instr is not None and instr.tracer.enabled)

    @staticmethod
    def _resolve_workload(task: RunTask, wl_cache: dict[str, Workload]) -> Workload:
        """The task's workload, generating (and caching) like a worker."""
        if task.workload is not None:
            return task.workload
        key = config_hash(task.config)
        workload = wl_cache.get(key)
        if workload is None:
            workload = generate_workload(task.config)
            wl_cache[key] = workload
        return workload

    def _map_pool_groups(
        self, groups: list[list[RunTask]], instr: Instrumentation | None
    ) -> list[SimulationResult]:
        """Pool dispatch of whole batch groups (``jobs=J, batch_size=R``).

        The one pool path (``batch_size=1`` gives singleton groups).
        Each distinct explicit workload ships once; each payload is one
        group, executed in the worker through :func:`_run_group`, and
        results and worker state merge back in task order.
        """
        table: dict[str, Workload] = {}
        keys_by_id: dict[int, str] = {}
        payloads = []
        instrumented = instr is not None
        traced = instrumented and instr.tracer.enabled
        live = instr.live if instrumented else None
        for index, group in enumerate(groups):
            wl_keys = []
            for t in group:
                wl_key = None
                if t.workload is not None:
                    wl_key = keys_by_id.get(id(t.workload))
                    if wl_key is None:
                        wl_key = f"wl{len(table)}"
                        keys_by_id[id(t.workload)] = wl_key
                        table[wl_key] = t.workload
                wl_keys.append(wl_key)
            payloads.append(
                (
                    [t.config for t in group],
                    [t.scheduler for t in group],
                    wl_keys,
                    instrumented,
                    traced,
                    index,
                    0,
                )
            )

        # Workers rebuild the parent's live plane from its picklable
        # spec so SLO rules are evaluated on exactly the per-run slot
        # streams a serial execution would see (per-run aggregate reset
        # makes the alert counters merge back identically).
        live_spec = live.spec() if live is not None else None
        wl_cache: dict[str, Workload] = {}

        def serial_fn(index: int):
            return self._serial_group(groups[index], instr, live_spec, wl_cache)

        heartbeats_on = self.heartbeat_s is not None and instrumented
        manager = None
        monitor = None
        hb_queue = None
        try:
            if heartbeats_on:
                from repro.obs.live import HeartbeatMonitor

                # A plain mp.Queue cannot cross ProcessPoolExecutor's
                # initargs pickling; a manager proxy can.
                manager = multiprocessing.Manager()
                hb_queue = manager.Queue()
                monitor = HeartbeatMonitor(
                    hb_queue,
                    stall_after_s=self.stall_after_s,
                    metrics=instr.metrics,
                    tracer=instr.tracer,
                ).start()
                if live is not None:
                    live.attach_monitor(monitor)
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(groups)),
                initializer=_init_worker,
                initargs=(
                    table,
                    hb_queue,
                    self.heartbeat_s or 1.0,
                    live_spec,
                    self.worker_faults,
                    self._ambient_plan_spec(),
                ),
            ) as pool:
                outs = self._collect(pool, _run_group, payloads, serial_fn,
                                     monitor, instr)
        finally:
            if monitor is not None:
                monitor.stop()
            if manager is not None:
                manager.shutdown()
        results = []
        for group_results, run_states, spans_state, logs in outs:
            results.extend(group_results)
            write_traces(instr, group_results, logs)
            if instr is not None:
                # One registry state per run, in task order — counter
                # accumulation order then matches a serial execution
                # exactly (floats are non-associative; a single
                # group-summed state would drift by an ulp).
                for state in run_states:
                    instr.metrics.merge_state(state)
                # Span trees merge in task order, so a pooled batch
                # interns paths in the same order a serial one records
                # them — tree structure and counts are deterministic.
                instr.spans.merge_state(spans_state)
        return results

    def __repr__(self) -> str:  # pragma: no cover
        batch = "auto" if self.batch_size is None else self.batch_size
        return f"RunExecutor(jobs={self.jobs}, batch_size={batch})"


_SERIAL = RunExecutor(jobs=1)
_AMBIENT: list[RunExecutor] = []


def current_executor() -> RunExecutor | None:
    """The innermost ambient executor, or ``None`` when none is active."""
    return _AMBIENT[-1] if _AMBIENT else None


@contextmanager
def use_executor(executor: RunExecutor) -> Iterator[RunExecutor]:
    """Make ``executor`` ambient for the dynamic extent of the block.

    Every :func:`map_runs` call underneath — the runner helpers, the
    calibration grids, the experiment sweeps — uses it by default.
    """
    _AMBIENT.append(executor)
    try:
        yield executor
    finally:
        _AMBIENT.pop()


def map_runs(
    tasks: Sequence[RunTask],
    executor: RunExecutor | None = None,
    instrumentation: Instrumentation | None = None,
) -> list[SimulationResult]:
    """Run a task batch on the given / ambient / default-serial executor."""
    ex = executor if executor is not None else current_executor()
    if ex is None:
        ex = _SERIAL
    return ex.map_runs(tasks, instrumentation=instrumentation)
