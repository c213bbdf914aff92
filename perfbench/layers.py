"""The benchmark's own layer tracing: spans around calls into ``repro``.

Nothing inside the program is changed.  :class:`LayerTracer` replaces
public functions and methods of each ``repro`` module with thin timing
wrappers for the duration of a traced iteration and puts the originals
back afterwards, so untraced iterations in the same process run the
plain program.

Each wrapped call opens a span on one *layer* (``runner``, ``gateway``,
``kernels.ema_dp``, ...).  A layer's inclusive time counts only its
outermost calls (a runner helper calling another runner helper is not
counted twice); its self time is its inclusive time minus the time of
the child spans it encloses.  Self times of all layers plus the time
no span covers therefore add up to the iteration's wall time exactly.

Spans of the coarse layers (:data:`COARSE`) are kept in memory as
records with their parent; the per-slot layers (gateway, core, kernels,
fleet, rrc, sessions, trace events) are only aggregated, because a
panel makes several hundred thousand such calls.
Everything is written out by :meth:`LayerTracer.write` when the run
ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Layers whose individual spans are recorded (the rest are aggregated).
COARSE = {
    "runner", "workload", "executor", "batch", "engine",
    "obs.write", "obs.analyze", "obs.report",
}


class LayerTracer:
    """Installs timing wrappers, accumulates per-layer totals."""

    def __init__(self) -> None:
        #: layer -> [calls, inclusive s (outermost calls), self s, open calls]
        self._acc: dict[str, list] = {}
        #: Exact work counters (engine runs, slots, DP user-rows, ...).
        self.counts: Counter = Counter()
        #: Depth counters raised by ``mark``-ed calls (see _patch_function).
        self._marks: Counter = Counter()
        self.records: list[tuple] = []
        self._stack: list[list] = []
        self._coarse: list[int] = []
        self._saved: list[tuple] = []
        self._t0 = perf_counter()

    @property
    def calls(self) -> dict[str, int]:
        return {layer: a[0] for layer, a in self._acc.items() if a[0]}

    @property
    def total(self) -> defaultdict:
        return defaultdict(float, {layer: a[1] for layer, a in self._acc.items()})

    @property
    def self_s(self) -> dict[str, float]:
        return {layer: a[2] for layer, a in self._acc.items()}

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, layer: str, fn, on_call=None):
        stack = self._stack
        acc = self._acc.setdefault(layer, [0, 0.0, 0.0, 0])
        coarse = layer in COARSE
        coarse_stack = self._coarse
        records = self.records
        name = f"{layer}:{getattr(fn, '__qualname__', getattr(fn, '__name__', '?'))}"
        base = self._t0
        pc = perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            acc[3] += 1
            if coarse:
                rec_id = len(records)
                parent = coarse_stack[-1] if coarse_stack else -1
                records.append(None)
                coarse_stack.append(rec_id)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                stack.pop()
                acc[0] += 1
                acc[2] += dt - frame[0]
                acc[3] -= 1
                if not acc[3]:
                    acc[1] += dt
                if stack:
                    stack[-1][0] += dt
                if coarse:
                    coarse_stack.pop()
                    records[rec_id] = (rec_id, parent, name, t0 - base, t0 + dt - base)

        return timed

    def _patch_attr(self, owner, attr: str, layer: str, on_call=None) -> None:
        """Wrap a method defined on ``owner``; a method that no longer
        exists is skipped, and its layer then reports no calls."""
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original, on_call))

    def _patch_function(self, module, attr: str, layer: str, on_call=None, mark=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module that imported it.

        ``mark`` names a depth counter raised while the call runs, so
        hooks can tell work done inside it (calibration) from the rest.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        inner = original
        if mark is not None:
            marks = self._marks

            @functools.wraps(original)
            def inner(*args, **kwargs):
                marks[mark] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    marks[mark] -= 1

        wrapped = self._wrap(layer, inner, on_call)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _patch_private(self, owner, attr: str, before=None, after=None) -> None:
        """Count (not time) calls of a private method, if it still exists.

        ``before`` receives the call's arguments, ``after`` its result.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            return

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if before is not None:
                before(*args)
            out = original(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, counted)

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        """Wrap every traced public call of the program."""
        import repro.baselines as baselines
        import repro.core.admission as admission
        import repro.core.allocation as allocation
        import repro.kernels.registry as registry
        import repro.obs.analyze as analyze
        import repro.obs.report as report
        import repro.sim.batch as batch
        import repro.sim.executor as executor
        import repro.sim.runner as runner
        import repro.sim.workload as workload
        from repro.core.ema import EMAScheduler
        from repro.core.rtma import RTMAScheduler
        from repro.media.fleet import ClientFleet
        from repro.net.gateway import DataTransmitter, Gateway, InformationCollector
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import SpanRecorder
        from repro.obs.tracer import JsonlTraceWriter
        from repro.radio.rrc import RRCFleet
        from repro.sim.engine import Simulation
        from repro.sim.sessions import SessionManager

        counts = self.counts

        for fn in ("run_scheduler", "compare_schedulers", "sweep", "default_reference", "multi_seed"):
            self._patch_function(runner, fn, "runner")
        for fn in ("calibrate_rtma_threshold", "calibrate_ema_v", "calibrate_ema_v_to_reference"):
            self._patch_function(runner, fn, "runner", mark="calibrating")
        marks = self._marks

        def count_runs(n_runs: int) -> None:
            if marks["calibrating"]:
                counts["runner.calibration_runs"] += n_runs

        self._patch_function(workload, "generate_workload", "workload")

        def on_executor_map(args, kwargs):
            ex, tasks = args[0], args[1]
            counts["executor.tasks"] += len(tasks)
            if ex.batch_size == 1 or len(tasks) == 1:
                counts["executor.groups"] += len(tasks)

        self._patch_function(executor, "map_runs", "executor")
        self._patch_attr(executor.RunExecutor, "map_runs", "executor", on_executor_map)

        def on_groups(groups):
            counts["executor.groups"] += len(groups)

        self._patch_private(executor.RunExecutor, "_group_tasks", after=on_groups)

        def on_batch_plan(args, kwargs):
            counts["batch.runs"] += args[0].n_runs

        self._patch_function(batch, "run_batch", "batch")
        self._patch_attr(batch.BatchPlan, "run", "batch", on_batch_plan)

        def on_stacked(plan, *args):
            counts["batch.stacked_runs"] += plan.n_runs
            count_runs(plan.n_runs)

        self._patch_private(batch.BatchPlan, "_execute", before=on_stacked)

        def on_engine(args, kwargs):
            cfg = args[0].config
            counts["engine.runs"] += 1
            counts["engine.slots"] += cfg.n_slots
            counts["engine.user_slots"] += cfg.n_users * cfg.n_slots
            count_runs(1)

        self._patch_attr(Simulation, "run", "engine", on_engine)

        self._patch_attr(Gateway, "step", "gateway")
        self._patch_attr(Gateway, "step_batch", "gateway")
        for attr in ("collect", "collect_fleet", "collect_fleet_batch"):
            self._patch_attr(InformationCollector, attr, "gateway.collect")
        for attr in ("transmit", "transmit_fleet"):
            self._patch_attr(DataTransmitter, attr, "gateway.transmit")

        for cls, layer in ((RTMAScheduler, "core.rtma"), (EMAScheduler, "core.ema")):
            for attr in ("allocate", "notify"):
                if attr in cls.__dict__:
                    self._patch_attr(cls, attr, layer)
        for name in baselines.__all__:
            cls = getattr(baselines, name)
            if isinstance(cls, type):
                for attr in ("allocate", "notify"):
                    if attr in cls.__dict__:
                        self._patch_attr(cls, attr, "baselines")
        for fn in ("check_constraints", "clip_to_constraints"):
            self._patch_function(allocation, fn, "core.allocation")

        resolve = registry.resolve

        def traced_resolve(name, backend=None):
            kernel = resolve(name, backend)
            on_call = None
            if name == "ema_dp":

                def on_call(args, kwargs):
                    counts["kernels.ema_dp.user_rows"] += int(args[1].shape[0])

            elif name == "ema_dp_batch":

                def on_call(args, kwargs):
                    bounds, budgets = args[2], args[3]
                    rows = (bounds[1:] - bounds[:-1])[budgets > 0]
                    counts["kernels.ema_dp.user_rows"] += int(rows.sum())

            return self._wrap(f"kernels.{name}", kernel, on_call)

        self._saved.append((registry, "resolve", resolve))
        registry.resolve = traced_resolve

        def on_grow(args, kwargs):
            counts["fleet.grows"] += 1

        self._patch_attr(ClientFleet, "begin_slot", "fleet")
        self._patch_attr(ClientFleet, "deliver", "fleet")
        self._patch_attr(ClientFleet, "grow", "fleet", on_grow)
        self._patch_attr(RRCFleet, "step", "rrc")
        self._patch_attr(RRCFleet, "expected_idle_cost_mj", "rrc")

        for attr, key in (
            ("admit", "sessions.admitted"),
            ("reject", "sessions.rejected"),
            ("retire", "sessions.completed"),
        ):
            self._patch_attr(
                SessionManager, attr, "sessions",
                lambda args, kwargs, key=key: counts.__setitem__(key, counts[key] + 1),
            )
        for cls in admission.AdmissionPolicy.__subclasses__():
            if "admit" in cls.__dict__:
                self._patch_attr(cls, "admit", "sessions")

        self._patch_attr(JsonlTraceWriter, "emit", "obs.trace")
        self._patch_attr(JsonlTraceWriter, "close", "obs.trace")
        self._patch_attr(MetricsRegistry, "write_json", "obs.write")
        self._patch_attr(SpanRecorder, "write_artifacts", "obs.write")
        self._patch_function(analyze, "check_trace", "obs.analyze")
        self._patch_function(report, "write_report", "obs.report")

    def remove(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        return {
            layer: {"calls": a[0], "s": a[1], "self_s": a[2]}
            for layer, a in sorted(self._acc.items())
            if a[0]
        }

    def write(self, path, extra: dict) -> None:
        """Write the aggregated layers, counts and coarse spans as JSON."""
        doc = dict(extra)
        doc["layers"] = self.layer_table()
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans"] = [
            {"id": r[0], "parent": r[1], "name": r[2], "start_s": r[3], "end_s": r[4]}
            for r in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
