"""One benchmark process: set up, run a workload's closed loop, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It prints
``READY <import_s> <probe_wall_s> <probe_reference_s> <first_speed>``
on stdout as soon as set-up is done (imports, kernel-backend
resolution, input generation), which is where the parent stops its
set-up clock; the last three fields are the set-up's host-speed probe
(``hostspeed.py``).  With ``--probe`` it exits there; the parent starts
several probes to take a median set-up time.

Otherwise it runs iterations of the workload for ``--seconds`` (at
least two, so every count and digest is compared at least once) and
prints one JSON object on its last stdout line.  Untraced iterations
run under a host-speed probe and are reported in reference seconds.
With ``--trace 1`` it alternates untraced and traced iterations: the
untraced ones give the wall time for the tracing overhead, the traced
ones the per-layer breakdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from hostspeed import SpeedProbe  # noqa: E402  (standard library only)

#: Host-speed probe over the whole set-up, stopped just before READY.
SETUP_PROBE = SpeedProbe(numpy=False)
t_start = time.perf_counter()
SETUP_PROBE.start()
import numpy  # noqa: E402  (part of the measured import cost)
import scipy  # noqa: E402

import repro  # noqa: E402
import repro.experiments.registry  # noqa: E402,F401  (every driver module)
import repro.sim.batch  # noqa: E402,F401
from repro.kernels.backend import resolved_backend, use_backend  # noqa: E402

#: Import time without the probes' own time (host seconds).
IMPORT_S = time.perf_counter() - t_start - SETUP_PROBE.probe_s

from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BACKEND = "numpy"
SPANS_DIR = Path(".bench_build") / "perfbench"

#: The layers each workload was chosen to load (inclusive time).
FOCUS = {
    "rtma_panel": ("gateway", "fleet", "rrc"),
    "ema_panel": ("kernels.ema_dp",),
    "stacked_seeds": ("batch",),
    "churn_traced": ("obs.trace", "obs.write", "obs.analyze", "obs.report"),
}

#: Exact counts the traced run reports (0 where a workload never calls
#: the layer).  ``runs``/``user_slots`` cover serial and stacked runs.
COUNTS = (
    "runs",
    "user_slots",
    "engine.runs",
    "engine.slots",
    "engine.user_slots",
    "runner.calls",
    "runner.calibration_runs",
    "workload.calls",
    "executor.tasks",
    "executor.groups",
    "batch.runs",
    "batch.stacked_runs",
    "gateway.calls",
    "core.rtma.calls",
    "core.ema.calls",
    "baselines.calls",
    "core.allocation.calls",
    "kernels.ema_dp.calls",
    "kernels.ema_dp_batch.calls",
    "kernels.fleet_begin_slot.calls",
    "kernels.fleet_deliver.calls",
    "kernels.rrc_idle_cost.calls",
    "kernels.rrc_step.calls",
    "kernels.rtma_rounds.calls",
    "kernels.rtma_rounds_batch.calls",
    "kernels.ema_dp.user_rows",
    "fleet.calls",
    "fleet.grows",
    "rrc.calls",
    "sessions.admitted",
    "sessions.rejected",
    "sessions.completed",
    "obs.trace_events",
    "obs.trace_bytes",
    "obs.violations",
)


class RunCounter:
    """Counts runs and simulated user-slots with tracing off.

    One increment per ``Simulation.run`` and per ``BatchPlan.run`` (by
    the plan's run count; a batch that falls back to serial runs is
    counted once, through the batch).  It adds no timing and no
    per-slot work.
    """

    def __init__(self) -> None:
        from repro.sim.batch import BatchPlan
        from repro.sim.engine import Simulation

        self.runs = 0
        self.user_slots = 0
        self._in_batch = 0
        sim_run = Simulation.__dict__["run"]
        plan_run = BatchPlan.__dict__["run"]

        def counted_sim(sim, *args, **kwargs):
            if not self._in_batch:
                self._add([sim.config])
            return sim_run(sim, *args, **kwargs)

        def counted_plan(plan, *args, **kwargs):
            self._add([t.config for t in plan.tasks])
            self._in_batch += 1
            try:
                return plan_run(plan, *args, **kwargs)
            finally:
                self._in_batch -= 1

        self._patched = [
            (Simulation, "run", sim_run, counted_sim),
            (BatchPlan, "run", plan_run, counted_plan),
        ]

    def _add(self, configs) -> None:
        self.runs += len(configs)
        self.user_slots += sum(c.n_users * c.n_slots for c in configs)

    def install(self) -> None:
        for cls, attr, _, wrapper in self._patched:
            setattr(cls, attr, wrapper)

    def remove(self) -> None:
        for cls, attr, original, _ in self._patched:
            setattr(cls, attr, original)

    def take(self) -> tuple[int, int]:
        out = (self.runs, self.user_slots)
        self.runs = self.user_slots = 0
        return out


class Loop:
    """The closed loop over one workload and the checks on its outputs."""

    def __init__(self, workload, state) -> None:
        self.workload = workload
        self.state = state
        self.counter = RunCounter()
        #: Untraced iterations: time in reference seconds, host seconds
        #: (both without the probes) and the host speed the probe saw.
        self.wall: list[float] = []
        self.raw_wall: list[float] = []
        self.speed: list[float] = []
        self.user_slots: list[int] = []
        self.traced: list[tuple[float, LayerTracer]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.iteration = 0
        #: The first completed iteration's outcome, which later ones must match.
        self.first = None
        self._counts: dict[str, dict] = {}

    def run_once(self, tracer: LayerTracer | None) -> None:
        """One iteration: timed work and output check, then untimed checks.

        An untraced iteration runs under a :class:`SpeedProbe`; a traced
        one does not, so the probes do not show up in any layer.
        """
        outcome = None
        probe = SpeedProbe(numpy=True) if tracer is None else None
        self.counter.install()
        if tracer is not None:
            tracer.install()
        try:
            if probe is not None:
                probe.start()
            t0 = time.perf_counter()
            try:
                outcome = self.workload.iterate(self.state)
            except Exception:
                self.problems.append(traceback.format_exc(limit=6))
            same = outcome is not None and (self.first is None or self.first.digest == outcome.digest)
            dt = time.perf_counter() - t0
        finally:
            if probe is not None:
                probe.stop()
            if tracer is not None:
                tracer.remove()
            self.counter.remove()
        runs, slots = self.counter.take()
        if probe is not None:
            self.wall.append(probe.reference_s())
            self.raw_wall.append(probe.wall_s - probe.probe_s)
            self.speed.append(probe.speed())
            self.user_slots.append(slots)
        else:
            self.traced.append((dt, tracer))
        self.attempted += max(runs, 1)
        self.failed += max(runs, 1) if outcome is None else self._check(outcome, same, runs, slots, tracer)
        self.workload.cleanup(self.state)

    def _check(self, outcome, same: bool, runs: int, slots: int, tracer) -> int:
        """Failed runs of a completed iteration: bad outputs, digests or counts."""
        if self.first is None:
            self.first = outcome
        bad = outcome.bad_runs
        if not same:
            self.problems.append(
                f"iteration {self.iteration}: output digest differs from the first iteration"
            )
            bad += sum(a != b for a, b in zip(outcome.run_digests, self.first.run_digests)) or runs
        counts = {"runs": runs, "user_slots": slots, **outcome.counts}
        if tracer is not None:
            counts.update(tracer.counts)
            counts.update({f"{layer}.calls": n for layer, n in tracer.calls.items()})
        first = self._counts.setdefault("traced" if tracer else "plain", counts)
        if first != counts:
            keys = sorted(k for k in first.keys() | counts.keys() if first.get(k) != counts.get(k))
            self.problems.append(f"iteration {self.iteration}: counts differ: {keys}")
            bad = max(bad, 1)
        return min(bad, runs)

    def run(self, seconds: float, trace: bool) -> None:
        """Iterate for up to ``seconds`` (at least two iterations).

        The loop stops once another step like the last one would end
        past ``seconds``, so only the two-iteration minimum overruns it.
        """
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.run_once(None)
            self.iteration += 1
            if trace:
                self.run_once(LayerTracer())
                self.iteration += 1
            now = time.perf_counter()
            if self.iteration >= 2 and 2 * now - t0 - started > seconds:
                break

    def final_check(self) -> None:
        """The workload's untimed cross-check of the first iteration."""
        if self.first is None:
            return
        try:
            bad = self.workload.final_check(self.state, self.first)
        except Exception:
            self.problems.append(traceback.format_exc(limit=6))
            bad = 1
        if bad:
            self.problems.append(f"final check: {bad} runs differ from their reference")
            self.failed = min(self.failed + bad, self.attempted)

    def check_earlier_runs(self, path: Path) -> None:
        """Digest and counts must repeat in every run of this seed.

        The first run of a seed on a given ``src`` tree stores its output
        digest and counts in ``path``; later runs of that seed compare
        against them (the traced counts once a traced run has stored them).
        The workload's final check runs until one run of the seed has
        passed it: a later run whose digest equals the stored one has
        the same outputs as the run that passed.
        """
        src = source_digest()
        digest = self.first.digest if self.first is not None else None
        stored = {"src": src, "digest": digest, "counts": {}, "final_checked": False}
        if path.is_file():
            record = json.loads(path.read_text(encoding="utf-8"))
            if record["src"] == src:
                stored = record
        if digest is not None and stored["digest"] != digest:
            self.problems.append("output digest differs from an earlier run of this seed")
            self.failed = max(self.failed, 1)
        for mode, counts in self._counts.items():
            if stored["counts"].setdefault(mode, counts) != counts:
                self.problems.append(f"{mode} counts differ from an earlier run of this seed")
                self.failed = max(self.failed, 1)
        if not stored.get("final_checked") and self.correct:
            self.final_check()
            stored["final_checked"] = self.correct
        if self.correct:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(stored, sort_keys=True), encoding="utf-8")


    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def median_traced(self) -> tuple[float, LayerTracer]:
        """The traced iteration with the median wall time (lower middle)."""
        ranked = sorted(self.traced, key=lambda item: item[0])
        return ranked[(len(ranked) - 1) // 2]

    def layer_metrics(self, focus: tuple[str, ...]) -> dict[str, float]:
        """Per-layer metrics of the median traced iteration, exact counts."""
        wall, tr = self.median_traced()
        total, self_times = tr.total, tr.self_s

        def self_s(*layers) -> float:
            return sum(
                v for k, v in self_times.items()
                if any(k == p or k.startswith(p + ".") for p in layers)
            )

        covered = sum(self_times.values())
        counts = self._counts.get("traced", {})
        m = {
            "traced_wall_s": wall,
            "trace_overhead": wall / statistics.median(self.raw_wall) - 1.0,
            "raw_wall_s": statistics.median(self.raw_wall),
            "host_speed": statistics.median(self.speed),
            "covered_s": covered,
            "unattributed_s": wall - covered,
            "runner.s": total["runner"],
            "runner.self_s": self_s("runner"),
            "workload.self_s": self_s("workload"),
            "executor.s": total["executor"],
            "executor.self_s": self_s("executor"),
            "loop.s": total["engine"] + total["batch"],
            "loop.self_s": self_s("engine", "batch", "sessions"),
            "gateway.s": total["gateway"],
            "gateway.self_s": self_s("gateway"),
            "gateway.collect_s": total["gateway.collect"],
            "gateway.transmit_s": total["gateway.transmit"],
            "core.self_s": self_s("core", "baselines"),
            "kernels.self_s": self_s("kernels"),
            "fleet.self_s": self_s("fleet"),
            "rrc.self_s": self_s("rrc"),
            "focus.s": sum(total[layer] for layer in focus),
        }
        m["focus.share"] = m["focus.s"] / wall
        for key in COUNTS:
            m[key] = counts.get(key, 0)
        reported = m["runs"] - m["runner.calibration_runs"]
        m["runner.runs_per_result"] = m["runs"] / reported if reported else 0.0
        tasks = m["executor.tasks"]
        m["batch.stacked_share"] = m["batch.stacked_runs"] / tasks if tasks else 0.0
        return m


def source_digest() -> str:
    """SHA-256 over the program's source files (paths and contents)."""
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def config_record() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": resolved_backend(),
        "nproc": os.cpu_count(),
        "jobs": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    with use_backend(BACKEND):
        if resolved_backend() != BACKEND:
            print(f"kernel backend resolved to {resolved_backend()!r}", file=sys.stderr)
            return 2
        state = workload.prepare(args.seed)
        SETUP_PROBE.stop()
        print(
            f"READY {IMPORT_S!r} {SETUP_PROBE.wall_s!r} {SETUP_PROBE.reference_s()!r} "
            f"{SETUP_PROBE.speeds()[0]!r}",
            flush=True,
        )
        if args.probe:
            return 0
        loop = Loop(workload, state)
        loop.run(args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.check_earlier_runs(SPANS_DIR / "seeds" / f"{args.workload}-seed{args.seed}.json")
        config = config_record()
    for text in loop.problems:
        print(text, file=sys.stderr)
    wall = statistics.median(loop.wall)
    result = {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "wall_s": wall,
        "wall_samples": loop.wall,
        "raw_wall_samples": loop.raw_wall,
        "speed_samples": loop.speed,
        "user_slots_per_s": statistics.median(loop.user_slots) / wall,
        "peak_rss_mb": peak_rss_mb,
        "config": config,
    }
    if args.trace:
        result["layers"] = loop.layer_metrics(FOCUS[args.workload])
        wall_s, tracer = loop.median_traced()
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "wall_s": wall_s})
        print(f"spans: {path}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
