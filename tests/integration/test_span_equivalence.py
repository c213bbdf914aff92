"""Span-profiler observer effect and pooled-merge determinism.

Mirrors ``test_live_equivalence.py`` for the hierarchical span
profiler: every scheduler x seed combination runs twice — bare, and
with a :class:`~repro.obs.spans.SpanRecorder` attached — and every
result grid must match byte-for-byte (the phase adders never touch
simulation state).  Companion tests pin the tree's shape (phases under
``run;slots``, kernels under their static phases) and the pooled
contract: merging worker span states in task order reproduces a serial
run's interning order and call counts exactly.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    DefaultScheduler,
    EStreamerScheduler,
    OnOffScheduler,
    SalsaScheduler,
    ThrottlingScheduler,
)
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.obs import Instrumentation
from repro.obs.spans import SLOT_PREFIX, SpanRecorder
from repro.sim.config import SimConfig
from repro.sim.engine import SPAN_BLOCK_SLOTS, Simulation
from repro.sim.executor import RunExecutor, RunTask
from repro.sim.workload import generate_workload

RESULT_ARRAYS = (
    "allocation_units",
    "delivered_kb",
    "rebuffering_s",
    "energy_trans_mj",
    "energy_tail_mj",
    "buffer_s",
    "need_kb",
    "active",
    "completion_slot",
    "arrival_slot",
)

SCHEDULERS = {
    "rtma": lambda cfg: RTMAScheduler(sig_threshold_dbm=-95.0),
    "ema": lambda cfg: EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s),
    "default": lambda cfg: DefaultScheduler(),
    "on-off": lambda cfg: OnOffScheduler(),
    "throttling": lambda cfg: ThrottlingScheduler(),
    "estreamer": lambda cfg: EStreamerScheduler(),
    "salsa": lambda cfg: SalsaScheduler(),
}

PHASES = ("playback", "observe", "schedule", "transmit", "rrc", "feedback")


def _spans_run(cfg, scheduler, wl):
    spans = SpanRecorder()
    instr = Instrumentation(spans=spans)
    result = Simulation(cfg, scheduler, wl, instrumentation=instr).run()
    return result, spans


class TestSpanObserverEffect:
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("seed", [1, 23])
    def test_spans_on_off_bit_identical(self, sched_name, seed):
        cfg = SimConfig(n_users=6, n_slots=200, seed=seed)
        wl = generate_workload(cfg)
        make = SCHEDULERS[sched_name]

        bare = Simulation(cfg, make(cfg), wl).run()
        profiled, spans = _spans_run(cfg, make(cfg), wl)

        for name in RESULT_ARRAYS:
            assert (
                getattr(bare, name).tobytes() == getattr(profiled, name).tobytes()
            ), f"{name} differs with span profiling attached ({sched_name})"
        # And the recorder actually saw the run.
        assert spans.state()["run"][0] == 1


class TestTreeShape:
    def test_canonical_hierarchy(self):
        cfg = SimConfig(n_users=8, n_slots=200, seed=5)
        wl = generate_workload(cfg)
        _, spans = _spans_run(cfg, RTMAScheduler(sig_threshold_dbm=-95.0), wl)
        state = spans.state()

        assert state["run"][0] == 1
        # 200 slots in 64-slot blocks -> ceil(200/64) = 4 block spans.
        expected_blocks = -(-cfg.n_slots // SPAN_BLOCK_SLOTS)
        assert state[";".join(SLOT_PREFIX)][0] == expected_blocks
        for phase in PHASES:
            path = ";".join(SLOT_PREFIX + (phase,))
            assert state[path][0] == cfg.n_slots, path

    def test_kernel_spans_nest_under_their_phases(self):
        cfg = SimConfig(n_users=8, n_slots=200, seed=5)
        wl = generate_workload(cfg)
        _, spans = _spans_run(cfg, RTMAScheduler(sig_threshold_dbm=-95.0), wl)
        kernel_paths = [p for p in spans.state() if ";kernel:" in p]
        assert kernel_paths, "no kernel spans recorded"
        for path in kernel_paths:
            parts = path.split(";")
            # run;slots;<phase>;kernel:<name>[<backend>]
            assert parts[:2] == list(SLOT_PREFIX)
            assert parts[2] in PHASES
            assert "[" in parts[3] and parts[3].endswith("]")
        # RTMA's scheduling kernel lands under the schedule phase.
        assert any(
            p.startswith(";".join(SLOT_PREFIX) + ";schedule;kernel:rtma_rounds_batch[")
            for p in kernel_paths
        )


class TestPooledMergeDeterminism:
    def _tasks(self):
        tasks = []
        for seed in (1, 2, 3, 4):
            cfg = SimConfig(n_users=5, n_slots=120, seed=seed)
            tasks.append(RunTask(cfg, DefaultScheduler(), generate_workload(cfg)))
        return tasks

    def _run(self, jobs):
        spans = SpanRecorder()
        instr = Instrumentation(spans=spans)
        results = RunExecutor(jobs=jobs, batch_size=1).map_runs(self._tasks(), instr)
        return results, spans

    def test_pooled_tree_matches_serial(self):
        serial_results, serial_spans = self._run(jobs=1)
        pooled_results, pooled_spans = self._run(jobs=2)

        for ser, par in zip(serial_results, pooled_results):
            for name in RESULT_ARRAYS:
                assert (
                    getattr(ser, name).tobytes() == getattr(par, name).tobytes()
                )

        ser_state, par_state = serial_spans.state(), pooled_spans.state()
        # Identical structure in identical (task) order...
        assert list(ser_state) == list(par_state)
        # ...and identical call counts.  Totals are wall-clock and
        # cannot match; structure + counts are the contract.
        assert {p: v[0] for p, v in ser_state.items()} == {
            p: v[0] for p, v in par_state.items()
        }
        assert ser_state["run"][0] == 4

    def test_pooled_merge_is_task_ordered_not_completion_ordered(self):
        """Reversing per-task durations cannot change the merged
        interning order: a long task 0 still interns first."""
        tasks = []
        for seed, slots in ((1, 400), (2, 40)):
            cfg = SimConfig(n_users=5, n_slots=slots, seed=seed)
            tasks.append(RunTask(cfg, DefaultScheduler(), generate_workload(cfg)))
        spans = SpanRecorder()
        instr = Instrumentation(spans=spans)
        RunExecutor(jobs=2).map_runs(tasks, instr)

        reference = SpanRecorder()
        ref_instr = Instrumentation(spans=reference)
        RunExecutor(jobs=1).map_runs(tasks, ref_instr)
        assert list(spans.state()) == list(reference.state())
