"""EMA's greedy-first allocation is invisible: it equals the DP alone.

:class:`~repro.core.ema.EMAScheduler` solves each slot's Eq. 22
knapsack with a certified convex greedy and sends only the segments it
cannot certify to Algorithm 2's DP.  Here the same runs execute twice,
normally and with every segment forced to the DP
(:func:`tests.dp_oracle.dp_only`), and every result grid must match
byte for byte.  Each scenario also checks that both branches ran: a
constant signal and equal media rates give users identical costs, so
some slots tie exactly and go to the DP.
"""

from collections import Counter

import numpy as np

from repro.core.ema import EMAScheduler
from repro.radio.signal import ConstantSignalModel
from repro.sim.batch import batch_incompatibility, run_batch
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.executor import RunTask
from repro.sim.workload import generate_workload

from tests.dp_oracle import branches, dp_only, greedy_calls
from tests.integration.test_batch_equivalence import assert_results_bit_identical
from tests.integration.test_churn import churn_config


#: Identical users: one signal level and one media rate for all.
TWINS = dict(signal_model=ConstantSignalModel(-80.0), rate_range_kbps=(400.0, 400.0))


def _cfg(seed, **overrides):
    base = dict(
        n_users=10,
        n_slots=250,
        capacity_kbps=6_000.0,
        video_size_range_kb=(20_000.0, 50_000.0),
        buffer_capacity_s=60.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def _compare(run):
    """``run()`` normally and DP-only; the grids must be identical."""
    with greedy_calls() as calls:
        normal = run()
    with dp_only():
        oracle = run()
    tally = Counter(b for args, certified in calls for b in branches(args, certified))
    assert tally["free"] and tally["bound"] and tally["dp"], tally
    assert len(normal) == len(oracle)
    for r, (a, b) in enumerate(zip(normal, oracle)):
        assert_results_bit_identical(a, b, f"run {r}")
        assert a.summary().as_dict() == b.summary().as_dict()


class TestGreedyEqualsDP:
    def test_lone_run(self):
        cfg = _cfg(5, **TWINS)
        _compare(
            lambda: [Simulation(cfg, EMAScheduler(cfg.n_users, v_param=0.05)).run()]
        )

    def test_stacked_lanes(self):
        """R = 3 with per-run V, queue floor and queue seed lanes."""
        # The first run keeps the default signal model and rates.
        configs = [_cfg(1, n_slots=150)] + [
            _cfg(s, n_slots=150, **TWINS) for s in (2, 3)
        ]
        lanes = ((0.2, None, "auto"), (0.05, -2.0, 0.0), (1.0, None, 5.0))

        def run():
            tasks = [
                RunTask(
                    cfg,
                    EMAScheduler(
                        cfg.n_users, v_param=v, queue_floor_s=floor, queue_init=init
                    ),
                    generate_workload(cfg),
                )
                for cfg, (v, floor, init) in zip(configs, lanes)
            ]
            assert batch_incompatibility(tasks) is None
            return run_batch(tasks)

        _compare(run)

    def test_churn_run(self):
        cfg = churn_config(**TWINS)

        def run():
            res = Simulation(cfg, EMAScheduler(cfg.n_users, v_param=0.05)).run()
            assert np.any(res.admitted)
            return [res]

        _compare(run)
