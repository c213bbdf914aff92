"""Tests for EMA (Algorithm 2): DP exactness, queue dynamics, behaviour."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.allocation import check_constraints
from repro.core.ema import EMAScheduler, trailing_window_min
from repro.core.knapsack import exact_slot_minimum
from repro.errors import ConfigurationError
from repro.kernels import registry

from tests.conftest import make_obs
from tests.dp_oracle import branches, greedy_calls


class TestTrailingWindowMin:
    def test_empty_window_at_zero(self):
        out = trailing_window_min(np.array([5.0, 1.0, 3.0]), 2)
        assert np.isinf(out[0])

    def test_matches_naive(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 60))
            w = int(rng.integers(1, 15))
            v = rng.normal(size=n) * 10
            out = trailing_window_min(v, w)
            ref = np.array(
                [v[max(0, m - w) : m].min() if m > 0 else np.inf for m in range(n)]
            )
            np.testing.assert_allclose(out, ref)

    def test_window_larger_than_array(self):
        v = np.array([3.0, 1.0, 2.0])
        out = trailing_window_min(v, 100)
        np.testing.assert_allclose(out, [np.inf, 3.0, 1.0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trailing_window_min(np.array([1.0]), 0)


def ema_cost_tables(ema, obs, pc):
    """Rebuild the f(i, phi) tables the DP should be minimising."""
    tables, idx = [], []
    for i in range(obs.n_users):
        if not obs.active[i]:
            continue
        w = int(min(obs.link_units[i], np.ceil(obs.remaining_kb[i] / obs.delta_kb)))
        if not np.isfinite(obs.p_mj_per_kb[i]):
            w = 0
        f = np.empty(w + 1)
        f[0] = pc[i] * obs.tau_s + ema.v_param * obs.idle_tail_cost_mj[i]
        for phi in range(1, w + 1):
            e_trans = ema.v_param * obs.p_mj_per_kb[i] * phi * obs.delta_kb
            t = phi * obs.delta_kb / obs.rate_kbps[i]
            f[phi] = e_trans + pc[i] * (obs.tau_s - t)
        tables.append(f)
        idx.append(i)
    return tables, idx


class TestDPExactness:
    def test_matches_reference_dp(self, rng):
        for trial in range(120):
            n = int(rng.integers(1, 6))
            budget = int(rng.integers(1, 15))
            obs = make_obs(
                n_users=n,
                unit_budget=budget,
                link_units=rng.integers(0, 7, n),
                rate_kbps=rng.uniform(300, 600, n),
                p_mj_per_kb=rng.uniform(0.2, 4.0, n),
                active=rng.random(n) < 0.85,
                remaining_kb=rng.uniform(50, 1e6, n),
                idle_tail_cost_mj=rng.uniform(0, 800, n),
            )
            ema = EMAScheduler(n, v_param=float(rng.uniform(0.01, 2.0)), queue_init=0.0)
            ema.allocate(obs)  # trigger lazy queue seeding first
            pc = rng.normal(0, 40, n)
            ema.queues.values = pc.copy()
            phi = ema.allocate(obs)
            check_constraints(phi, obs)
            tables, idx = ema_cost_tables(ema, obs, pc)
            if not tables:
                assert phi.sum() == 0
                continue
            opt_val, _ = exact_slot_minimum(tables, budget)
            my_val = sum(tables[k][int(phi[i])] for k, i in enumerate(idx))
            assert my_val == pytest.approx(opt_val, abs=1e-8)

    def test_infinite_power_user_excluded(self):
        obs = make_obs(
            n_users=2, p_mj_per_kb=[np.inf, 0.5], link_units=[10, 10], unit_budget=50
        )
        ema = EMAScheduler(2, v_param=0.1)
        ema.queues.values = np.array([100.0, 100.0])
        ema._initialized[:] = True
        phi = ema.allocate(obs)
        assert phi[0] == 0
        assert phi[1] > 0


class TestQueueDynamics:
    def test_notify_applies_eq16(self):
        ema = EMAScheduler(2, v_param=0.1, queue_init=0.0)
        obs = make_obs(n_users=2, rate_kbps=[400.0, 400.0])
        ema.allocate(obs)  # seeds queues (at zero)
        phi = np.array([2, 0])
        delivered = np.array([80.0, 0.0])  # t = 0.2 s and 0 s
        ema.notify(obs, phi, delivered)
        assert ema.queues.values[0] == pytest.approx(1.0 - 0.2)
        assert ema.queues.values[1] == pytest.approx(1.0)

    def test_inactive_queues_frozen(self):
        ema = EMAScheduler(2, v_param=0.1, queue_init=0.0)
        obs = make_obs(n_users=2, active=[True, False])
        ema.allocate(obs)
        ema.notify(obs, np.zeros(2, dtype=np.int64), np.zeros(2))
        assert ema.queues.values[1] == 0.0

    def test_queue_floor_clamps(self):
        ema = EMAScheduler(1, v_param=0.1, queue_floor_s=-5.0, queue_init=0.0)
        obs = make_obs(n_users=1, rate_kbps=[400.0])
        ema.allocate(obs)
        # Deliver a huge shard: raw queue would go far negative.
        ema.notify(obs, np.array([100]), np.array([4000.0]))
        assert ema.queues.values[0] == -5.0

    def test_auto_seed_scales_with_v_and_rate(self):
        ema = EMAScheduler(2, v_param=0.5, typical_p_mj_per_kb=1.0)
        obs = make_obs(n_users=2, rate_kbps=[300.0, 600.0])
        ema.allocate(obs)
        np.testing.assert_allclose(ema.queues.values, [150.0, 300.0])

    def test_reset_clears_state(self):
        ema = EMAScheduler(1, v_param=0.1)
        obs = make_obs(n_users=1)
        ema.allocate(obs)
        ema.reset()
        assert ema.queues.values[0] == 0.0
        assert not ema._initialized.any()


class TestBehaviour:
    def test_positive_queue_pressure_transmits(self):
        ema = EMAScheduler(1, v_param=0.01, queue_init=0.0)
        obs = make_obs(n_users=1, unit_budget=100)
        ema.allocate(obs)
        ema.queues.values = np.array([50.0])  # heavy rebuffering pressure
        phi = ema.allocate(obs)
        assert phi[0] > 0

    def test_deep_negative_queue_idles(self):
        ema = EMAScheduler(1, v_param=0.01, queue_init=0.0)
        obs = make_obs(n_users=1, unit_budget=100, idle_tail_cost_mj=[0.0])
        ema.allocate(obs)
        ema.queues.values = np.array([-500.0])  # huge prefetched credit
        phi = ema.allocate(obs)
        assert phi[0] == 0

    def test_tail_cost_induces_batching(self):
        # Idle-cost pricing: a user in DCH tail keeps transmitting even
        # with mildly negative queue, because idling costs V * tail.
        ema = EMAScheduler(1, v_param=1.0, queue_init=0.0)
        obs = make_obs(
            n_users=1, unit_budget=100, idle_tail_cost_mj=[732.0],
            p_mj_per_kb=[0.2], rate_kbps=[400.0],
        )
        ema.allocate(obs)
        ema.queues.values = np.array([-1.0])
        phi_with_tail = ema.allocate(obs)
        ema.queues.values = np.array([-1.0])
        obs_no_tail = make_obs(
            n_users=1, unit_budget=100, idle_tail_cost_mj=[0.0],
            p_mj_per_kb=[0.2], rate_kbps=[400.0],
        )
        phi_no_tail = ema.allocate(obs_no_tail)
        assert phi_with_tail[0] > 0
        assert phi_no_tail[0] == 0

    def test_larger_v_transmits_less_under_pressure(self):
        obs = make_obs(n_users=1, unit_budget=100, p_mj_per_kb=[2.0])
        allocations = []
        for v in (0.001, 10.0):
            ema = EMAScheduler(1, v_param=v, queue_init=0.0)
            ema.allocate(obs)
            ema.queues.values = np.array([5.0])
            allocations.append(int(ema.allocate(obs)[0]))
        assert allocations[0] > allocations[1]

    def test_user_count_mismatch_raises(self):
        ema = EMAScheduler(3)
        with pytest.raises(ConfigurationError):
            ema.allocate(make_obs(n_users=2))

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, v_param=0.0)
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, queue_floor_s=1.0)
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, queue_init="bogus")
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, queue_init=-1.0)
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, typical_p_mj_per_kb=0.0)


def _dp_reference(n_users, active_idx, w, slope, const, idle, act_bounds, budgets):
    """``ema_dp_batch`` alone on the coefficients ``allocate`` built."""
    sizes = np.diff(act_bounds)
    w = np.minimum(w, np.repeat(budgets + 1, sizes))
    n_states = int(budgets.max()) + 1
    phi = np.zeros(n_users, dtype=np.int64)
    registry.resolve("ema_dp_batch", "numpy")(
        phi,
        active_idx,
        act_bounds,
        budgets,
        w,
        w - w // 2 - 1,
        slope,
        const,
        idle,
        np.empty(int(sizes.max()) * n_states),
        np.arange(n_states, dtype=float),
        np.empty(4 * n_states),
        np.empty(n_states, dtype=np.int64),
    )
    return phi


def _stacked_obs(obs, sizes, budgets):
    """``obs`` cut into run segments of ``sizes`` rows with ``budgets``."""
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    budgets = np.asarray(budgets, dtype=np.int64)
    return replace(
        obs,
        unit_budget=int(budgets.sum()),
        run_offsets=offsets,
        run_unit_budgets=budgets,
    )


class TestConvexGreedy:
    """``allocate``'s bytes equal the DP's on every greedy branch."""

    @staticmethod
    def solve(ema, obs, pc=None):
        """Allocate, check the bytes against the DP, return the branches.

        ``pc`` (optional) overwrites the virtual queues after the
        seeding allocate.
        """
        ema.allocate(obs)  # seed the queues
        if pc is not None:
            ema.queues.values = np.asarray(pc, dtype=float).copy()
        with greedy_calls() as calls:
            phi = ema.allocate(obs)
        check_constraints(phi, obs)
        if not calls:
            assert not phi.any()
            return []
        (args, certified), = calls
        ref = _dp_reference(obs.n_users, np.flatnonzero(obs.active), *args)
        assert phi.tobytes() == ref.tobytes()
        return branches(args, certified)

    def _random_case(self, rng):
        """Mixed instances: ties, zero and negative (non-convex) tails,
        windows beyond the budget, infinite P, 1-3 run segments."""
        n_runs = int(rng.integers(1, 4))
        sizes = rng.integers(1, 7, n_runs)
        n = int(sizes.sum())
        p = rng.choice([0.3, 0.51, 1.2, np.inf], n, p=[0.3, 0.3, 0.3, 0.1])
        rate = rng.choice([300.0, 400.0, 550.0], n)
        tail = rng.choice([0.0, 5.0, 732.0, -5.0], n, p=[0.3, 0.3, 0.3, 0.1])
        obs = make_obs(
            n_users=n,
            link_units=rng.integers(0, 25, n),
            rate_kbps=rate,
            p_mj_per_kb=p,
            active=rng.random(n) < 0.9,
            remaining_kb=rng.choice([40.0, 300.0, 1e6], n),
            idle_tail_cost_mj=tail,
        )
        obs = _stacked_obs(obs, sizes, rng.integers(0, 30, n_runs))
        offsets = obs.run_offsets
        scheds = [
            EMAScheduler(
                int(offsets[r + 1] - offsets[r]),
                v_param=float(rng.choice([0.05, 0.5, 2.0])),
                queue_init="auto" if rng.random() < 0.5 else 0.0,
            )
            for r in range(n_runs)
        ]
        ema = scheds[0] if n_runs == 1 else EMAScheduler.stack(scheds, offsets)
        # Queues at the auto seed (None) tie users of equal signal and
        # rate exactly; random queues separate them.
        pc = None if rng.random() < 0.5 else rng.normal(0, 40, n).round(1)
        return ema, obs, pc

    def test_matches_dp_on_every_branch(self, rng):
        seen = Counter()
        for _ in range(300):
            seen.update(self.solve(*self._random_case(rng)))
        assert seen["free"] and seen["bound"] and seen["dp"], seen

    def test_exact_ties_fall_back(self):
        # Same signal, rate and auto-seeded queue: every user's costs are
        # equal, and a budget that cuts between them is a tie.
        obs = make_obs(n_users=4, unit_budget=50, idle_tail_cost_mj=732.0)
        assert self.solve(EMAScheduler(4, v_param=0.05), obs) == ["dp"]

    def test_zero_tail_merges_the_blocks(self):
        # tail = 0: a user's first-unit marginal equals its slope.
        obs = make_obs(
            n_users=3, unit_budget=20, p_mj_per_kb=[0.3, 0.51, 1.2],
            rate_kbps=[300.0, 400.0, 550.0],
        )
        assert self.solve(EMAScheduler(3, v_param=0.05), obs) == ["bound"]
        roomy = _stacked_obs(obs, [3], [500])
        assert self.solve(EMAScheduler(3, v_param=0.05), roomy) == ["free"]

    def test_zero_slope_and_tiny_margins_fall_back(self):
        # V * P = PC / rate exactly: slope == 0, so phi = 1..w tie.
        obs = make_obs(
            n_users=1, p_mj_per_kb=[0.5], rate_kbps=[400.0], idle_tail_cost_mj=[10.0]
        )
        assert self.solve(EMAScheduler(1, v_param=1.0), obs, [200.0]) == ["dp"]
        # First-unit margin 5e-13: inside the DP's 1e-12 no-tx rule.
        obs = replace(obs, idle_tail_cost_mj=np.array([5e-13]))
        assert self.solve(EMAScheduler(1, v_param=1.0), obs, [200.0]) == ["dp"]
        # Well clear of zero, the same user is certified.
        assert self.solve(EMAScheduler(1, v_param=1.0), obs, [260.0]) == ["free"]

    def test_window_beyond_budget_and_infinite_power(self):
        obs = make_obs(
            n_users=3, unit_budget=7, link_units=[57, 57, 57],
            p_mj_per_kb=[np.inf, 0.51, 0.9], rate_kbps=[400.0, 450.0, 500.0],
        )
        assert self.solve(EMAScheduler(3, v_param=0.05), obs) == ["bound"]

    def test_nonconvex_segment_falls_back(self):
        # A negative tail puts idle below const: the costs are not
        # convex and the greedy's exchange argument does not hold.
        obs = make_obs(
            n_users=2, unit_budget=30, idle_tail_cost_mj=[-50.0, 0.0],
            p_mj_per_kb=[0.51, 0.7],
        )
        assert self.solve(EMAScheduler(2, v_param=1.0), obs, [100.0, 90.0]) == ["dp"]

    def test_near_ties_at_large_costs(self, rng):
        # Queues near 2e4 s and slopes a few ulps apart: the DP's own
        # rounding (~1e-10 here) decides such cuts, so only a tolerance
        # relative to the costs keeps the greedy off them.
        seen = Counter()
        for _ in range(200):
            n = int(rng.integers(2, 8))
            obs = make_obs(
                n_users=n,
                unit_budget=int(rng.integers(3, 40)),
                link_units=rng.integers(1, 12, n),
                rate_kbps=400.0 * (1 + rng.integers(-3, 4, n) * 1e-14),
                idle_tail_cost_mj=rng.choice([0.0, 732.0], n),
            )
            pc = 2e4 * (1 + rng.integers(-3, 4, n) * 1e-15)
            seen.update(self.solve(EMAScheduler(n, v_param=1.0), obs, pc))
        assert seen["dp"], seen
