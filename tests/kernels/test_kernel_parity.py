"""Bit-identity of the loop (numba-source) kernels vs the numpy kernels.

Every registered kernel has a vectorised numpy implementation and a
loop implementation (the numba source, run interpreted here).  The
backend contract is *bit-identity* — same output bytes for the same
inputs — which is what lets ``SimConfig.kernel_backend`` switch
backends without perturbing any result.  These tests hammer each pair
with randomized instances shaped like the production call sites.

On machines with Numba the same checks run against the JIT-compiled
kernels too (the compiled function executes the loop source).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import SlotArena, available_backends, registry

RNG_TRIALS = 200

#: Backends to pit against the numpy reference.
ALT_BACKENDS = [b for b in available_backends() if b != "numpy"]


def resolve_pair(name, alt):
    return registry.resolve(name, "numpy"), registry.resolve(name, alt)


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestEmaDpParity:
    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("ema_dp", alt)
        rng = np.random.default_rng(7)
        for _ in range(RNG_TRIALS):
            n_users = int(rng.integers(1, 8))
            n_active = int(rng.integers(1, n_users + 1))
            n_states = int(rng.integers(1, 40))
            active_idx = np.sort(
                rng.choice(n_users, size=n_active, replace=False)
            ).astype(np.int64)
            w_eff = rng.integers(0, n_states + 1, size=n_active).astype(np.int64)
            origin = w_eff - w_eff // 2 - 1
            slope = rng.normal(0.0, 5.0, size=n_active)
            const = rng.uniform(0.0, 10.0, size=n_active)
            idle = rng.uniform(0.0, 5.0, size=n_active)
            m_idx = np.arange(n_states, dtype=float)

            outs = []
            for kern in (k_np, k_alt):
                phi = np.zeros(n_users, dtype=np.int64)
                rows = np.empty((n_active, n_states), dtype=float)
                fscratch = np.empty(4 * n_states, dtype=float)
                iscratch = np.empty(n_states, dtype=np.int64)
                m_star = kern(
                    phi,
                    active_idx,
                    w_eff,
                    origin,
                    slope,
                    const,
                    idle,
                    rows,
                    m_idx,
                    fscratch,
                    iscratch,
                )
                outs.append((int(m_star), phi.tobytes(), rows.tobytes()))
            assert outs[0] == outs[1]


#: RTMA rounds instance shapes aimed at the closed form's edges.
ROUNDS_KINDS = [
    "many_rounds",  # need 1, cap up to ~1000: a bisection of >= 10 steps
    "started",  # a non-zero starting phi
    "cap_below_phi",  # some caps already below phi: no headroom
    "negative_budget",
    "all_fit",  # total headroom <= budget: every user ends at its cap
    "exact_tie",  # budget == S(k) for some k: the partial round grants 0
]


def _rounds_case(rng, n, kind):
    """``(phi, eligible, need, cap, budget)`` for one rounds instance."""
    eligible = rng.random(n) < 0.8
    need = rng.integers(1, 10, size=n).astype(np.int64)
    cap = rng.integers(0, 40, size=n).astype(np.int64)
    phi = np.zeros(n, dtype=np.int64)
    if kind == "many_rounds":
        need[:] = 1
        cap = rng.integers(0, 1000, size=n).astype(np.int64)
        cap[:1] = 1000
    elif kind == "started":
        phi = rng.integers(0, 20, size=n).astype(np.int64)
    elif kind == "cap_below_phi":
        phi = rng.integers(0, 40, size=n).astype(np.int64)
        cap[rng.random(n) < 0.5] = 0
    headroom = np.where(eligible, np.maximum(cap - phi, 0), 0)
    if kind == "negative_budget":
        budget = -int(rng.integers(0, 20))
    elif kind == "all_fit":
        budget = int(headroom.sum()) + int(rng.integers(0, 5))
    elif kind == "exact_tie":
        k = int(rng.integers(0, 6))
        budget = int(np.minimum(k * need, headroom).sum())
    else:
        budget = int(rng.integers(0, max(int(headroom.sum()), 1) + 1))
    return phi, eligible, need, cap, budget


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestRtmaRoundsParity:
    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("rtma_rounds", alt)
        rng = np.random.default_rng(11)
        for _ in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            eligible = rng.random(n) < 0.7
            need = rng.integers(1, 10, size=n).astype(np.int64)
            cap = rng.integers(0, 20, size=n).astype(np.int64)
            order = np.argsort(rng.uniform(0, 1, size=n), kind="stable")
            budget = int(rng.integers(0, 60))

            outs = []
            for kern in (k_np, k_alt):
                phi = np.zeros(n, dtype=np.int64)
                left = kern(phi, eligible, need, cap, order, budget)
                outs.append((int(left), phi.tobytes()))
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ROUNDS_KINDS)
    def test_edge_cases(self, alt, kind):
        k_np, k_alt = resolve_pair("rtma_rounds", alt)
        rng = np.random.default_rng(19)
        for _ in range(RNG_TRIALS):
            n = int(rng.integers(1, 40))
            phi0, eligible, need, cap, budget = _rounds_case(rng, n, kind)
            order = np.argsort(rng.uniform(0, 1, size=n), kind="stable")

            outs = []
            for kern in (k_np, k_alt):
                phi = phi0.copy()
                left = kern(phi, eligible, need, cap, order, budget)
                # The leftover is what the grants did not spend.
                if budget > 0:
                    assert int(left) == budget - int((phi - phi0).sum())
                else:
                    assert int(left) == budget
                outs.append((int(left), phi.tobytes()))
            assert outs[0] == outs[1]

    def test_worked_example(self, alt):
        # Needs (1, 2) under caps (5, 5).  Budget 5: two full rounds would
        # spend 6, so round 2 is partial — user 0 takes its 1 first, user
        # 1 the last unit.  Budget 13 exceeds the total headroom of 10.
        for budget, expected in ((5, (0, [2, 3])), (13, (3, [5, 5]))):
            for kern in resolve_pair("rtma_rounds", alt):
                phi = np.zeros(2, dtype=np.int64)
                left = kern(
                    phi,
                    np.ones(2, dtype=bool),
                    np.array([1, 2], dtype=np.int64),
                    np.full(2, 5, dtype=np.int64),
                    np.arange(2, dtype=np.int64),
                    budget,
                )
                assert (int(left), phi.tolist()) == expected


def _segments(rng, max_rows):
    """Random R = 1-4 run segment bounds; some segments are empty."""
    sizes = rng.integers(0, max_rows + 1, size=int(rng.integers(1, 5)))
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


def _budgets(rng, n_runs, high):
    """Per-run budgets; roughly one in four is zero."""
    budgets = rng.integers(1, high, size=n_runs).astype(np.int64)
    budgets[rng.random(n_runs) < 0.25] = 0
    return budgets


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestEmaDpBatchParity:
    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("ema_dp_batch", alt)
        rng = np.random.default_rng(13)
        for _ in range(RNG_TRIALS):
            run_offsets = _segments(rng, 6)
            n_runs = run_offsets.size - 1
            budgets = _budgets(rng, n_runs, 30)
            # Each run's active rows (global indices) and their w_eff,
            # capped at that run's n_states = budget + 1.
            active, w_eff = [], []
            for r in range(n_runs):
                rows = np.arange(run_offsets[r], run_offsets[r + 1])
                rows = rows[rng.random(rows.size) < 0.8]
                active.append(rows)
                w_eff.append(rng.integers(0, budgets[r] + 2, size=rows.size))
            active_idx = np.concatenate(active).astype(np.int64)
            act_bounds = np.concatenate(
                ([0], np.cumsum([a.size for a in active]))
            ).astype(np.int64)
            w_eff = np.concatenate(w_eff).astype(np.int64)
            n_active = active_idx.size
            origin = w_eff - w_eff // 2 - 1
            slope = rng.normal(0.0, 5.0, size=n_active)
            const = rng.uniform(0.0, 10.0, size=n_active)
            idle = rng.uniform(0.0, 5.0, size=n_active)
            n_states = int(budgets.max()) + 1
            seg_max = int(np.diff(act_bounds).max())

            outs = []
            for kern in (k_np, k_alt):
                phi = np.zeros(int(run_offsets[-1]), dtype=np.int64)
                kern(
                    phi,
                    active_idx,
                    act_bounds,
                    budgets,
                    w_eff,
                    origin,
                    slope,
                    const,
                    idle,
                    np.empty(seg_max * n_states, dtype=float),
                    np.arange(n_states, dtype=float),
                    np.empty(4 * n_states, dtype=float),
                    np.empty(n_states, dtype=np.int64),
                )
                outs.append(phi.tobytes())
            assert outs[0] == outs[1]


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestRtmaRoundsBatchParity:
    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("rtma_rounds_batch", alt)
        rng = np.random.default_rng(17)
        for _ in range(RNG_TRIALS):
            run_offsets = _segments(rng, 10)
            n_runs = run_offsets.size - 1
            n = int(run_offsets[-1])
            budgets = _budgets(rng, n_runs, 60)
            eligible = rng.random(n) < 0.7
            need = rng.integers(1, 10, size=n).astype(np.int64)
            cap = rng.integers(0, 20, size=n).astype(np.int64)
            # Run-local stable rate order within each segment.
            order = np.concatenate(
                [
                    np.argsort(rng.uniform(0, 1, size=hi - lo), kind="stable")
                    for lo, hi in zip(run_offsets[:-1], run_offsets[1:])
                ]
            ).astype(np.int64)

            outs = []
            for kern in (k_np, k_alt):
                phi = np.zeros(n, dtype=np.int64)
                kern(phi, eligible, need, cap, order, budgets, run_offsets)
                outs.append(phi.tobytes())
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("layout", ["equal_width", "ragged"])
    def test_edge_cases(self, alt, layout):
        # "equal_width" is the shape RTMAScheduler sends: R equal-width
        # segments, each with its own run-local rate order and budget;
        # "ragged" has unequal and empty segments.  Every segment is an
        # edge case of its own kind and must get what the scalar kernel
        # gives it alone.
        k_scalar = registry.resolve("rtma_rounds", "numpy")
        k_np, k_alt = resolve_pair("rtma_rounds_batch", alt)
        rng = np.random.default_rng(23)
        for _ in range(RNG_TRIALS):
            if layout == "equal_width":
                n_runs, width = int(rng.integers(1, 6)), int(rng.integers(1, 30))
                run_offsets = np.arange(n_runs + 1, dtype=np.int64) * width
            else:
                run_offsets = _segments(rng, 30)
            sizes = np.diff(run_offsets)
            kinds = rng.integers(0, len(ROUNDS_KINDS), size=sizes.size)
            cases = [
                _rounds_case(rng, int(n), ROUNDS_KINDS[int(k)])
                for n, k in zip(sizes, kinds)
            ]
            phi0, eligible, need, cap = (
                np.concatenate([c[i] for c in cases]) for i in range(4)
            )
            budgets = np.array([c[4] for c in cases], dtype=np.int64)
            order = np.concatenate(
                [np.argsort(rng.uniform(0, 1, size=n), kind="stable") for n in sizes]
            ).astype(np.int64)

            expected = phi0.copy()
            for r, (lo, hi) in enumerate(zip(run_offsets[:-1], run_offsets[1:])):
                k_scalar(
                    expected[lo:hi],
                    eligible[lo:hi],
                    need[lo:hi],
                    cap[lo:hi],
                    order[lo:hi],
                    int(budgets[r]),
                )
            for kern in (k_np, k_alt):
                phi = phi0.copy()
                kern(phi, eligible, need, cap, order, budgets, run_offsets)
                assert phi.tobytes() == expected.tobytes()


def _fleet_state(rng, n):
    size = rng.uniform(100.0, 5000.0, size=n)
    delivered = np.minimum(rng.uniform(0.0, 6000.0, size=n), size)
    # A fraction of users are exactly fully delivered.
    exact = rng.random(n) < 0.3
    delivered[exact] = size[exact]
    dplay = rng.uniform(0.0, 50.0, size=n)
    elapsed = np.minimum(rng.uniform(0.0, 60.0, size=n), dplay)
    done = rng.random(n) < 0.3
    elapsed[done] = dplay[done]
    return size, delivered, dplay, elapsed


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestFleetBeginSlotParity:
    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("fleet_begin_slot", alt)
        rng = np.random.default_rng(13)
        for trial in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            slot = int(rng.integers(0, 30))
            tau = float(rng.uniform(0.5, 2.0))
            cap = np.inf if trial % 3 == 0 else float(rng.uniform(5.0, 60.0))
            arrival = rng.integers(0, 25, size=n).astype(np.int64)
            size, delivered, dplay, elapsed = _fleet_state(rng, n)
            occ = rng.uniform(0.0, 40.0, size=n)
            pend = rng.uniform(0.0, 5.0, size=n)
            began = rng.random(n) < 0.5
            total = rng.uniform(0.0, 20.0, size=n)

            outs = []
            for kern in (k_np, k_alt):
                o = [np.empty(n) for _ in range(5)]
                began_out = np.empty(n, dtype=bool)
                fs, bs = np.empty(2 * n), np.empty(4 * n, dtype=bool)
                kern(
                    slot, tau, cap, arrival, size, delivered, dplay,
                    occ, pend, began, elapsed, total,
                    o[0], o[1], began_out, o[2], o[3], o[4], fs, bs,
                )
                outs.append(
                    b"".join(a.tobytes() for a in o) + began_out.tobytes()
                )
            assert outs[0] == outs[1]


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestFleetDeliverParity:
    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("fleet_deliver", alt)
        rng = np.random.default_rng(17)
        for trial in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            tau = float(rng.uniform(0.5, 2.0))
            cap = np.inf if trial % 3 == 0 else float(rng.uniform(5.0, 60.0))
            offer = rng.uniform(0.0, 800.0, size=n)
            rates = rng.uniform(50.0, 700.0, size=n)
            size, delivered, dplay, _ = _fleet_state(rng, n)
            occ = rng.uniform(0.0, 40.0, size=n)
            pend = rng.uniform(0.0, 5.0, size=n)

            outs = []
            for kern in (k_np, k_alt):
                o = [np.empty(n) for _ in range(4)]
                fs, bs = np.empty(2 * n), np.empty(4 * n, dtype=bool)
                err = kern(
                    tau, cap, offer, rates, size, delivered, dplay,
                    occ, pend, o[0], o[1], o[2], o[3], fs, bs,
                )
                outs.append((int(err), b"".join(a.tobytes() for a in o)))
            assert outs[0] == outs[1]

    def test_error_code_on_nonpositive_rate(self, alt):
        k_np, k_alt = resolve_pair("fleet_deliver", alt)
        n = 2
        args = dict(
            offer=np.array([10.0, 10.0]),
            rates=np.array([0.0, 300.0]),
            size=np.array([100.0, 100.0]),
            delivered=np.array([0.0, 0.0]),
            dplay=np.array([0.0, 0.0]),
            occ=np.array([0.0, 0.0]),
            pend=np.array([0.0, 0.0]),
        )
        for kern in (k_np, k_alt):
            o = [np.empty(n) for _ in range(4)]
            fs, bs = np.empty(2 * n), np.empty(4 * n, dtype=bool)
            err = kern(
                1.0, np.inf, args["offer"], args["rates"], args["size"],
                args["delivered"], args["dplay"], args["occ"], args["pend"],
                o[0], o[1], o[2], o[3], fs, bs,
            )
            assert err == 1


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestRrcParity:
    def test_step_randomized(self, alt):
        k_np, k_alt = resolve_pair("rrc_step", alt)
        rng = np.random.default_rng(19)
        for _ in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            dt = float(rng.uniform(0.5, 2.0))
            pd, pf = float(rng.uniform(0, 1200)), float(rng.uniform(0, 800))
            t1, t2 = float(rng.uniform(0, 8)), float(rng.uniform(0, 8))
            tx = rng.random(n) < 0.4
            age = rng.uniform(0.0, t1 + t2 + 2.0, size=n)
            ever = rng.random(n) < 0.7

            outs = []
            for kern in (k_np, k_alt):
                age_out = np.empty(n)
                ever_out = np.empty(n, dtype=bool)
                tail_out = np.empty(n)
                fs, bs = np.empty(2 * n), np.empty(n, dtype=bool)
                kern(dt, pd, pf, t1, t2, tx, age, ever,
                     age_out, ever_out, tail_out, fs, bs)
                outs.append(
                    age_out.tobytes() + ever_out.tobytes() + tail_out.tobytes()
                )
            assert outs[0] == outs[1]

    def test_idle_cost_randomized(self, alt):
        k_np, k_alt = resolve_pair("rrc_idle_cost", alt)
        rng = np.random.default_rng(23)
        for _ in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            dt = float(rng.uniform(0.5, 2.0))
            pd, pf = float(rng.uniform(0, 1200)), float(rng.uniform(0, 800))
            t1, t2 = float(rng.uniform(0, 8)), float(rng.uniform(0, 8))
            age = rng.uniform(0.0, t1 + t2 + 2.0, size=n)
            ever = rng.random(n) < 0.7

            outs = []
            for kern in (k_np, k_alt):
                out = np.empty(n)
                fs, bs = np.empty(2 * n), np.empty(n, dtype=bool)
                kern(dt, pd, pf, t1, t2, age, ever, out, fs, bs)
                outs.append(out.tobytes())
            assert outs[0] == outs[1]


class TestSlotArena:
    def test_buffer_shapes_and_dtypes(self):
        arena = SlotArena(7)
        assert arena.n_users == 7
        assert arena.link_units.dtype == np.int64
        assert arena.active.dtype == bool
        for name in (
            "p_mj_per_kb",
            "remaining_kb",
            "receivable_kb",
            "idle_tail_cost_mj",
            "want_kb",
            "accepted_kb",
            "f8_tmp",
        ):
            buf = getattr(arena, name)
            assert buf.shape == (7,) and buf.dtype == np.float64

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            SlotArena(0)
