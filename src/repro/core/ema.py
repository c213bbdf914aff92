"""EMA — Energy Minimization Algorithm (paper Section V, Algorithm 2).

EMA minimizes average energy subject to an average rebuffering bound by
the Lyapunov drift-plus-penalty method: each slot it solves

    min  sum_i f(i, phi_i)            (Eq. 22)
    s.t. constraints (1) and (2)

where, with virtual queue ``PC_i`` (Eq. 16) and ``t_i = delta*phi_i/p_i``,

    f(i, phi) = V * E_i(phi) + PC_i * (tau - t_i)
    E_i(phi)  = P(sig_i) * phi * delta     (phi >= 1, Eq. 3)
    E_i(0)    = this slot's incremental tail energy (Eqs. 4-5).

The per-slot problem is a multiple-choice knapsack, which Algorithm 2
solves exactly by dynamic programming over the total unit count ``M``.
Its costs are convex, so a greedy solves it too; the scheduler runs
the greedy and keeps the DP for the segments whose greedy result it
cannot certify to be the DP's (below).

Implementation note — sliding-window minimum
--------------------------------------------
For ``phi >= 1`` the cost is *affine* in ``phi``:
``f(i, phi) = PC_i*tau + slope_i*phi`` with
``slope_i = delta * (V*P_i - PC_i/p_i)``.  The DP transition

    a[i][M] = min(a[i-1][M] + f(i,0),
                  min_{1<=phi<=w_i} a[i-1][M-phi] + f(i,phi))

then becomes, for the transmit branch,

    PC_i*tau + slope_i*M + min_{M-w_i <= k <= M-1} (a[i-1][k] - slope_i*k)

— a trailing-window minimum computable in O(M) per user with
:func:`scipy.ndimage.minimum_filter1d`, instead of the naive
O(M * w_i).  The result is *exact*: ``tests/core/test_ema.py``
cross-checks it against the brute-force reference in
:mod:`repro.core.knapsack` on randomized instances.

Convex structure: an exact greedy, the DP as tie-breaker
--------------------------------------------------------
Write ``g_i = const_i - idle_i = -V_i * tail_i``.  Then
``f(i, 0) = idle_i`` and ``f(i, phi) = idle_i + g_i + slope_i * phi``
for ``1 <= phi <= w_i``: user ``i``'s marginal costs are
``g_i + slope_i`` for the first unit and ``slope_i`` for each further
one.  ``V > 0`` and the Eq. 4 tail increment is ``>= 0``, so
``g_i <= 0``, the marginals never decrease and every ``f(i, .)`` is
convex.  A separable convex problem under the single constraint
``sum_i phi_i <= budget`` is solved exactly by taking unit marginals
in increasing order while they are negative and the budget lasts
(exchange argument: an allocation that holds a dearer unit while a
cheaper one is free improves by swapping them), so at most one user
ends strictly between 1 and ``w_i``.  :func:`convex_greedy` does this
per segment.  When the users' independent optima fit the budget it
takes them: idle if the first marginal is ``>= 0``, else one unit if
``slope_i >= 0`` and ``w_i`` units if ``slope_i < 0``.  Otherwise it
sorts the blocks ``(g_i + slope_i, 1 unit)`` and
``(slope_i, w_i - 1 units)`` and fills the budget, the last block
perhaps partly.

The greedy must return the DP's bytes, not merely an optimum, and the
DP settles exact and near ties by its float sums and three rules:
first argmin ``m*``, no transmission unless better by 1e-12, smallest
argmin ``phi``.  So a segment keeps the greedy result only with a
*certificate*: the segment is convex (``const <= idle`` on every row;
only the ``w > 0`` rows need it, and a scheduler row always has it,
``idle - const = V * tail >= 0``), and the greedy optimum ``x*`` beats every other
feasible allocation by more than a tolerance ``tol``.  With ``L_i``
the marginal of user ``i``'s last taken unit and ``U_i`` that of its
next one, any other allocation costs at least ``-max L_i`` more
(units dropped), or ``min U_i`` more (units added, with budget to
spare), or ``U_i - L_j`` more for some users ``i != j`` (a unit moved
from ``j`` to ``i``).  Each of these margins must exceed ``tol``.

Why that suffices: in exact arithmetic the DP's last row equals the
optimum from ``M = sum(x*)`` on and exceeds it by at least the gap
below; and at each backtrack level the candidate ``phi = x*_k`` of
``a[k-1][m - phi] + f(k, phi)`` is the prefix optimum while every other
candidate is at least the gap above it (a better prefix would extend
to a better allocation).  If the DP's rounding error is at most
``eps``, a gap above ``2*eps + 1e-12`` forces ``m* >= sum(x*)`` and
each level's choice to ``x*_k``.  Bound ``eps``: with
``S_i = |idle_i| + |const_i| + budget * |slope_i|`` (no slope term on a
``w_i = 0`` row) and ``T = sum_i S_i``, every cost the DP sums is at
most ``T`` in magnitude and every intermediate at most ``2T``.  With
unit roundoff ``u = 2**-53``, each forward level adds at most ``7*u*T``
of rounding error (six roundings, one of a value up to ``2T``) and the
backtrack's candidates ``4*u*T`` more, so ``eps <= 7*u*(n+1)*T`` for
``n`` users.  The margins carry at most ``6*u*T`` of their own, so
``tol = 1e-12 + 16*u*(n+2)*T`` exceeds ``2*eps + 6*u*T + 1e-12``: it is
relative to the segment's cost magnitudes.  A non-finite coefficient
makes ``tol`` non-finite, which fails the certificate.

Uncertified segments — exact ties such as equal slopes of users on
the same signal and queue, margins within ``tol`` of zero, a
non-convex segment — go to the DP, which stays the reference: it runs
with the certified segments' budgets set to 0, which it skips.

Run segments
------------
One scheduler body serves a lone run and a stack of runs alike.  ``V``,
the queue floor and the queue seed are per-lane arrays over the
observation's ``R >= 1`` row segments, one
:class:`~repro.core.lyapunov.VirtualQueues` holds every lane's ``PC_i``,
and both the greedy and the DP fallback, the segmented ``ema_dp_batch``
kernel (:mod:`repro.kernels.batch_step`), solve each run's knapsack
against its own budget.  A lone run is ``R = 1``;
:meth:`EMAScheduler.stack` builds the ``R > 1`` instance.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.core.lyapunov import VirtualQueues
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.kernels import registry as kernel_registry
from repro.net.gateway import SlotObservation

__all__ = ["EMAScheduler", "convex_greedy", "trailing_window_min"]


def trailing_window_min(values: np.ndarray, window: int) -> np.ndarray:
    """``out[M] = min(values[max(0, M-window) : M])`` (empty -> +inf).

    The trailing window *excludes* index ``M`` itself — exactly the
    ``k = M - phi`` range for ``phi in [1, window]``.
    ``scipy.ndimage`` is imported here, not at module level: importing
    the package must not pay for it.
    """
    from scipy.ndimage import minimum_filter1d

    if window <= 0:
        raise ConfigurationError("window must be positive")
    v = np.asarray(values, dtype=float)
    # Shift right so the window ending at M-1 becomes a window ending at M.
    shifted = np.empty_like(v)
    shifted[0] = np.inf
    shifted[1:] = v[:-1]
    w = min(window, v.size)
    # scipy's origin shifts the window start *back* by `origin`; the
    # trailing window [M - w + 1, M] on `shifted` needs the window's
    # right edge at M, i.e. origin = w - 1 - w//2 (= ceil(w/2) - 1,
    # always within scipy's |origin| <= w//2 limit).
    origin = w - 1 - w // 2
    return minimum_filter1d(shifted, size=w, mode="constant", cval=np.inf, origin=origin)


#: Unit roundoff of float64; scales the certificate's tolerance.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def convex_greedy(w, slope, const, idle, act_bounds, budgets):
    """Greedy solve of Eq. 22 per segment, and its certificate.

    The arrays are the scheduler's packed active rows: ``w`` the
    transmit caps (0 for a pure no-transmit row), ``slope``/``const``/
    ``idle`` the cost coefficients, segment ``r`` on rows
    ``act_bounds[r]:act_bounds[r+1]`` with unit budget ``budgets[r]``.
    Returns ``(x, certified)``: the greedy's per-row units (int64) and,
    per segment, whether ``x`` there is certified to be exactly what
    the DP returns (see the module docstring for the greedy, the
    margins and the tolerance).  Empty segments and segments without
    budget are certified with no units.
    """
    sizes = act_bounds[1:] - act_bounds[:-1]
    filled = sizes > 0
    starts = act_bounds[:-1][filled]
    counts = sizes[filled]
    budget = budgets[filled]
    with np.errstate(invalid="ignore"):
        gap = const - idle  # g_i, <= 0 on a convex row
        first = gap + slope  # marginal cost of the first unit
        # Each user's own optimum: idle, one unit, or all w units.
        x = np.where(first < 0, np.where(slope < 0, w, 1), 0)
        np.minimum(x, w, out=x)
        binding = np.add.reduceat(x, starts) > budget
        bound = binding.any()
        if bound:
            bind_row = np.repeat(binding, counts)
            x = _fill_budgets(x, bind_row, first, slope, counts, budget)
        # Marginals of each user's last taken unit and of its next one.
        idle_x = x == 0
        last = np.where(idle_x, -np.inf, np.where(x == 1, first, slope))
        rise = np.where(x >= w, np.inf, np.where(idle_x, first, slope))
        if bound:
            # A full budget admits no added unit alone, only a move from
            # user j to user i != j: compare with the least next marginal
            # of the *other* users.
            least = np.minimum.reduceat(rise, starts)
            is_least = rise == np.repeat(least, counts)
            second = np.minimum.reduceat(np.where(is_least, np.inf, rise), starts)
            second = np.where(np.add.reduceat(is_least, starts) > 1, least, second)
            others = np.where(
                is_least, np.repeat(second, counts), np.repeat(least, counts)
            )
            rise = np.where(bind_row, others - last, rise)
        margin = np.minimum.reduceat(np.minimum(rise, -last), starts)
        # The DP's rounding scale T; |slope| counts on w > 0 rows only.
        size = np.add.reduceat(np.abs(idle) + np.abs(const), starts)
        steep = np.add.reduceat(np.abs(np.where(w > 0, slope, 0.0)), starts)
        tol = 1e-12 + 16 * _UNIT_ROUNDOFF * (counts + 2) * (size + budget * steep)
        ok = (margin > tol) & (np.maximum.reduceat(gap, starts) <= 0)
    certified = np.ones(sizes.size, dtype=bool)
    certified[filled] = ok | (budget <= 0)
    return x, certified


def _fill_budgets(x, bind_row, first, slope, counts, budget):
    """Refill the rows of budget-bound segments by marginal cost.

    ``x`` holds each user's own optimum, so ``x > 0`` marks the users
    whose first unit is worth taking and ``x > 1`` those whose further
    ``w - 1`` units are too.  Those blocks are taken cheapest first
    (a user's first block ahead of its second on a tie) until the
    segment's budget runs out; the last one may be taken in part.
    """
    seg = np.repeat(np.arange(counts.size), counts)
    ones = np.flatnonzero(bind_row & (x > 0))
    rest = np.flatnonzero(bind_row & (x > 1))
    rows = np.concatenate((ones, rest))
    keys = np.concatenate((first[ones], slope[rest]))
    order = np.lexsort((keys, seg[rows]))
    rows = rows[order]
    units = np.concatenate((np.ones(ones.size, dtype=np.int64), x[rest] - 1))[order]
    blk_seg = seg[rows]
    # Units ahead of each block within its own segment.
    ahead = np.cumsum(units) - units
    ahead -= ahead[np.searchsorted(blk_seg, blk_seg)]
    take = np.clip(budget[blk_seg] - ahead, 0, units)
    taken = np.bincount(rows, weights=take, minlength=x.size).astype(np.int64)
    return np.where(bind_row, taken, x)


class _EmaScratch:
    """Preallocated buffers for the per-slot coefficients and the DP.

    The per-user coefficient vectors are sized once for the fleet; the
    DP buffers (value-table rows, DP scratch, the float ``arange``)
    grow monotonically with the largest segment and ``n_states`` the
    DP fallback has seen, so the steady-state slot loop performs no
    allocations for them.
    """

    def __init__(self, n_users: int):
        self.p = np.empty(n_users, dtype=float)
        self.rate = np.empty(n_users, dtype=float)
        self.pc = np.empty(n_users, dtype=float)
        self.v = np.empty(n_users, dtype=float)
        self.tmp = np.empty(n_users, dtype=float)
        self.f1 = np.empty(n_users, dtype=float)
        self.f2 = np.empty(n_users, dtype=float)
        self.slope = np.empty(n_users, dtype=float)
        self.const = np.empty(n_users, dtype=float)
        self.idle = np.empty(n_users, dtype=float)
        self.useful = np.empty(n_users, dtype=np.int64)
        self.w_eff = np.empty(n_users, dtype=np.int64)
        self.origin = np.empty(n_users, dtype=np.int64)
        self.mask = np.empty(n_users, dtype=bool)
        self.rows_flat = np.empty(0, dtype=float)
        self.fscratch = np.empty(0, dtype=float)
        self.iscratch = np.empty(0, dtype=np.int64)
        self.m_idx = np.empty(0, dtype=float)

    def grow_dp(self, n_rows: int, n_states: int) -> None:
        """Ensure room for ``n_rows`` value-table cells and ``n_states``."""
        if self.rows_flat.size < n_rows:
            self.rows_flat = np.empty(n_rows, dtype=float)
        if self.fscratch.size < 4 * n_states:
            self.fscratch = np.empty(4 * n_states, dtype=float)
        if self.iscratch.size < n_states:
            self.iscratch = np.empty(n_states, dtype=np.int64)
        if self.m_idx.size < n_states:
            self.m_idx = np.arange(n_states, dtype=float)


class EMAScheduler(Scheduler):
    """Algorithm 2: Lyapunov drift-plus-penalty, solved exactly per slot.

    Each slot's knapsack goes to :func:`convex_greedy` first and to the
    DP only where the greedy's result is not certified to be the DP's.

    Parameters
    ----------
    n_users:
        Number of users (fixes the virtual-queue dimension).
    v_param:
        The Lyapunov trade-off weight ``V``: larger values privilege
        energy over rebuffering (Theorem 1: energy gap O(1/V),
        rebuffering O(V)).
    tau_s:
        Slot length, seconds.
    queue_floor_s:
        Optional lower clamp on ``PC_i``.  ``None`` reproduces the
        paper (unbounded negative queues = unlimited prefetch credit);
        a finite floor, e.g. ``-60``, bounds how far ahead EMA will
        push media, mimicking a client buffer cap.
    queue_init:
        Initial virtual-queue value.  Drift-plus-penalty transmits only
        once ``PC_i`` climbs past ``~V * P * p_i``, so zero-initialised
        queues (the literal Eq. 16 reading) stall every user for
        ``O(V)`` seconds *at session start* — an artifact the
        infinite-horizon Theorem 1 averages away but finite sessions
        feel keenly.  The standard remedy is a place-holder backlog:
        ``"auto"`` (default) seeds ``PC_i(0) = V * P_typ * p_i`` so
        users begin ~one duty cycle ahead and batching happens around a
        prefetched buffer instead of around recurring stalls.  Pass a
        float for an explicit seed (seconds), or ``0.0`` for the
        literal paper initialisation.  The ``bench_ablation_ema_init``
        benchmark quantifies the difference.
    typical_p_mj_per_kb:
        The ``P_typ`` used by ``queue_init="auto"``; 1.0 mJ/KB is the
        mean of the paper's Eq. (24) fit over its signal range.
    """

    name = "ema"

    def __init__(
        self,
        n_users: int,
        v_param: float = 1.0,
        tau_s: float = constants.DEFAULT_TAU_S,
        queue_floor_s: float | None = None,
        queue_init: str | float = "auto",
        typical_p_mj_per_kb: float = 1.0,
    ):
        if v_param <= 0:
            raise ConfigurationError("v_param must be positive")
        if queue_floor_s is not None and queue_floor_s > 0:
            raise ConfigurationError("queue_floor_s must be <= 0 when given")
        if isinstance(queue_init, str):
            if queue_init != "auto":
                raise ConfigurationError("queue_init must be 'auto' or a float")
        elif queue_init < 0:
            raise ConfigurationError("queue_init seconds must be >= 0")
        if typical_p_mj_per_kb <= 0:
            raise ConfigurationError("typical_p_mj_per_kb must be positive")
        self.n_users = int(n_users)
        self.v_param = float(v_param)
        self.tau_s = float(tau_s)
        self.queue_floor_s = queue_floor_s
        self.queue_init = queue_init
        self.typical_p_mj_per_kb = float(typical_p_mj_per_kb)
        self._parts: list[EMAScheduler] = []
        self._set_lanes([self], np.array([0, self.n_users]))
        self.queues = VirtualQueues(self.n_users, self.tau_s)
        self._initialized = np.zeros(self.n_users, dtype=bool)
        self._scratch = _EmaScratch(self.n_users)
        self._kernel = None

    @classmethod
    def stack(cls, scheds, run_offsets: np.ndarray) -> EMAScheduler:
        """One scheduler over R runs stacked as row segments.

        Run ``r`` keeps ``scheds[r]``'s ``V``, queue floor and queue
        initialisation on rows ``run_offsets[r]:run_offsets[r+1]``, and
        one :class:`~repro.core.lyapunov.VirtualQueues` holds every
        run's ``PC_i``.  Segments may differ in width; each run's
        ``n_users`` must be its own.  The runs must share ``tau_s``.
        """
        s0 = scheds[0]
        stacked = cls(
            int(run_offsets[-1]), s0.v_param, s0.tau_s, s0.queue_floor_s,
            s0.queue_init, s0.typical_p_mj_per_kb,
        )
        stacked._parts = list(scheds)
        stacked._set_lanes(scheds, run_offsets)
        return stacked

    def _set_lanes(self, scheds, run_offsets: np.ndarray) -> None:
        """Broadcast each run's parameters over its row segment."""
        sizes = np.diff(run_offsets)

        def lanes(values, dtype=float):
            return np.repeat(np.array(values, dtype=dtype), sizes)

        self._run_offsets = run_offsets
        self._v_lanes = lanes([s.v_param for s in scheds])
        self._has_floor = any(s.queue_floor_s is not None for s in scheds)
        # Floorless lanes carry -inf: np.maximum(x, -inf) is the bitwise
        # identity for the non-NaN values PC_i takes.
        self._floor_lanes = lanes(
            [-np.inf if s.queue_floor_s is None else s.queue_floor_s for s in scheds]
        )
        auto = [isinstance(s.queue_init, str) for s in scheds]
        self._all_auto = all(auto)
        self._auto_lanes = lanes(auto, bool)
        self._init_lanes = lanes(
            [0.0 if a else float(s.queue_init) for a, s in zip(auto, scheds)]
        )
        # The "auto" seed is the python-float product V * P_typ times
        # the rates; each lane repeats its run's exact scalar product.
        self._vp_lanes = lanes([float(s.v_param * s.typical_p_mj_per_kb) for s in scheds])

    # -- scheduling -----------------------------------------------------------

    def allocate(self, obs: SlotObservation) -> np.ndarray:
        if obs.n_users != self.n_users:
            raise ConfigurationError(
                f"observation has {obs.n_users} users, scheduler built for {self.n_users}"
            )
        phi = self._zeros(obs)
        self._seed_queues(obs)
        active_idx = np.flatnonzero(obs.active)
        # unit_budget is the run total: no run has a unit to grant.
        if active_idx.size == 0 or obs.unit_budget <= 0:
            return phi
        budgets = obs.run_unit_budgets
        # Each run's slice of the packed active rows.
        act_bounds = np.searchsorted(active_idx, obs.run_offsets)

        pc = self.queues.values
        tau = self.tau_s
        delta = obs.delta_kb
        n_active = int(active_idx.size)
        s = self._scratch

        # Affine transmit cost f(i, phi) = const_i + slope_i * phi and
        # idle cost f(i, 0) = const_i + V_i * tail_i, with
        # const_i = PC_i * tau.  The per-user coefficients are gathered
        # into preallocated scratch in one vectorised pass with the
        # element-wise operation order of the original expressions, so
        # the coefficients — and hence the allocations — are
        # bit-identical (guarded by tests/core/test_ema.py's
        # brute-force cross-check).  Every operation is elementwise, so
        # a stack's packed vectors are its runs' own vectors end to end.
        p_act = np.take(obs.p_mj_per_kb, active_idx, out=s.p[:n_active])
        rate_act = np.take(obs.rate_kbps, active_idx, out=s.rate[:n_active])
        pc_act = np.take(pc, active_idx, out=s.pc[:n_active])
        v_act = np.take(self._v_lanes, active_idx, out=s.v[:n_active])
        const_act = s.const[:n_active]
        np.multiply(pc_act, tau, out=const_act)
        idle_act = s.idle[:n_active]
        np.take(obs.idle_tail_cost_mj, active_idx, out=idle_act)
        np.multiply(idle_act, v_act, out=idle_act)
        np.add(const_act, idle_act, out=idle_act)
        slope_act = s.slope[:n_active]
        tmp = s.tmp[:n_active]
        with np.errstate(invalid="ignore"):
            # Lanes with non-finite P produce inf/nan slopes here; they
            # take the no-tx branch in the DP and never read the slope.
            np.multiply(p_act, v_act, out=slope_act)
            np.divide(pc_act, rate_act, out=tmp)
            np.subtract(slope_act, tmp, out=slope_act)
            np.multiply(slope_act, delta, out=slope_act)

        # Per-user transmit cap: link constraint (1), remaining bytes
        # and the client's receiver window.  w_eff = 0 marks the pure
        # no-tx users (zero window or non-finite reception power);
        # neither the greedy nor the DP backtrack reads their slope.
        sendable = np.take(obs.remaining_kb, active_idx, out=s.f1[:n_active])
        recv = np.take(obs.receivable_kb, active_idx, out=s.f2[:n_active])
        np.minimum(sendable, recv, out=sendable)
        np.divide(sendable, delta, out=sendable)
        np.ceil(sendable, out=sendable)
        useful = s.useful[:n_active]
        np.copyto(useful, sendable, casting="unsafe")
        w_eff = s.w_eff[:n_active]
        np.take(obs.link_units, active_idx, out=w_eff)
        np.minimum(w_eff, useful, out=w_eff)
        mask = s.mask[:n_active]
        np.isfinite(p_act, out=mask)
        np.logical_not(mask, out=mask)
        np.copyto(w_eff, 0, where=mask)

        if self._kernel is None:
            self._kernel = kernel_registry.resolve("ema_dp_batch")
        units, certified = convex_greedy(
            w_eff, slope_act, const_act, idle_act, act_bounds, budgets
        )
        if certified.all():
            phi[active_idx] = units
            return phi
        seg_sizes = act_bounds[1:] - act_bounds[:-1]
        phi[active_idx] = np.where(np.repeat(certified, seg_sizes), units, 0)

        # The DP on the uncertified segments: one fused kernel call runs,
        # for each segment with a budget left, the DP forward pass +
        # trailing-window min + backtrack (Steps 6-15 of Algorithm 2)
        # against that run's budget.  The DP uses "total units *at
        # most* M" semantics (the level-0 predecessor is identically
        # zero), so leftover capacity after the backtrack is simply
        # unused budget.  Certified segments pass budget 0, which the
        # kernel skips, and the scratch is sized from the others only.
        budgets = np.where(certified, 0, budgets)
        # The DP's n_states = budget + 1 also caps each user's units.
        np.minimum(w_eff, np.repeat(budgets + 1, seg_sizes), out=w_eff)
        origin_act = s.origin[:n_active]
        np.floor_divide(w_eff, 2, out=origin_act)
        np.subtract(w_eff, origin_act, out=origin_act)
        np.subtract(origin_act, 1, out=origin_act)
        n_states = int(budgets.max()) + 1
        s.grow_dp(int(seg_sizes[budgets > 0].max()) * n_states, n_states)
        self._kernel(
            phi,
            active_idx,
            act_bounds,
            budgets,
            w_eff,
            origin_act,
            slope_act,
            const_act,
            idle_act,
            s.rows_flat,
            s.m_idx,
            s.fscratch,
            s.iscratch,
        )
        return phi

    def _seed_queues(self, obs: SlotObservation) -> None:
        """Apply the place-holder backlog at each user's first active slot."""
        fresh = obs.active & ~self._initialized
        if not np.any(fresh):
            return
        seed = self._vp_lanes * obs.rate_kbps
        if not self._all_auto:
            seed = np.where(self._auto_lanes, seed, self._init_lanes)
        self.queues.values = np.where(fresh, seed, self.queues.values)
        self._initialized |= fresh

    # -- feedback -------------------------------------------------------------

    def notify(
        self, obs: SlotObservation, phi: np.ndarray, delivered_kb: np.ndarray
    ) -> None:
        """Update the virtual queues with the *delivered* media (Eq. 16)."""
        t = np.asarray(delivered_kb, dtype=float) / obs.rate_kbps
        self.queues.update(t, obs.active)
        if self._has_floor:
            np.maximum(self.queues.values, self._floor_lanes, out=self.queues.values)

    def trace_snapshots(self) -> list[tuple[int, str, dict]]:
        """Each run's ``PC_i(n)`` after this slot's update, with its ``V``."""
        pc, offsets = self.queues.values, self._run_offsets
        return [
            (r, "ema.queues", {"v": s.v_param, "pc_s": pc[lo:hi].copy()})
            for r, (s, lo, hi) in enumerate(
                zip(self._parts or [self], offsets[:-1], offsets[1:])
            )
        ]

    def finalize_runs(self, registries) -> None:
        """Each run's final ``PC_i(n)``, from its own segment, as the
        ``ema.virtual_queues`` and ``ema.virtual_queue_max_s`` gauges."""
        pc, offsets = self.queues.values, self._run_offsets
        for metrics, lo, hi in zip(registries, offsets[:-1], offsets[1:]):
            metrics.gauge("ema.virtual_queues").set(pc[lo:hi].copy())
            metrics.gauge("ema.virtual_queue_max_s").set(float(pc[lo:hi].max()))

    def reset(self) -> None:
        self.queues.reset()
        self._initialized = np.zeros(self.n_users, dtype=bool)
        # Re-resolve on next allocate so an ambient use_backend() block
        # entered after construction (the engine's cfg.kernel_backend)
        # governs the kernel choice.
        self._kernel = None
        for s in self._parts:
            s.reset()
