"""Segmented scheduling kernels: EMA DP and RTMA rounds over R segments.

The slot loop (:func:`repro.sim.engine.run_segments`) runs ``R >= 1``
runs as row segments of one row space (run ``r`` owns ``N_r`` rows;
the widths may differ).  Three of the four
hot kernel families — fleet ``begin_slot``/``deliver``, the RRC tail
step, and the arena ufunc chains — are row-elementwise, so the run axis
simply rides along the row axis through the existing registered
kernels, and backend selection plus span attribution keep working
unchanged.

The two cross-user kernels are different: the EMA DP couples every
active user of a run through the shared unit budget, and RTMA's round
grants consume a per-run budget in rate order.  One run's allocation
must not see another run's budget, so both come in segmented variants
here that take the per-run segment table — one registry dispatch per
slot for all R runs.  These are the only scheduling kernels production
calls, a lone run being ``R = 1``.
:class:`~repro.core.rtma.RTMAScheduler` calls ``rtma_rounds_batch``
every slot; its numpy leg computes every segment's rounds at once in
the closed form of :mod:`repro.kernels.rtma_rounds` (all int64, so each
segment's grants are byte-equal to the scalar kernel on that segment
alone).  :class:`~repro.core.ema.EMAScheduler` first solves every
segment with its certified convex greedy
(:func:`~repro.core.ema.convex_greedy`) and calls ``ema_dp_batch`` only
in slots where some segment is left uncertified (an exact or near tie,
or a non-convex segment); the certified segments come with budget 0,
which the kernel skips.  The EMA DP, and both kernels' python/numba
legs, still run the *scalar* kernel body (``ema_dp`` /
``rtma_rounds``) once per segment on contiguous per-run views, which is
what makes a stack bit-identical to running each run alone (guarded by
``tests/integration/test_batch_equivalence.py``).  The scalar kernels
stay registered, so the parity suite and numba reach them on their own.

The python sources call the serial loop bodies through module-level
bindings (``maybe_njit(...) or ...``): under Numba the bindings are
lazily-compiled dispatchers the outer loop can call from nopython
mode; without Numba they are the plain interpreted functions.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.backend import maybe_njit
from repro.kernels.ema_dp import ema_dp_loops, ema_dp_numpy
from repro.kernels.registry import register
from repro.kernels.rtma_rounds import rtma_rounds_loops, rtma_rounds_numpy

__all__ = [
    "rtma_rounds_batch_numpy",
    "rtma_rounds_batch_loops",
    "ema_dp_batch_numpy",
    "ema_dp_batch_loops",
]

_RTMA_INNER = maybe_njit(rtma_rounds_loops) or rtma_rounds_loops
_EMA_INNER = maybe_njit(ema_dp_loops) or ema_dp_loops


def rtma_rounds_batch_numpy(phi, eligible, need, cap, order, budgets, run_offsets):
    """Closed-form rounds (see :mod:`repro.kernels.rtma_rounds`) for R segments.

    All row arrays are stacked over the segments; ``order`` holds
    *run-local* indices (each run's own stable rate argsort), ``budgets`` the
    per-run unit budgets, ``run_offsets`` the ``(R+1,)`` segment
    bounds.  ``phi`` is updated in place.  The segments bisect their
    full-round counts ``k*`` in lockstep over ``[0, K]`` (``K`` the
    largest round count of any row), each segment's ``S(k)`` coming
    from one cumsum over the rows differenced at ``run_offsets``; a
    segment whose headroom fits its budget starts at ``k* = K`` (every
    row at its headroom, no partial round) and a non-positive budget
    searches against 0.  The partial round is one segmented cumsum over
    the global rate order (``order`` plus each segment's start).  R = 1
    is the scalar kernel.
    """
    n_runs = budgets.shape[0]
    if n_runs == 1:
        rtma_rounds_numpy(phi, eligible, need, cap, order, int(budgets[0]))
        return 0
    starts = run_offsets[:-1]
    ends = run_offsets[1:]
    run_of = np.repeat(np.arange(n_runs), ends - starts)
    budget = np.maximum(budgets, 0)
    headroom = np.subtract(cap, phi)
    np.maximum(headroom, 0, out=headroom)
    np.multiply(headroom, eligible, out=headroom)
    # csum[i] = sum of the first i rows, so a segment's sum is a difference.
    csum = np.zeros(headroom.size + 1, dtype=np.int64)
    np.cumsum(headroom, out=csum[1:])
    fits = csum[ends] - csum[starts] <= budget
    if fits.all():
        phi += headroom
        return 0
    held = np.negative(headroom)
    np.floor_divide(held, need, out=held)
    k_max = -int(held.min())
    # Invariant per segment: S(lo) <= budget, and S(hi) > budget unless
    # lo == hi == K.  mid == lo once hi - lo <= 1, which keeps lo.
    lo = np.where(fits, k_max, 0)
    hi = np.full(n_runs, k_max)
    while int((hi - lo).max()) > 1:
        mid = (lo + hi) >> 1
        np.multiply(need, mid[run_of], out=held)
        np.minimum(held, headroom, out=held)
        np.cumsum(held, out=csum[1:])
        ok = csum[ends] - csum[starts] <= budget
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    k_rows = lo[run_of]
    np.multiply(need, k_rows, out=held)
    np.minimum(held, headroom, out=held)
    k_rows += 1
    offer = np.multiply(need, k_rows)
    np.minimum(offer, headroom, out=offer)
    offer -= held
    np.cumsum(held, out=csum[1:])
    remaining = budget - (csum[ends] - csum[starts])
    rows = order + starts[run_of]
    offer_sorted = offer[rows]
    # grant = clip(remaining - (the segment's offers before it), 0, offer)
    np.cumsum(offer_sorted, out=csum[1:])
    before = csum[:-1] - csum[starts][run_of]
    np.subtract(remaining[run_of], before, out=before)
    np.clip(before, 0, offer_sorted, out=before)
    held[rows] += before
    phi += held
    return 0


def rtma_rounds_batch_loops(phi, eligible, need, cap, order, budgets, run_offsets):
    """Sequential rounds per run segment (numba source)."""
    n_runs = budgets.shape[0]
    for r in range(n_runs):
        lo = run_offsets[r]
        hi = run_offsets[r + 1]
        _RTMA_INNER(
            phi[lo:hi],
            eligible[lo:hi],
            need[lo:hi],
            cap[lo:hi],
            order[lo:hi],
            budgets[r],
        )
    return 0


def ema_dp_batch_numpy(
    phi,
    active_idx,
    act_bounds,
    budgets,
    w_eff,
    origin,
    slope,
    const,
    idle,
    rows_flat,
    m_idx,
    fscratch,
    iscratch,
):
    """Serial numpy DP per run segment.

    ``active_idx`` holds the *global* (stacked-row) indices of every
    active user, run-sorted; ``act_bounds`` is the ``(R+1,)`` segment
    table over it.  The coefficient vectors (``w_eff``/``origin``/
    ``slope``/``const``/``idle``) are packed in the same active order.
    Each run's DP runs with its own budget (``n_states = budget + 1``)
    over shared scratch sized for the largest segment (the
    :class:`~repro.core.ema.EMAScheduler` scratch, sized for the
    segments with a positive budget).  Runs with no active users or a
    non-positive budget are skipped: the scheduler passes budget 0 for
    the segments its greedy already settled.
    """
    n_runs = budgets.shape[0]
    for r in range(n_runs):
        lo = act_bounds[r]
        hi = act_bounds[r + 1]
        n_active = hi - lo
        budget = budgets[r]
        if n_active == 0 or budget <= 0:
            continue
        n_states = budget + 1
        rows = rows_flat[: n_active * n_states].reshape(n_active, n_states)
        ema_dp_numpy(
            phi,
            active_idx[lo:hi],
            w_eff[lo:hi],
            origin[lo:hi],
            slope[lo:hi],
            const[lo:hi],
            idle[lo:hi],
            rows,
            m_idx[:n_states],
            fscratch[: 4 * n_states],
            iscratch[:n_states],
        )
    return 0


def ema_dp_batch_loops(
    phi,
    active_idx,
    act_bounds,
    budgets,
    w_eff,
    origin,
    slope,
    const,
    idle,
    rows_flat,
    m_idx,
    fscratch,
    iscratch,
):
    """Loop DP per run segment (numba source)."""
    n_runs = budgets.shape[0]
    for r in range(n_runs):
        lo = act_bounds[r]
        hi = act_bounds[r + 1]
        n_active = hi - lo
        budget = budgets[r]
        if n_active == 0 or budget <= 0:
            continue
        n_states = budget + 1
        rows = rows_flat[: n_active * n_states].reshape(n_active, n_states)
        _EMA_INNER(
            phi,
            active_idx[lo:hi],
            w_eff[lo:hi],
            origin[lo:hi],
            slope[lo:hi],
            const[lo:hi],
            idle[lo:hi],
            rows,
            m_idx[:n_states],
            fscratch[: 4 * n_states],
            iscratch[:n_states],
        )
    return 0


def _warmup_rtma(fn):
    """Specialise the production signature on a two-run instance."""
    phi = np.zeros(4, dtype=np.int64)
    eligible = np.array([True, False, True, True])
    need = np.ones(4, dtype=np.int64)
    cap = np.full(4, 3, dtype=np.int64)
    order = np.array([0, 1, 1, 0], dtype=np.int64)
    budgets = np.full(2, 2, dtype=np.int64)
    run_offsets = np.array([0, 2, 4], dtype=np.int64)
    fn(phi, eligible, need, cap, order, budgets, run_offsets)


def _warmup_ema(fn):
    """Specialise the production signature on a two-run instance."""
    n_states = 2
    phi = np.zeros(2, dtype=np.int64)
    active_idx = np.arange(2, dtype=np.int64)
    act_bounds = np.array([0, 1, 2], dtype=np.int64)
    budgets = np.ones(2, dtype=np.int64)
    w_eff = np.ones(2, dtype=np.int64)
    origin = np.zeros(2, dtype=np.int64)
    slope = np.full(2, -1.0)
    const = np.zeros(2)
    idle = np.full(2, 0.5)
    rows_flat = np.empty(n_states, dtype=float)
    m_idx = np.arange(n_states, dtype=float)
    fscratch = np.empty(4 * n_states)
    iscratch = np.empty(n_states, dtype=np.int64)
    fn(
        phi,
        active_idx,
        act_bounds,
        budgets,
        w_eff,
        origin,
        slope,
        const,
        idle,
        rows_flat,
        m_idx,
        fscratch,
        iscratch,
    )


register(
    "rtma_rounds_batch",
    numpy=rtma_rounds_batch_numpy,
    python=rtma_rounds_batch_loops,
    warmup=_warmup_rtma,
    phase="schedule",
)

register(
    "ema_dp_batch",
    numpy=ema_dp_batch_numpy,
    python=ema_dp_batch_loops,
    warmup=_warmup_ema,
    phase="schedule",
)
