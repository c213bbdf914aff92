"""Fused EMA DP kernel: forward pass + trailing-window min + backtrack.

One kernel call solves the whole per-slot multiple-choice knapsack of
Algorithm 2 (see :mod:`repro.core.ema` for the derivation): the DP
forward recursion over users, the O(M) trailing-window minimum that
exploits the affine transmit cost, and the backtrack that recovers the
per-user allocations from the value tables.

The DP is the reference solve and the tie-breaker.  Production reaches
it only through the segmented ``ema_dp_batch`` kernel
(:mod:`repro.kernels.batch_step`), and only for the run segments whose
convex-greedy result :class:`~repro.core.ema.EMAScheduler` cannot
certify to be this kernel's own output: exact or near ties, which the
DP settles by its float sums and tie rules, and non-convex segments.

The numpy implementation is the PR 3 vectorised loop verbatim (per-user
ufunc chain + scipy's ``minimum_filter1d`` C routine, bound on the first
call so that importing the kernels leaves ``scipy.ndimage`` unloaded);
the python/numba implementation replaces the minimum filter with a
monotonic-deque sliding minimum fused into the forward sweep.  Both
compute the minimum of the same value set with the same additions and
multiplications in the same association order, so the results are
bit-identical — the contract checked by
``tests/kernels/test_kernel_parity.py``.

Caller contract (enforced by :class:`repro.core.ema.EMAScheduler`):

* ``n_active = active_idx.size >= 1`` and ``n_states >= 1``;
* ``rows`` is C-contiguous ``(n_active, n_states)`` float64;
* ``m_idx[:n_states] == arange(n_states)`` as float64;
* ``fscratch`` has at least ``4 * n_states`` float64 slots and
  ``iscratch`` at least ``n_states`` int64 slots;
* ``w_eff[k] == 0`` marks pure no-transmit users (zero window or
  non-finite reception power); their slope is never read.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import register

__all__ = ["ema_dp_numpy", "ema_dp_loops"]

#: The trailing-window minimum filter, bound by :func:`_bind_trailing_min`
#: on the DP's first call so that importing the kernels (every run
#: does) does not import ``scipy.ndimage``.
_trailing_min_into = None


def _bind_trailing_min():
    """Import ``scipy.ndimage`` and bind :data:`_trailing_min_into`."""
    global _trailing_min_into
    try:  # pragma: no cover - import plumbing
        # The DP loop calls the minimum filter once per active user per
        # slot; the public wrapper's argument validation is measurable at
        # that call rate.  This invokes the same C routine with the same
        # arguments the wrapper would pass (axis normalized, mode
        # pre-encoded), so results are bit-identical; any scipy-internal
        # change falls back to the public function.
        from scipy.ndimage import _nd_image, _ni_support

        mode_constant = _ni_support._extend_mode_to_code("constant")

        def trailing_min_into(shifted, size, origin, out):
            _nd_image.min_or_max_filter1d(
                shifted, size, 0, out, mode_constant, np.inf, origin, 1
            )
    except Exception:  # pragma: no cover - scipy internals moved
        from scipy.ndimage import minimum_filter1d

        def trailing_min_into(shifted, size, origin, out):
            minimum_filter1d(
                shifted, size=size, mode="constant", cval=np.inf, origin=origin,
                output=out,
            )

    _trailing_min_into = trailing_min_into
    return trailing_min_into


def ema_dp_numpy(
    phi, active_idx, w_eff, origin, slope, const, idle, rows, m_idx, fscratch, iscratch
):
    """Vectorised DP: per-user ufunc chain + scipy minimum filter."""
    n_active = active_idx.shape[0]
    n_states = rows.shape[1]
    basis = fscratch[0:n_states]
    prod = fscratch[n_states : 2 * n_states]
    filt = fscratch[2 * n_states : 3 * n_states]
    zeros_row = fscratch[3 * n_states : 4 * n_states]
    zeros_row[:] = 0.0
    prod_tail = prod[1:]
    filt_head = filt[:-1]
    # Python-scalar mirrors of the coefficient vectors: the DP loop
    # reads one scalar per user and list indexing is several times
    # cheaper than NumPy scalar extraction at this call rate.
    w_list = w_eff[:n_active].tolist()
    origin_list = origin[:n_active].tolist()
    slope_list = slope[:n_active].tolist()
    const_list = const[:n_active].tolist()
    idle_list = idle[:n_active].tolist()
    trailing_min_into = _trailing_min_into or _bind_trailing_min()

    a_prev = zeros_row
    for k in range(n_active):
        idle_k = idle_list[k]
        a_cur = rows[k]
        w = w_list[k]
        if w == 0:
            np.add(a_prev, idle_k, out=a_cur)  # no-tx only
        else:
            slope_k = slope_list[k]
            # basis = a_prev - slope * m_idx
            np.multiply(m_idx, slope_k, out=prod)
            np.subtract(a_prev, prod, out=basis)
            # trailing_window_min(basis, w) = filt[M-1] with filt the
            # size-w window ending *at* M — one origin shift instead of
            # the copy into a prepended-inf buffer.
            trailing_min_into(basis, w, origin_list[k], filt)
            # tx = const + slope * m_idx + twm, with twm[0] = +inf
            # (empty trailing window) and twm[1:] = filt[:-1].
            np.add(prod, const_list[k], out=prod)
            np.add(prod_tail, filt_head, out=prod_tail)
            prod[0] = np.inf
            # a_cur = min(no_tx, tx) with no_tx = a_prev + idle
            np.add(a_prev, idle_k, out=a_cur)
            np.minimum(a_cur, prod, out=a_cur)
        a_prev = a_cur

    # Step 15: best total unit count, then backtrack per user.  The
    # argmin over phi_i is re-derived at the chosen capacity point only
    # — O(w_i) work per user instead of storing the full g(i, M) table.
    m_star = int(np.argmin(a_prev))
    affine = basis
    vals = prod
    m = m_star
    for level in range(n_active - 1, -1, -1):
        w_here = min(w_list[level], m)
        if w_here <= 0 or not np.isfinite(slope_list[level]):
            continue  # phi stays 0, m unchanged
        slope_k = slope_list[level]
        a_prev = rows[level - 1] if level > 0 else zeros_row
        best_val = float(a_prev[m]) + idle_list[level]
        # vals[j] = a_prev[m - (j+1)] + const + slope * (j+1):
        # the fancy index a_prev[m - cands] is a reversed slice.
        v_here = vals[:w_here]
        np.multiply(m_idx[1 : w_here + 1], slope_k, out=affine[:w_here])
        np.add(a_prev[m - w_here : m][::-1], const_list[level], out=v_here)
        np.add(v_here, affine[:w_here], out=v_here)
        j = int(v_here.argmin())
        if v_here[j] < best_val - 1e-12:
            best_phi = j + 1
            phi[active_idx[level]] = best_phi
            m -= best_phi
    return m_star


def ema_dp_loops(
    phi, active_idx, w_eff, origin, slope, const, idle, rows, m_idx, fscratch, iscratch
):
    """Loop DP with a monotonic-deque sliding minimum (numba source)."""
    n_active = active_idx.shape[0]
    n_states = rows.shape[1]
    basis = fscratch[0:n_states]
    zeros_row = fscratch[3 * n_states : 4 * n_states]
    for m in range(n_states):
        zeros_row[m] = 0.0
    dq = iscratch  # ring of candidate indices, basis-increasing

    for k in range(n_active):
        idle_k = idle[k]
        if k == 0:
            a_prev = zeros_row
        else:
            a_prev = rows[k - 1]
        a_cur = rows[k]
        w = w_eff[k]
        if w == 0:
            for m in range(n_states):
                a_cur[m] = a_prev[m] + idle_k
        else:
            slope_k = slope[k]
            const_k = const[k]
            head = 0
            tail = 0
            for m in range(n_states):
                if m >= 1:
                    # Admit k = m-1 to the window [m-w, m-1].
                    b = a_prev[m - 1] - slope_k * m_idx[m - 1]
                    basis[m - 1] = b
                    while tail > head and basis[dq[tail - 1]] >= b:
                        tail -= 1
                    dq[tail] = m - 1
                    tail += 1
                while tail > head and dq[head] < m - w:
                    head += 1
                no_tx = a_prev[m] + idle_k
                if tail > head:
                    tx = (slope_k * m_idx[m] + const_k) + basis[dq[head]]
                    a_cur[m] = tx if tx < no_tx else no_tx
                else:
                    a_cur[m] = no_tx

    last = rows[n_active - 1]
    m_star = 0
    best = last[0]
    for m in range(1, n_states):
        if last[m] < best:
            best = last[m]
            m_star = m

    m = m_star
    for level in range(n_active - 1, -1, -1):
        w_here = w_eff[level]
        if m < w_here:
            w_here = m
        if w_here <= 0:
            continue
        slope_k = slope[level]
        if not np.isfinite(slope_k):
            continue
        if level == 0:
            a_prev = zeros_row
        else:
            a_prev = rows[level - 1]
        best_val = a_prev[m] + idle[level]
        const_k = const[level]
        best_v = np.inf
        best_j = -1
        for j in range(w_here):
            v = (a_prev[m - (j + 1)] + const_k) + m_idx[j + 1] * slope_k
            if v < best_v:
                best_v = v
                best_j = j
        if best_j >= 0 and best_v < best_val - 1e-12:
            phi[active_idx[level]] = best_j + 1
            m -= best_j + 1
    return m_star


def _warmup(fn):
    """Specialise the production signature on a two-state instance."""
    n_states = 2
    phi = np.zeros(1, dtype=np.int64)
    active_idx = np.zeros(1, dtype=np.int64)
    w_eff = np.ones(1, dtype=np.int64)
    origin = np.zeros(1, dtype=np.int64)
    slope = np.full(1, -1.0)
    const = np.zeros(1)
    idle = np.full(1, 0.5)
    rows = np.empty((1, n_states))
    m_idx = np.arange(n_states, dtype=float)
    fscratch = np.empty(4 * n_states)
    iscratch = np.empty(n_states, dtype=np.int64)
    fn(phi, active_idx, w_eff, origin, slope, const, idle, rows, m_idx, fscratch, iscratch)


register(
    "ema_dp",
    numpy=ema_dp_numpy,
    python=ema_dp_loops,
    warmup=_warmup,
    phase="schedule",
)
