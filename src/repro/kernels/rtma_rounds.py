"""RTMA round-granting kernel (paper Algorithm 1, steps 4-13).

Grants units to eligible users in fixed rate order, round by round,
until the slot budget or every per-user demand is exhausted: each round
offers every eligible user ``min(need, cap - phi)`` units in ``order``
and stops granting where the budget runs out.  The python/numba
implementation plays the rounds sequentially and is the oracle; the
numpy implementation computes their outcome in closed form.

Closed form.  Let ``c_u = max(cap_u - phi_u, 0)`` be user ``u``'s
headroom when eligible (0 otherwise), ``B`` the budget.  A round that
the budget covers raises every user by ``min(need_u, headroom left)``,
so after ``k`` *full* rounds user ``u`` holds
``h_u(k) = min(k * need_u, c_u)`` on top of ``phi_u`` and the rounds
have spent ``S(k) = sum_u h_u(k)``.  ``S`` is non-decreasing in ``k``
and constant from ``K = max_u ceil(c_u / need_u)`` on, where it equals
``sum_u c_u``.  Round ``k + 1`` is full exactly when
``S(k + 1) <= B``, so the rounds played in full are ``k* = max{k :
S(k) <= B}``:

* if ``sum_u c_u <= B`` every user ends at its headroom and
  ``B - sum_u c_u`` is left over (``k* = K``; no search);
* otherwise ``S(k*) <= B < S(k* + 1)``, found by bisecting ``k`` over
  ``[0, K]``, and round ``k* + 1`` is the one partial round: it offers
  ``h_u(k* + 1) - h_u(k*)`` in rate order against the remaining
  ``B - S(k*)``, which the cumsum clip over ``order`` hands out exactly
  as the sequential scan does (a user's offer depends only on its
  pre-round state).  It spends the remainder in full, so 0 is left
  over.  An exact tie ``S(k*) = B`` leaves a remainder of 0 and the
  partial round grants nothing, as the sequential rounds stop there.

Every quantity is an int64 sum or product — ``k <= K <= max(c)``, so
``k * need`` stays far inside int64 for any slot — hence the grants
and the leftover are exact and byte-equal to the sequential rounds.

All arrays are full fleet length; ``order`` is a stable rate argsort of
every user (a permutation; ineligible lanes simply take 0) and ``need
>= 1`` on every lane (:class:`~repro.core.rtma.RTMAScheduler` clamps
it).  ``phi`` is updated in place; the return value is the budget left
over (a non-positive budget is returned untouched).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import register

__all__ = ["rtma_rounds_numpy", "rtma_rounds_loops"]


def rtma_rounds_numpy(phi, eligible, need, cap, order, budget):
    """Closed-form rounds: bisect the full rounds, clip one partial round."""
    if budget <= 0:
        return budget
    headroom = np.subtract(cap, phi)
    np.maximum(headroom, 0, out=headroom)
    np.multiply(headroom, eligible, out=headroom)
    total = int(headroom.sum())
    if total <= budget:
        phi += headroom
        return budget - total
    # K = max ceil(c / need): S(K) = total > budget, S(0) = 0 <= budget.
    held = np.negative(headroom)
    np.floor_divide(held, need, out=held)
    lo, hi = 0, -int(held.min())
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        np.multiply(need, mid, out=held)
        np.minimum(held, headroom, out=held)
        if held.sum() <= budget:
            lo = mid
        else:
            hi = mid
    # h(k*) and the partial round's offers h(k* + 1) - h(k*).
    np.multiply(need, lo, out=held)
    np.minimum(held, headroom, out=held)
    offer = np.multiply(need, lo + 1)
    np.minimum(offer, headroom, out=offer)
    offer -= held
    remaining = budget - int(held.sum())
    offer_sorted = offer[order]
    # grant = clip(remaining - (offers before it), 0, offer)
    before = np.cumsum(offer_sorted)
    before -= offer_sorted
    np.subtract(remaining, before, out=before)
    np.clip(before, 0, offer_sorted, out=before)
    held[order] += before
    phi += held
    return 0


def rtma_rounds_loops(phi, eligible, need, cap, order, budget):
    """Sequential rounds in rate order (numba source)."""
    n = order.shape[0]
    while budget > 0:
        any_take = False
        granted = 0
        for k in range(n):
            u = order[k]
            if not eligible[u]:
                continue
            take = need[u]
            headroom = cap[u] - phi[u]
            if headroom < take:
                take = headroom
            if take <= 0:
                continue
            any_take = True
            if budget > 0:
                g = take if take <= budget else budget
                phi[u] += g
                budget -= g
                granted += g
        if not any_take or granted == 0:
            break
    return budget


def _warmup(fn):
    """Specialise the production signature on a two-user instance."""
    phi = np.zeros(2, dtype=np.int64)
    eligible = np.array([True, False])
    need = np.ones(2, dtype=np.int64)
    cap = np.full(2, 3, dtype=np.int64)
    order = np.arange(2, dtype=np.int64)
    fn(phi, eligible, need, cap, order, np.int64(2))


register(
    "rtma_rounds",
    numpy=rtma_rounds_numpy,
    python=rtma_rounds_loops,
    warmup=_warmup,
    phase="schedule",
)
