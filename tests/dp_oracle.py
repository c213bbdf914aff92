"""DP-only EMA: a certificate that rejects every run segment.

The test oracle for :func:`repro.core.ema.convex_greedy`.  Inside
:func:`dp_only`, :meth:`~repro.core.ema.EMAScheduler.allocate` sends
every segment to Algorithm 2's dynamic program, the exact solve it ran
on every slot before the greedy, so a run's result grids can be
compared byte for byte with the normal greedy-first path.
:func:`greedy_calls` records what the normal path did, and
:func:`branches` says how each segment settled, so a comparison can
show that every branch ran.
"""

from contextlib import contextmanager

import numpy as np

from repro.core import ema


@contextmanager
def _patched(wrapper):
    greedy = ema.convex_greedy
    ema.convex_greedy = wrapper(greedy)
    try:
        yield
    finally:
        ema.convex_greedy = greedy


@contextmanager
def dp_only():
    """Every segment of every ``allocate`` goes to the DP."""

    def wrapper(greedy):
        def reject_all(*args):
            units, certified = greedy(*args)
            return units, np.zeros_like(certified)

        return reject_all

    with _patched(wrapper):
        yield


@contextmanager
def greedy_calls():
    """Record each ``convex_greedy`` call as ``(args, certified)`` copies."""
    calls = []

    def wrapper(greedy):
        def recording(*args):
            units, certified = greedy(*args)
            calls.append(([np.array(a, copy=True) for a in args], certified.copy()))
            return units, certified

        return recording

    with _patched(wrapper):
        yield calls


def branches(args, certified):
    """How each segment with rows and budget settled in one call.

    ``"free"``: certified, the users' own optima fit the budget;
    ``"bound"``: certified, the budget binds; ``"dp"``: not certified.
    """
    w, slope, const, idle, act_bounds, budgets = args
    first = (const - idle) + slope
    with np.errstate(invalid="ignore"):
        own = np.minimum(np.where(first < 0, np.where(slope < 0, w, 1), 0), w)
    out = []
    for r in range(budgets.size):
        lo, hi = act_bounds[r], act_bounds[r + 1]
        if hi == lo or budgets[r] <= 0:
            continue
        if not certified[r]:
            out.append("dp")
        else:
            out.append("bound" if own[lo:hi].sum() > budgets[r] else "free")
    return out
