"""Allocation validation and repair for constraints (1) and (2).

The engine validates every scheduler's output with
:func:`check_constraints` (raising
:class:`~repro.errors.ConstraintViolationError` on any violation) so a
buggy policy fails loudly instead of silently inflating its results.
:func:`clip_to_constraints` is the lenient variant used by baseline
implementations that compute a *desired* allocation first and then fit
it to the physical limits in user order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConstraintViolationError
from repro.net.gateway import SlotObservation

__all__ = ["check_constraints", "clip_to_constraints"]


def check_constraints(phi: np.ndarray, obs: SlotObservation) -> None:
    """Raise unless ``phi`` satisfies Eqs. (1)-(2) and activity masking.

    Checks, in order:

    * shape and integrality (non-negative integers);
    * per-user link cap ``phi_i <= floor(tau * v(sig_i) / delta)``;
    * BS budget ``sum(phi) <= floor(tau * S(n) / delta)``;
    * inactive users receive nothing.
    """
    phi = np.asarray(phi)
    # Fast path, taken every slot: one fused pass that holds only when
    # every check below passes (an inactive row's cap is min(link, 0)).
    # A failing allocation falls through to the ordered checks, which
    # name the first violation.
    if phi.shape == (obs.n_users,) and phi.dtype.kind in "iu" and phi.size:
        link = obs.link_units
        budgets = obs.run_unit_budgets
        totals = (
            phi.sum()
            if budgets.shape[0] == 1
            else np.add.reduceat(phi, obs.run_offsets[:-1])
        )
        if (
            phi.min() >= 0
            and not (phi > np.where(obs.active, link, np.minimum(link, 0))).any()
            and not (totals > budgets).any()
        ):
            return
    if phi.shape != (obs.n_users,):
        raise ConstraintViolationError(
            f"allocation shape {phi.shape} != ({obs.n_users},)", obs.slot
        )
    if not np.issubdtype(phi.dtype, np.integer):
        raise ConstraintViolationError(
            f"allocation dtype {phi.dtype} is not integral", obs.slot
        )
    if np.any(phi < 0):
        raise ConstraintViolationError("negative allocation", obs.slot)
    over = phi > obs.link_units
    if np.any(over):
        i = int(np.argmax(over))
        raise ConstraintViolationError(
            f"user {i}: phi={int(phi[i])} exceeds link cap {int(obs.link_units[i])} "
            f"(Eq. 1)",
            obs.slot,
        )
    # Eq. (2) holds per run segment (one segment for a lone run), not
    # over the stacked row space; int64 reduceat sums are exact.
    totals = np.add.reduceat(phi, obs.run_offsets[:-1])
    over_run = totals > obs.run_unit_budgets
    if over_run.any():
        r = int(np.argmax(over_run))
        raise ConstraintViolationError(
            f"run {r}: total {int(totals[r])} units exceeds BS budget "
            f"{int(obs.run_unit_budgets[r])} (Eq. 2)",
            obs.slot,
        )
    bad = phi[~obs.active]
    if bad.size and np.any(bad > 0):
        raise ConstraintViolationError("allocation to inactive user", obs.slot)


def clip_to_constraints(desired: np.ndarray, obs: SlotObservation) -> np.ndarray:
    """Fit a desired (possibly fractional/overcommitted) allocation to
    constraints (1)-(2).

    Per-user caps are applied first; then the BS budget is granted in
    ascending user-index order (first-come-first-served), which models
    the naive head-of-line behaviour the paper's *default* strategy
    exhibits and that RTMA's round-based allocation deliberately avoids.
    """
    want = np.floor(np.maximum(np.asarray(desired, dtype=float), 0.0)).astype(np.int64)
    want = np.minimum(want, obs.link_units)
    want[~obs.active] = 0
    # Greedy prefix under each run's budget: a per-run cumulative sum
    # (int64, exact: the running total minus the total before the
    # segment), then truncate the first user that crosses the line and
    # zero the rest of the segment.
    budgets = obs.run_unit_budgets
    offsets = obs.run_offsets
    cum = np.cumsum(want)
    if budgets.shape[0] == 1:
        over = cum > budgets[0]
        if not over.any():
            return want
        runs = [0]
    else:
        sizes = np.diff(offsets)
        cum -= np.repeat(np.concatenate(([0], cum[offsets[1:-1] - 1])), sizes)
        over = cum > np.repeat(budgets, sizes)
        if not over.any():
            return want
        runs = np.flatnonzero(np.logical_or.reduceat(over, offsets[:-1]))
    for r in runs:
        lo, hi = int(offsets[r]), int(offsets[r + 1])
        first = lo + int(np.argmax(over[lo:hi]))
        prior = int(cum[first - 1]) if first > lo else 0
        want[first] = max(int(budgets[r]) - prior, 0)
        want[first + 1 : hi] = 0
    return want
