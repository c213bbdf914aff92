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
    run_budgets = getattr(obs, "run_unit_budgets", None)
    if run_budgets is not None:
        # Run-stacked observation: Eq. (2) holds per run segment, not
        # over the aggregate row space (int64 reduceat sums are exact).
        totals = np.add.reduceat(phi, obs.run_offsets[:-1])
        over_run = totals > run_budgets
        if np.any(over_run):
            r = int(np.argmax(over_run))
            raise ConstraintViolationError(
                f"run {r}: total {int(totals[r])} units exceeds BS budget "
                f"{int(run_budgets[r])} (Eq. 2)",
                obs.slot,
            )
    else:
        total = int(phi.sum())
        if total > obs.unit_budget:
            raise ConstraintViolationError(
                f"total {total} units exceeds BS budget {obs.unit_budget} (Eq. 2)",
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
    run_budgets = getattr(obs, "run_unit_budgets", None)
    if run_budgets is not None:
        return _clip_batch(want, obs.run_offsets, run_budgets)
    # Greedy prefix under the budget: cumulative sum, then truncate the
    # first user that crosses the line and zero the rest.
    cum = np.cumsum(want)
    budget = obs.unit_budget
    phi = want.copy()
    over = cum > budget
    if np.any(over):
        first = int(np.argmax(over))
        prior = int(cum[first - 1]) if first > 0 else 0
        phi[first] = max(budget - prior, 0)
        phi[first + 1 :] = 0
    return phi


def _clip_batch(
    want: np.ndarray, run_offsets: np.ndarray, run_budgets: np.ndarray
) -> np.ndarray:
    """Segmented greedy-prefix clip for run-stacked observations.

    Each run gets the single-run treatment against its own budget:
    per-run cumulative sum (int64, so 2-D and 1-D orders agree
    exactly), truncate the first over-budget user, zero the rest of the
    segment.  Segments are uniform (``n_users`` is a batch
    compatibility field), so one 2-D cumsum covers them all.
    """
    phi = want.copy()
    n_runs = run_budgets.shape[0]
    n_per_run = int(run_offsets[1] - run_offsets[0])
    phi2 = phi.reshape(n_runs, n_per_run)
    cum = np.cumsum(want.reshape(n_runs, n_per_run), axis=1)
    over = cum > run_budgets[:, None]
    for r in np.flatnonzero(over.any(axis=1)):
        first = int(np.argmax(over[r]))
        prior = int(cum[r, first - 1]) if first > 0 else 0
        phi2[r, first] = max(int(run_budgets[r]) - prior, 0)
        phi2[r, first + 1 :] = 0
    return phi
