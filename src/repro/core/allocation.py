"""Allocation validation and repair for constraints (1) and (2).

The engine validates every scheduler's output with
:func:`check_constraints` (raising
:class:`~repro.errors.ConstraintViolationError` on any violation) so a
buggy policy fails loudly instead of silently inflating its results.
:func:`clip_to_constraints` is the lenient variant that fits a *desired*
allocation to the physical limits in user order: every
:class:`~repro.core.scheduler.ClipScheduler` baseline allocates through
it, and a stack of runs clips all its baseline rows with one call per
slot, passing the row -> run layout (:func:`segment_rows`) it built
once for the loop.  The clip is one vectorized int64 pass for any
number of run segments.
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


def segment_rows(run_offsets: np.ndarray) -> np.ndarray:
    """Row -> run index of the segment table ``run_offsets``.

    The layout :func:`clip_to_constraints` takes; a stack's scheduler
    builds it once per slot loop.
    """
    return np.repeat(
        np.arange(run_offsets.shape[0] - 1, dtype=np.intp), np.diff(run_offsets)
    )


def clip_to_constraints(
    desired: np.ndarray, obs: SlotObservation, row_run: np.ndarray | None = None
) -> np.ndarray:
    """Fit a desired (possibly fractional/overcommitted) allocation to
    constraints (1)-(2).

    Per-user caps are applied first; then the BS budget is granted in
    ascending user-index order (first-come-first-served), which models
    the naive head-of-line behaviour the paper's *default* strategy
    exhibits and that RTMA's round-based allocation deliberately avoids.

    Eq. (2) holds per run segment.  ``row_run`` is the observation's
    row -> run index (:func:`segment_rows` of ``obs.run_offsets``);
    without it the index is derived when a segment overspends.
    """
    want = np.floor(np.maximum(np.asarray(desired, dtype=float), 0.0)).astype(np.int64)
    want = np.minimum(want, obs.link_units)
    want[~obs.active] = 0
    # Greedy prefix under each run's budget, in exact int64: a row gets
    # what its run's budget leaves after the rows before it in the
    # segment, so the first row to cross the line is truncated and the
    # rest of the segment gets nothing.  In running-total terms a row
    # of run r may reach ``limit[r]``, the total before the segment
    # plus its budget.
    budgets = obs.run_unit_budgets
    cum = np.cumsum(want)
    if budgets.shape[0] == 1:
        if not cum.size or cum[-1] <= budgets[0]:
            return want
        limit = budgets[0]
    else:
        offsets = obs.run_offsets
        bounds = np.concatenate(([0], cum))[offsets]
        limits = bounds[:-1] + budgets
        if not (bounds[1:] > limits).any():
            return want
        limit = limits[segment_rows(offsets) if row_run is None else row_run]
    room = limit - cum
    room += want
    np.maximum(room, 0, out=room)
    return np.minimum(want, room, out=want)
