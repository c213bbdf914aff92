"""Tests for constraint validation and repair (Eqs. 1-2)."""

import dataclasses

import numpy as np
import pytest

from repro.core.allocation import check_constraints, clip_to_constraints
from repro.errors import ConstraintViolationError

from tests.conftest import make_obs


def two_run_obs(budgets, n_per_run, **fields):
    """A two-run stacked observation: run ``r`` owns rows
    ``[r * n_per_run, (r + 1) * n_per_run)`` and budget ``budgets[r]``."""
    obs = make_obs(n_users=2 * n_per_run, unit_budget=int(sum(budgets)), **fields)
    return dataclasses.replace(
        obs,
        run_offsets=np.array([0, n_per_run, 2 * n_per_run], dtype=np.int64),
        run_unit_budgets=np.array(budgets, dtype=np.int64),
    )


def run_slice(obs, r):
    """Run ``r`` of a stacked observation as a hand-built one-run one."""
    lo, hi = int(obs.run_offsets[r]), int(obs.run_offsets[r + 1])
    return make_obs(
        n_users=hi - lo,
        unit_budget=int(obs.run_unit_budgets[r]),
        link_units=obs.link_units[lo:hi],
        active=obs.active[lo:hi],
    )


class TestCheck:
    def test_valid_allocation_passes(self):
        obs = make_obs(n_users=3, unit_budget=30, link_units=[10, 10, 10])
        check_constraints(np.array([10, 10, 10]), obs)

    def test_link_cap_violation(self):
        obs = make_obs(n_users=2, link_units=[5, 5])
        with pytest.raises(ConstraintViolationError, match="Eq. 1"):
            check_constraints(np.array([6, 0]), obs)

    def test_budget_violation(self):
        obs = make_obs(n_users=2, unit_budget=8, link_units=[5, 5])
        with pytest.raises(ConstraintViolationError, match="Eq. 2"):
            check_constraints(np.array([5, 4]), obs)

    def test_budget_is_per_run(self):
        # Run 0 overspends its own budget while the stack total (7 units)
        # stays under the summed budget (25): still an Eq. (2) violation.
        obs = two_run_obs([5, 20], n_per_run=2, link_units=[5, 5, 5, 5])
        with pytest.raises(ConstraintViolationError, match=r"run 0.*Eq\. 2"):
            check_constraints(np.array([4, 3, 0, 0]), obs)
        check_constraints(np.array([4, 1, 5, 5]), obs)

    def test_negative_rejected(self):
        obs = make_obs(n_users=2)
        with pytest.raises(ConstraintViolationError, match="negative"):
            check_constraints(np.array([-1, 0]), obs)

    def test_float_dtype_rejected(self):
        obs = make_obs(n_users=2)
        with pytest.raises(ConstraintViolationError, match="dtype"):
            check_constraints(np.array([1.0, 0.0]), obs)

    def test_inactive_user_allocation_rejected(self):
        obs = make_obs(n_users=2, active=[True, False])
        with pytest.raises(ConstraintViolationError, match="inactive"):
            check_constraints(np.array([0, 1]), obs)

    def test_shape_mismatch(self):
        obs = make_obs(n_users=2)
        with pytest.raises(ConstraintViolationError, match="shape"):
            check_constraints(np.array([1, 1, 1]), obs)


def _ordered_checks(phi, obs):
    """The checks one by one, in documented order: the oracle for the
    fused pass, returning the first violation's message or ``None``."""
    phi = np.asarray(phi)
    if phi.shape != (obs.n_users,):
        return f"allocation shape {phi.shape} != ({obs.n_users},)"
    if not np.issubdtype(phi.dtype, np.integer):
        return f"allocation dtype {phi.dtype} is not integral"
    if np.any(phi < 0):
        return "negative allocation"
    over = phi > obs.link_units
    if np.any(over):
        i = int(np.argmax(over))
        return (
            f"user {i}: phi={int(phi[i])} exceeds link cap "
            f"{int(obs.link_units[i])} (Eq. 1)"
        )
    totals = np.add.reduceat(phi, obs.run_offsets[:-1])
    over_run = totals > obs.run_unit_budgets
    if over_run.any():
        r = int(np.argmax(over_run))
        return (
            f"run {r}: total {int(totals[r])} units exceeds BS budget "
            f"{int(obs.run_unit_budgets[r])} (Eq. 2)"
        )
    if np.any(phi[~obs.active] > 0):
        return "allocation to inactive user"
    return None


KINDS = ("shape", "dtype", "negative", "Eq. 1", "Eq. 2", "inactive")


class TestCheckMatchesOrderedChecks:
    """Every allocation — valid or violating any check, one run or a
    stack — gets the verdict and message of the ordered checks."""

    def _verdict(self, phi, obs):
        try:
            check_constraints(phi, obs)
        except ConstraintViolationError as exc:
            return str(exc)
        return None

    def test_random_allocations(self, rng):
        kinds = set()
        for _ in range(600):
            n = int(rng.integers(1, 7))
            link = rng.integers(-1, 8, 2 * n)
            active = rng.random(2 * n) < 0.7
            budgets = [int(b) for b in rng.integers(0, 30, 2)]
            if rng.random() < 0.5:
                obs = two_run_obs(budgets, n_per_run=n, link_units=link, active=active)
            else:
                obs = make_obs(
                    n_users=2 * n, unit_budget=budgets[0],
                    link_units=link, active=active,
                )
            phi = np.minimum(rng.integers(-1, 9, 2 * n), np.maximum(link, 0))
            phi = np.where(active | (rng.random(2 * n) < 0.1), phi, 0)
            if rng.random() < 0.05:
                phi = phi[:-1]
            elif rng.random() < 0.05:
                phi = phi.astype(float)
            elif rng.random() < 0.1:
                phi = phi.astype(np.int32)
            want = _ordered_checks(phi, obs)
            got = self._verdict(phi, obs)
            expected = None if want is None else str(ConstraintViolationError(want, obs.slot))
            assert got == expected, (phi, obs.link_units, obs.active)
            kinds.add(next((k for k in KINDS if want and k in want), None))
        assert kinds == {None, *KINDS}


class TestClip:
    def test_within_limits_untouched(self):
        obs = make_obs(n_users=3, unit_budget=100, link_units=[20, 20, 20])
        phi = clip_to_constraints(np.array([5, 5, 5]), obs)
        np.testing.assert_array_equal(phi, [5, 5, 5])

    def test_per_user_cap_applied(self):
        obs = make_obs(n_users=2, unit_budget=100, link_units=[3, 3])
        phi = clip_to_constraints(np.array([10, 10]), obs)
        np.testing.assert_array_equal(phi, [3, 3])

    def test_head_of_line_truncation(self):
        obs = make_obs(n_users=3, unit_budget=10, link_units=[8, 8, 8])
        phi = clip_to_constraints(np.array([8, 8, 8]), obs)
        np.testing.assert_array_equal(phi, [8, 2, 0])
        assert phi.sum() == 10

    def test_inactive_zeroed(self):
        obs = make_obs(n_users=2, active=[False, True], unit_budget=100)
        phi = clip_to_constraints(np.array([5, 5]), obs)
        assert phi[0] == 0 and phi[1] == 5

    def test_fractional_desired_floored(self):
        obs = make_obs(n_users=1, unit_budget=100)
        phi = clip_to_constraints(np.array([4.9]), obs)
        assert phi[0] == 4

    def test_result_always_valid(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            obs = make_obs(
                n_users=n,
                unit_budget=int(rng.integers(0, 40)),
                link_units=rng.integers(0, 20, n),
                active=rng.random(n) < 0.8,
            )
            desired = rng.uniform(-5, 30, n)
            phi = clip_to_constraints(desired, obs)
            check_constraints(phi, obs)

    def test_two_runs_clip_like_each_run_alone(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            obs = two_run_obs(
                [int(b) for b in rng.integers(0, 40, 2)],
                n_per_run=n,
                link_units=rng.integers(0, 20, 2 * n),
                active=rng.random(2 * n) < 0.8,
            )
            desired = rng.uniform(-5, 30, 2 * n)
            phi = clip_to_constraints(desired, obs)
            alone = np.concatenate(
                [
                    clip_to_constraints(desired[:n], run_slice(obs, 0)),
                    clip_to_constraints(desired[n:], run_slice(obs, 1)),
                ]
            )
            assert phi.tobytes() == alone.tobytes()
            check_constraints(phi, obs)
