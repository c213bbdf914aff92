"""The ClipScheduler contract: ``allocate`` is ``want`` fitted by the clip.

A stack of runs calls :meth:`~repro.core.scheduler.ClipScheduler.want`
on each baseline block and clips the whole stack once, so for every
baseline the wanted units must carry the whole policy: ``allocate(obs)``
equals ``clip_to_constraints(want(obs), obs)``, and ``want`` makes the
same state updates ``allocate`` makes.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.default import DefaultScheduler, NeedRateScheduler
from repro.baselines.estreamer import EStreamerScheduler
from repro.baselines.onoff import OnOffScheduler
from repro.baselines.salsa import SalsaScheduler
from repro.baselines.throttling import ThrottlingScheduler
from repro.core.allocation import clip_to_constraints
from repro.core.scheduler import ClipScheduler

from tests.conftest import make_obs

CLIP_SCHEDULERS = [
    DefaultScheduler,
    NeedRateScheduler,
    ThrottlingScheduler,
    OnOffScheduler,
    SalsaScheduler,
    EStreamerScheduler,
]

#: The per-user state each baseline carries between slots.
STATE_FIELDS = ("_refilling", "_on", "_queue_kb", "_bursting")


def _state(sched):
    return {
        name: getattr(sched, name).tobytes()
        for name in STATE_FIELDS
        if getattr(sched, name, None) is not None
    }


def _random_obs(rng, n, slot):
    """A random slot of ``n`` users, sometimes split into two runs."""
    obs = make_obs(
        n_users=n,
        slot=slot,
        unit_budget=int(rng.integers(0, 40 * n)),
        link_units=rng.integers(0, 60, n),
        rate_kbps=rng.uniform(300.0, 600.0, n),
        sig_dbm=rng.uniform(-110.0, -50.0, n),
        p_mj_per_kb=rng.uniform(0.2, 2.0, n),
        active=rng.random(n) < 0.85,
        buffer_s=rng.uniform(0.0, 70.0, n),
        remaining_kb=rng.uniform(0.0, 3e4, n),
        receivable_kb=np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0, 3e4, n)),
    )
    if n < 2 or rng.random() < 0.5:
        return obs
    cut = int(rng.integers(1, n))
    budgets = rng.integers(0, 40 * n, 2)
    return dataclasses.replace(
        obs,
        unit_budget=int(budgets.sum()),
        run_offsets=np.array([0, cut, n], dtype=np.int64),
        run_unit_budgets=budgets.astype(np.int64),
    )


@pytest.mark.parametrize("cls", CLIP_SCHEDULERS)
def test_allocate_is_clipped_want(cls, rng):
    assert issubclass(cls, ClipScheduler)
    assert "allocate" not in vars(cls)
    assert isinstance(vars(cls)["shared_params"], tuple)
    by_allocate, by_want = cls(), cls()
    n = int(rng.integers(1, 30))
    for slot in range(50):
        obs = _random_obs(rng, n, slot)
        phi = by_allocate.allocate(obs)
        wanted = by_want.want(obs)
        assert wanted.dtype == np.float64 and wanted.shape == (n,)
        clipped = clip_to_constraints(wanted, obs)
        assert phi.dtype == clipped.dtype and phi.tobytes() == clipped.tobytes(), slot
        assert _state(by_allocate) == _state(by_want), slot
        delivered = np.minimum(phi * obs.delta_kb, obs.remaining_kb)
        by_allocate.notify(obs, phi, delivered)
        by_want.notify(obs, clipped, delivered)
        assert _state(by_allocate) == _state(by_want), slot
