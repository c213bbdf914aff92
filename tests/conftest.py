"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.gateway import SlotObservation
from repro.sim.config import SimConfig


def make_obs(
    n_users: int = 4,
    slot: int = 0,
    tau_s: float = 1.0,
    delta_kb: float = 40.0,
    unit_budget: int = 64,
    sig_dbm=None,
    rate_kbps=None,
    link_units=None,
    p_mj_per_kb=None,
    active=None,
    buffer_s=None,
    remaining_kb=None,
    idle_tail_cost_mj=None,
    receivable_kb=None,
) -> SlotObservation:
    """Hand-rolled SlotObservation with sensible defaults.

    Defaults model a mid-range channel: -80 dBm, ~2303 KB/s throughput
    (57 units/slot at delta=40), P ~= 0.51 mJ/KB.
    """

    def arr(value, default):
        if value is None:
            value = default
        out = np.asarray(value)
        if out.ndim == 0:
            out = np.full(n_users, value)
        return out

    sig = arr(sig_dbm, -80.0).astype(float)
    rates = arr(rate_kbps, 450.0).astype(float)
    links = arr(link_units, 57).astype(np.int64)
    p = arr(p_mj_per_kb, 0.51).astype(float)
    act = arr(active, True).astype(bool)
    buf = arr(buffer_s, 0.0).astype(float)
    rem = arr(remaining_kb, 1e6).astype(float)
    tail = arr(idle_tail_cost_mj, 0.0).astype(float)
    recv = arr(receivable_kb, np.inf).astype(float)
    return SlotObservation(
        slot=slot,
        tau_s=tau_s,
        delta_kb=delta_kb,
        unit_budget=unit_budget,
        sig_dbm=sig,
        rate_kbps=rates,
        link_units=links,
        p_mj_per_kb=p,
        active=act,
        buffer_s=buf,
        remaining_kb=rem,
        idle_tail_cost_mj=tail,
        receivable_kb=recv,
    )


@pytest.fixture
def small_config() -> SimConfig:
    """A fast 6-user, 200-slot configuration for engine tests."""
    return SimConfig(
        n_users=6,
        n_slots=200,
        video_size_range_kb=(30_000.0, 60_000.0),
        seed=42,
    )


@pytest.fixture
def contended_config() -> SimConfig:
    """A configuration where BS capacity binds (for fairness tests)."""
    return SimConfig(
        n_users=12,
        n_slots=300,
        capacity_kbps=4_000.0,
        video_size_range_kb=(50_000.0, 80_000.0),
        seed=7,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
