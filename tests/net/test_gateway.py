"""Tests for the gateway framework components (Fig. 1)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import constants
from repro.core.scheduler import Scheduler
from repro.errors import SimulationError
from repro.kernels import SlotArena
from repro.media.fleet import ClientFleet
from repro.media.video import ConstantBitrateProfile, VideoSession
from repro.net.basestation import ConstantCapacity
from repro.net.flows import VideoFlow
from repro.net.gateway import DataTransmitter, Gateway, InformationCollector
from repro.net.slicing import ResourceSlicer
from repro.radio.power import EnviPowerModel
from repro.radio.throughput import LinearThroughputModel

from tests.conftest import make_obs


def make_world(n=3, size_kb=5000.0, rate=400.0, buffer_capacity_s=None):
    sizes = np.broadcast_to(size_kb, (n,))
    flows = [
        VideoFlow(i, VideoSession(float(sizes[i]), ConstantBitrateProfile(rate)))
        for i in range(n)
    ]
    return flows, ClientFleet(flows, tau_s=1.0, buffer_capacity_s=buffer_capacity_s)


def cell(capacity_kbps=constants.BS_CAPACITY_KBPS, delta_kb=constants.DEFAULT_DELTA_KB):
    """A base station's Eq. (2) parameters: capacity model, frame, slot."""
    return SimpleNamespace(
        capacity=ConstantCapacity(capacity_kbps),
        delta_kb=delta_kb,
        tau_s=constants.DEFAULT_TAU_S,
    )


def slot_inputs(sig_row, bs, slot=0):
    """One run's precomputed per-slot inputs, as the engine derives
    them: the Eq. (24) link/power rows of ``sig_row``, and the ``(1,)``
    Eq. (2) budget array plus segment bounds of a single run whose
    slicer passes the BS capacity through."""
    sig = np.asarray(sig_row, dtype=float)
    link = LinearThroughputModel().max_units(sig, bs.tau_s, bs.delta_kb)
    p = EnviPowerModel().p(sig)
    video_cap = ResourceSlicer().video_capacity_kbps(bs.capacity.capacity_kbps(slot), slot)
    budget = int(np.floor(bs.tau_s * video_cap / bs.delta_kb))
    return (
        link,
        p,
        np.array([budget], dtype=np.int64),
        np.array([0, sig.shape[0]], dtype=np.int64),
    )


class TestInformationCollector:
    def test_collect_builds_consistent_observation(self):
        flows, fleet = make_world(n=3)
        bs = cell(capacity_kbps=4096.0, delta_kb=40.0)
        collector = InformationCollector()
        sig = np.array([-60.0, -80.0, -100.0])
        link, p, budget, offsets = slot_inputs(sig, bs)
        obs = collector.collect_fleet(
            slot=0,
            sig_row=sig,
            fleet=fleet,
            tau_s=bs.tau_s,
            delta_kb=bs.delta_kb,
            link_row=link,
            p_row=p,
            idle_tail_cost_mj=np.zeros(3),
            unit_budget=budget,
            run_offsets=offsets,
            arena=SlotArena(3),
        )
        assert obs.n_users == 3
        assert obs.unit_budget == 102  # floor(4096/40)
        # Stronger signal, larger link cap.
        assert obs.link_units[0] > obs.link_units[1] > obs.link_units[2]
        assert obs.active.all()
        np.testing.assert_allclose(obs.rate_kbps, 400.0)

    def test_collect_rejects_mismatched_arrays(self):
        flows, fleet = make_world(n=2)
        bs = cell()
        link, p, budget, offsets = slot_inputs(np.array([-80.0]), bs)
        with pytest.raises(SimulationError):
            InformationCollector().collect_fleet(
                0,
                np.array([-80.0]),
                fleet,
                bs.tau_s,
                bs.delta_kb,
                link,
                p,
                np.zeros(2),
                budget,
                offsets,
                SlotArena(2),
            )


class TestDataTransmitter:
    def test_transmit_caps_at_remaining_video(self):
        flows, fleet = make_world(n=1, size_kb=100.0)
        obs = make_obs(n_users=1, remaining_kb=[100.0])
        tx = DataTransmitter()
        accepted = tx.transmit_fleet(np.array([3]), obs, fleet, SlotArena(1))
        assert accepted[0] == 100.0  # 3 units = 120 KB wanted, 100 left

    def test_fleet_truncates_overallocation_and_stalls_zero_offer(self):
        # Row 0 is bound by its remaining bytes, row 1 by its receive
        # window (a 10 s buffer cap at 400 KB/s), row 2 is stalled.
        flows, fleet = make_world(
            n=3, size_kb=[100.0, 50_000.0, 50_000.0], buffer_capacity_s=10.0
        )
        obs = make_obs(n_users=3)
        phi = np.array([10, 200, 10])
        remaining = fleet.remaining_kb.copy()
        receivable = fleet.receivable_kb(obs.slot).copy()
        accepted = DataTransmitter().transmit_fleet(
            phi,
            obs,
            fleet,
            SlotArena(3),
            stall_mask=np.array([False, False, True]),
        )
        want = phi * obs.delta_kb
        np.testing.assert_array_equal(
            accepted[:2], np.minimum(np.minimum(want, remaining), receivable)[:2]
        )
        assert accepted[0] == remaining[0] < min(want[0], receivable[0])
        assert accepted[1] == receivable[1] < min(want[1], remaining[1])
        assert accepted[2] == 0.0
        np.testing.assert_array_equal(fleet.delivered_kb, accepted)

    def test_rejects_negative_allocation(self):
        flows, fleet = make_world(n=1)
        obs = make_obs(n_users=1)
        with pytest.raises(SimulationError):
            DataTransmitter().transmit_fleet(
                np.array([-1]), obs, fleet, SlotArena(1)
            )


class _NeedScheduler(Scheduler):
    name = "test-need"

    def allocate(self, obs):
        need = np.ceil(obs.tau_s * obs.rate_kbps / obs.delta_kb).astype(np.int64)
        return np.where(obs.active, np.minimum(need, obs.link_units), 0)


class TestGateway:
    def test_step_delivers_to_clients(self):
        flows, fleet = make_world(n=2)
        bs = cell()
        gw = Gateway(_NeedScheduler(), bs.tau_s, bs.delta_kb)
        sig = np.array([-70.0, -75.0])
        link, p, budget, offsets = slot_inputs(sig, bs, slot=0)
        obs, phi, delivered = gw.step(
            0,
            sig,
            fleet,
            link,
            p,
            np.zeros(2),
            budget,
            offsets,
            SlotArena(2),
        )
        assert phi.shape == (2,)
        assert (delivered > 0).all()
        assert fleet.view(0).delivered_kb == delivered[0]

    def test_inactive_users_get_nothing(self):
        flows, fleet = make_world(n=2, size_kb=50.0)
        fleet.deliver(np.array([0.0, 50.0]), 0)  # user 1 fully delivered
        bs = cell()
        gw = Gateway(_NeedScheduler(), bs.tau_s, bs.delta_kb)
        sig = np.array([-70.0, -75.0])
        link, p, budget, offsets = slot_inputs(sig, bs, slot=1)
        obs, phi, delivered = gw.step(
            1,
            sig,
            fleet,
            link,
            p,
            np.zeros(2),
            budget,
            offsets,
            SlotArena(2),
        )
        assert not obs.active[1]
        assert phi[1] == 0 and delivered[1] == 0.0
