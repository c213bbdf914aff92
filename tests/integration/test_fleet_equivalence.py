"""Cross-path equivalence: the engine's fleet path vs the object oracle.

The engine drives the vectorized :class:`~repro.media.fleet.ClientFleet`;
:func:`tests.object_reference.run_reference` drives one per-user
:class:`~repro.media.player.StreamingClient` per session through the
same slot pipeline.  The contract is *bit-identity*: every result grid
— allocations, deliveries, rebuffering, transmission and tail energy —
must match byte-for-byte for every scheduler, seed, and workload shape.
This is what lets the per-user model serve as the trusted reference
while all figures run on the fleet path.

A second guarantee rides along: a fleet-path trace passes the offline
invariant checkers of :mod:`repro.obs.analyze` with zero violations.
"""

import numpy as np
import pytest

from repro.baselines import (
    DefaultScheduler,
    EStreamerScheduler,
    OnOffScheduler,
    SalsaScheduler,
    ThrottlingScheduler,
)
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.media.fleet import ClientFleet
from repro.media.player import PlayerState, StreamingClient
from repro.media.video import ConstantBitrateProfile, VideoSession
from repro.net.flows import VideoFlow
from repro.obs import Instrumentation, JsonlTraceWriter, check_trace
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.workload import Workload, generate_workload

from tests.object_reference import run_reference

RESULT_ARRAYS = (
    "allocation_units",
    "delivered_kb",
    "rebuffering_s",
    "energy_trans_mj",
    "energy_tail_mj",
    "buffer_s",
    "need_kb",
    "active",
    "completion_slot",
    "arrival_slot",
)

SCHEDULERS = {
    "rtma": lambda cfg: RTMAScheduler(sig_threshold_dbm=-95.0),
    "ema": lambda cfg: EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s),
    "default": lambda cfg: DefaultScheduler(),
    "on-off": lambda cfg: OnOffScheduler(),
    "throttling": lambda cfg: ThrottlingScheduler(),
    "estreamer": lambda cfg: EStreamerScheduler(),
    "salsa": lambda cfg: SalsaScheduler(),
}


def assert_results_bit_identical(a, b):
    for name in RESULT_ARRAYS:
        assert (
            getattr(a, name).tobytes() == getattr(b, name).tobytes()
        ), f"{name} differs between fleet and object paths"


def run_both(cfg, make_scheduler, workload=None):
    wl = workload if workload is not None else generate_workload(cfg)
    r_obj = run_reference(cfg, make_scheduler(cfg), wl)
    r_fleet = Simulation(cfg, make_scheduler(cfg), wl).run()
    return r_obj, r_fleet


class TestBitIdentity:
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_all_schedulers_all_seeds(self, sched_name, seed):
        cfg = SimConfig(
            n_users=10,
            n_slots=250,
            capacity_kbps=6_000.0,
            video_size_range_kb=(20_000.0, 50_000.0),
            buffer_capacity_s=60.0,
            seed=seed,
        )
        r_obj, r_fleet = run_both(cfg, SCHEDULERS[sched_name])
        assert_results_bit_identical(r_obj, r_fleet)

    @pytest.mark.parametrize("sched_name", ["rtma", "ema", "default"])
    def test_uncapped_buffers(self, sched_name):
        cfg = SimConfig(
            n_users=8, n_slots=200, capacity_kbps=5_000.0, seed=3,
            buffer_capacity_s=None,
        )
        r_obj, r_fleet = run_both(cfg, SCHEDULERS[sched_name])
        assert_results_bit_identical(r_obj, r_fleet)

    @pytest.mark.parametrize("sched_name", ["rtma", "ema", "on-off"])
    def test_vbr_profiles(self, sched_name):
        cfg = SimConfig(
            n_users=8,
            n_slots=200,
            capacity_kbps=5_000.0,
            vbr_segments=15,
            buffer_capacity_s=30.0,
            seed=5,
        )
        r_obj, r_fleet = run_both(cfg, SCHEDULERS[sched_name])
        assert_results_bit_identical(r_obj, r_fleet)

    @pytest.mark.parametrize("sched_name", ["rtma", "ema", "default"])
    def test_staggered_arrivals(self, sched_name):
        cfg = SimConfig(n_users=6, n_slots=220, capacity_kbps=4_000.0, seed=9)
        base = generate_workload(cfg)
        flows = [
            VideoFlow(
                user_id=f.user_id,
                video=f.video,
                arrival_slot=(f.user_id * 25) % 120,
            )
            for f in base.flows
        ]
        wl = Workload(flows=flows, signal_dbm=base.signal_dbm)
        r_obj, r_fleet = run_both(cfg, SCHEDULERS[sched_name], workload=wl)
        assert_results_bit_identical(r_obj, r_fleet)

    def test_tiny_videos_complete_mid_run(self):
        # Sessions finish early: exercises fully_delivered / completion
        # masking on both paths.
        cfg = SimConfig(
            n_users=6,
            n_slots=150,
            capacity_kbps=8_000.0,
            video_size_range_kb=(500.0, 1_500.0),
            buffer_capacity_s=40.0,
            seed=13,
        )
        r_obj, r_fleet = run_both(cfg, SCHEDULERS["default"])
        assert (r_fleet.completion_slot >= 0).any()
        assert_results_bit_identical(r_obj, r_fleet)


class TestFleetTraceInvariants:
    @pytest.mark.parametrize("sched_name", ["rtma", "ema"])
    def test_fleet_trace_is_violation_free(self, tmp_path, sched_name):
        cfg = SimConfig(
            n_users=8, n_slots=200, capacity_kbps=5_000.0,
            buffer_capacity_s=60.0, seed=4,
        )
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTraceWriter(path)
        Simulation(
            cfg,
            SCHEDULERS[sched_name](cfg),
            instrumentation=Instrumentation(tracer=tracer),
        ).run()
        tracer.close()
        ((tl, report),) = check_trace(path)
        assert tl.scheduler == sched_name
        assert report.ok, report.render()


class TestFleetClientView:
    """The per-user views mirror StreamingClient stepwise."""

    def _flows(self):
        return [
            VideoFlow(0, VideoSession(400.0, ConstantBitrateProfile(100.0))),
            VideoFlow(1, VideoSession(600.0, ConstantBitrateProfile(150.0)),
                      arrival_slot=3),
        ]

    def test_view_matches_streaming_client(self):
        flows = self._flows()
        fleet = ClientFleet(flows, tau_s=1.0, buffer_capacity_s=10.0)
        clients = [
            StreamingClient(f.video, 1.0, buffer_capacity_s=10.0) for f in flows
        ]
        rng = np.random.default_rng(0)
        for slot in range(12):
            offers = rng.uniform(0.0, 200.0, size=2)
            rebuf = np.zeros(2)
            for i, c in enumerate(clients):
                if slot < flows[i].arrival_slot:
                    continue
                rebuf[i], _ = c.begin_slot(slot)
            fleet_rebuf = fleet.begin_slot(slot)
            np.testing.assert_array_equal(rebuf, fleet_rebuf)

            capped = np.array(
                [
                    min(offers[i], c.remaining_kb, c.receivable_kb(slot))
                    for i, c in enumerate(clients)
                ]
            )
            accepted_obj = np.array(
                [
                    c.deliver(capped[i], slot) if capped[i] > 0 else 0.0
                    for i, c in enumerate(clients)
                ]
            )
            accepted_fleet = fleet.deliver(np.maximum(offers, 0.0), slot)
            np.testing.assert_array_equal(accepted_obj, accepted_fleet)

            for i, c in enumerate(clients):
                view = fleet.view(i)
                assert view.delivered_kb == c.delivered_kb
                assert view.buffer_occupancy_s == c.buffer_occupancy_s
                assert view.elapsed_playback_s == c.elapsed_playback_s
                assert view.total_rebuffering_s == c.total_rebuffering_s
                assert view.remaining_kb == c.remaining_kb
                assert view.fully_delivered == c.fully_delivered
                assert view.needs_data == c.needs_data
                assert view.receivable_kb(slot) == c.receivable_kb(slot)
                assert isinstance(view.state, PlayerState)

    def test_views_are_cached(self):
        fleet = ClientFleet(self._flows(), tau_s=1.0)
        assert fleet.view(0) is fleet.view(0)
        assert len(fleet.clients) == 2
