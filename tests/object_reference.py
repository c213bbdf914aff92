"""Per-user reference simulation: one ``StreamingClient`` per session.

The test oracle for the engine's vectorized fleet path.  It runs the
paper's slot pipeline the plain way — a Python loop over
:class:`~repro.media.player.StreamingClient` objects for playback,
observation and delivery — for a fixed population without faults or
instrumentation, and returns the result grids the engine records.
"""

from types import SimpleNamespace

import numpy as np

from repro.core.allocation import check_constraints
from repro.media.player import StreamingClient
from repro.net.basestation import ConstantCapacity
from repro.net.gateway import SlotObservation
from repro.net.slicing import ResourceSlicer
from repro.radio.rrc import RRCFleet


def run_reference(cfg, scheduler, workload):
    """Run ``scheduler`` on ``workload``; the grids as attributes."""
    radio = cfg.radio
    n, gamma = cfg.n_users, cfg.n_slots
    flows = workload.flows
    clients = [
        StreamingClient(f.video, cfg.tau_s, cfg.buffer_capacity_s) for f in flows
    ]
    capacity = ConstantCapacity(cfg.capacity_kbps)
    slicer = ResourceSlicer(cfg.background) if cfg.background else ResourceSlicer()
    rrc = RRCFleet(n, radio.rrc)
    scheduler.reset()

    out = SimpleNamespace(
        allocation_units=np.zeros((gamma, n), dtype=np.int64),
        delivered_kb=np.zeros((gamma, n)),
        rebuffering_s=np.zeros((gamma, n)),
        energy_trans_mj=np.zeros((gamma, n)),
        energy_tail_mj=np.zeros((gamma, n)),
        buffer_s=np.zeros((gamma, n)),
        need_kb=np.zeros((gamma, n)),
        active=np.zeros((gamma, n), dtype=bool),
        completion_slot=np.full(n, -1, dtype=np.int64),
        arrival_slot=np.array([f.arrival_slot for f in flows], dtype=np.int64),
    )
    for slot in range(gamma):
        # Playback (Eq. 7/8); sessions not yet arrived do not play.
        for i, client in enumerate(clients):
            if slot < out.arrival_slot[i]:
                continue
            out.rebuffering_s[slot, i], _ = client.begin_slot(slot)
            if out.completion_slot[i] < 0 and client.playback_complete:
                out.completion_slot[i] = slot

        # Observe.
        sig = np.asarray(workload.signal_dbm[slot], dtype=float)
        video_cap = slicer.video_capacity_kbps(capacity.capacity_kbps(slot), slot)
        obs = SlotObservation(
            slot=slot,
            tau_s=cfg.tau_s,
            delta_kb=cfg.delta_kb,
            unit_budget=int(np.floor(cfg.tau_s * video_cap / cfg.delta_kb)),
            sig_dbm=sig,
            rate_kbps=np.array([f.video.rate_kbps(slot) for f in flows]),
            link_units=radio.throughput.max_units(sig, cfg.tau_s, cfg.delta_kb),
            p_mj_per_kb=np.asarray(radio.power.p(sig), dtype=float),
            active=np.array(
                [f.active_at(slot) and c.needs_data for f, c in zip(flows, clients)],
                dtype=bool,
            ),
            buffer_s=np.array([c.buffer_occupancy_s for c in clients]),
            remaining_kb=np.array([c.remaining_kb for c in clients]),
            idle_tail_cost_mj=rrc.expected_idle_cost_mj(cfg.tau_s),
            receivable_kb=np.array([c.receivable_kb(slot) for c in clients]),
        )

        # Schedule, then transmit; each client truncates its shard.
        phi = np.asarray(scheduler.allocate(obs))
        check_constraints(phi, obs)
        offer_kb = phi.astype(float) * obs.delta_kb
        sent_kb = np.zeros(n)
        for i, client in enumerate(clients):
            if offer_kb[i] > 0:
                sent_kb[i] = client.deliver(offer_kb[i], slot)

        # Radio energy (Eq. 3-5) and scheduler feedback.
        out.energy_trans_mj[slot] = obs.p_mj_per_kb * sent_kb
        out.energy_tail_mj[slot] = rrc.step(sent_kb > 0.0, cfg.tau_s)
        scheduler.notify(obs, phi, sent_kb)

        out.allocation_units[slot] = phi
        out.delivered_kb[slot] = sent_kb
        out.buffer_s[slot] = obs.buffer_s
        out.need_kb[slot] = obs.rate_kbps * cfg.tau_s
        out.active[slot] = obs.active
    return out
