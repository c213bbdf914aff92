"""Property-based tests for churn's row lifecycle in session space.

A churn session owns its fleet row for the whole run; rejecting or
retiring it takes the row out of play.  Two mechanical guarantees:

* **clearing is local** — ``ClientFleet.clear_row`` changes nothing for
  the other rows, bit for bit, and the cleared row never becomes
  active again and reads 0;
* **reset ends the tail** — ``RRCFleet.reset_rows`` on a retired row
  stops its tail energy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.fleet import ClientFleet
from repro.media.video import ConstantBitrateProfile, VideoSession
from repro.net.flows import VideoFlow
from repro.radio.rrc import RRCFleet

FLEET_STATE = (
    "size_kb",
    "arrival_slot",
    "delivered_kb",
    "delivered_playback_s",
    "elapsed_playback_s",
    "total_rebuffering_s",
    "buffer_occupancy_s",
    "pending_playback_s",
    "last_slot_rebuffering_s",
    "_began",
)


def _flows(sizes, rates):
    return [
        VideoFlow(
            user_id=i,
            video=VideoSession(size, ConstantBitrateProfile(rate)),
            arrival_slot=0,
        )
        for i, (size, rate) in enumerate(zip(sizes, rates))
    ]


def _drive(fleet, slot, offers):
    fleet.begin_slot(slot)
    fleet.deliver(np.asarray(offers, dtype=float), slot)


@given(
    sizes=st.lists(st.floats(500.0, 5_000.0), min_size=2, max_size=5),
    rate=st.floats(100.0, 800.0),
    offers=st.lists(
        st.lists(st.floats(0.0, 400.0), min_size=5, max_size=5),
        min_size=2,
        max_size=12,
    ),
    clear_at=st.integers(0, 11),
    row=st.integers(0, 4),
)
@settings(max_examples=40, deadline=None)
def test_clear_row_is_invisible_to_other_rows(sizes, rate, offers, clear_at, row):
    n = len(sizes)
    row %= n
    flows = _flows(sizes, [rate] * n)
    reference = ClientFleet(flows, tau_s=1.0, buffer_capacity_s=30.0)
    clearing = ClientFleet(flows, tau_s=1.0, buffer_capacity_s=30.0)
    others = np.arange(n) != row
    cleared_at = min(clear_at, len(offers) - 1)
    for slot, offer in enumerate(offers):
        if slot == cleared_at:
            clearing.clear_row(row)
        _drive(reference, slot, offer[:n])
        _drive(clearing, slot, offer[:n])
        for name in FLEET_STATE:
            a = getattr(reference, name)[others]
            b = getattr(clearing, name)[others]
            assert a.tobytes() == b.tobytes(), (name, slot)
        if slot >= cleared_at:
            # A cleared row never plays again and its state reads 0.
            assert not clearing.active_mask(slot)[row]
            for name in FLEET_STATE[2:]:
                assert getattr(clearing, name)[row] == 0, (name, slot)


@given(
    tx=st.lists(st.booleans(), min_size=1, max_size=10),
    idle_steps=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_rrc_reset_rows_ends_the_tail(tx, idle_steps):
    rrc = RRCFleet(2)
    for bit in tx:
        rrc.step(np.array([bit, False]), 1.0)
    rrc.reset_rows([0])
    assert not rrc.ever_transmitted[0]
    for _ in range(idle_steps):
        energy = rrc.step(np.zeros(2, dtype=bool), 1.0)
        assert energy[0] == 0.0, "reset row must not pay tail energy"
