"""Tests for video flow descriptors."""

import pytest

from repro.errors import ConfigurationError
from repro.media.video import ConstantBitrateProfile, VideoSession
from repro.net.flows import VideoFlow


def make_flow(uid=0, rate=400.0, arrival=0):
    return VideoFlow(
        user_id=uid,
        video=VideoSession(10_000.0, ConstantBitrateProfile(rate)),
        arrival_slot=arrival,
    )


class TestFlows:
    def test_active_at(self):
        f = make_flow(arrival=5)
        assert not f.active_at(4)
        assert f.active_at(5)
        assert f.active_at(100)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_flow(uid=-1)
        with pytest.raises(ConfigurationError):
            make_flow(arrival=-1)
