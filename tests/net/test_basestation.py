"""Tests for the base-station capacity models (Eq. 2)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.basestation import ConstantCapacity, TimeVaryingCapacity


class TestCapacityModels:
    def test_constant(self):
        c = ConstantCapacity(20480.0)
        assert c.capacity_kbps(0) == 20480.0
        assert c.capacity_kbps(9999) == 20480.0

    def test_constant_validation(self):
        with pytest.raises(ConfigurationError):
            ConstantCapacity(0.0)

    def test_time_varying_replay_and_wrap(self):
        c = TimeVaryingCapacity([100.0, 200.0, 300.0])
        assert c.capacity_kbps(1) == 200.0
        assert c.capacity_kbps(4) == 200.0  # wrapped

    def test_time_varying_validation(self):
        with pytest.raises(ConfigurationError):
            TimeVaryingCapacity([])
        with pytest.raises(ConfigurationError):
            TimeVaryingCapacity([100.0, -5.0])
        with pytest.raises(ConfigurationError):
            TimeVaryingCapacity([100.0]).capacity_kbps(-1)
