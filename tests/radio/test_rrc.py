"""Tests for the RRC state machine and fleet (Eqs. 4-5)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.radio.rrc import RRCFleet, RRCParams, RRCState, RRCStateMachine


class TestParams:
    def test_defaults_match_paper(self):
        p = RRCParams()
        assert p.pd_mw == pytest.approx(732.83)
        assert p.pf_mw == pytest.approx(388.88)
        assert p.t1_s == pytest.approx(3.29)
        assert p.t2_s == pytest.approx(4.02)

    def test_max_tail(self):
        p = RRCParams()
        assert p.max_tail_mj == pytest.approx(732.83 * 3.29 + 388.88 * 4.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RRCParams(pd_mw=-1.0)
        with pytest.raises(ConfigurationError):
            RRCParams(t2_s=-0.1)


class TestStateMachine:
    def test_initial_state_idle_no_tail(self):
        m = RRCStateMachine()
        assert m.state is RRCState.IDLE
        # A device that never transmitted pays nothing while idle.
        assert m.step(False, 1.0) == 0.0
        assert m.step(False, 1.0) == 0.0

    def test_transmission_resets_and_costs_no_tail(self):
        m = RRCStateMachine()
        assert m.step(True, 1.0) == 0.0
        assert m.state is RRCState.DCH

    def test_incremental_tail_matches_closed_form(self):
        params = RRCParams()
        m = RRCStateMachine(params)
        m.step(True, 1.0)
        total = 0.0
        for k in range(1, 15):
            inc = m.step(False, 1.0)
            total += inc
            assert total == pytest.approx(float(params.tail_energy_mj(float(k))))
        # Fully drained: saturated at the max tail.
        assert total == pytest.approx(params.max_tail_mj)

    def test_state_progression(self):
        m = RRCStateMachine(RRCParams(t1_s=2.0, t2_s=3.0))
        m.step(True, 1.0)
        assert m.state is RRCState.DCH
        m.step(False, 1.0)
        assert m.state is RRCState.DCH  # idle age 1 < T1
        m.step(False, 1.0)
        assert m.state is RRCState.FACH  # idle age 2 in [T1, T1+T2)
        m.step(False, 1.0)
        m.step(False, 1.0)
        m.step(False, 1.0)
        assert m.state is RRCState.IDLE  # idle age 5 >= 5

    def test_retransmission_restarts_tail(self):
        m = RRCStateMachine()
        m.step(True, 1.0)
        first = m.step(False, 1.0)
        m.step(True, 1.0)
        again = m.step(False, 1.0)
        assert again == pytest.approx(first)

    def test_expected_idle_cost_is_pure(self):
        m = RRCStateMachine()
        m.step(True, 1.0)
        predicted = m.expected_idle_cost_mj(1.0)
        actual = m.step(False, 1.0)
        assert predicted == pytest.approx(actual)

    def test_expected_idle_cost_zero_before_first_tx(self):
        assert RRCStateMachine().expected_idle_cost_mj(1.0) == 0.0

    def test_dt_validation(self):
        with pytest.raises(ConfigurationError):
            RRCStateMachine().step(True, 0.0)
        with pytest.raises(ConfigurationError):
            RRCStateMachine().expected_idle_cost_mj(-1.0)


class TestFleet:
    def test_matches_scalar_machines(self, rng):
        n = 7
        params = RRCParams()
        fleet = RRCFleet(n, params)
        machines = [RRCStateMachine(params) for _ in range(n)]
        for _ in range(60):
            tx = rng.random(n) < 0.4
            fleet_tail = fleet.step(tx, 1.0)
            scalar_tail = np.array(
                [machines[i].step(bool(tx[i]), 1.0) for i in range(n)]
            )
            np.testing.assert_allclose(fleet_tail, scalar_tail, atol=1e-12)

    def test_expected_idle_cost_matches_scalar(self, rng):
        n = 5
        fleet = RRCFleet(n)
        machines = [RRCStateMachine() for _ in range(n)]
        for _ in range(20):
            tx = rng.random(n) < 0.5
            fleet.step(tx, 1.0)
            for i in range(n):
                machines[i].step(bool(tx[i]), 1.0)
        np.testing.assert_allclose(
            fleet.expected_idle_cost_mj(1.0),
            [m.expected_idle_cost_mj(1.0) for m in machines],
            atol=1e-12,
        )

    def test_states_match_scalar(self, rng):
        n = 6
        fleet = RRCFleet(n)
        machines = [RRCStateMachine() for _ in range(n)]
        for _ in range(25):
            tx = rng.random(n) < 0.3
            fleet.step(tx, 1.0)
            for i in range(n):
                machines[i].step(bool(tx[i]), 1.0)
        assert fleet.states() == [m.state for m in machines]

    def test_shape_validation(self):
        fleet = RRCFleet(4)
        with pytest.raises(ConfigurationError):
            fleet.step(np.zeros(3, dtype=bool), 1.0)
        with pytest.raises(ConfigurationError):
            RRCFleet(0)


class TestFleetInstrumentation:
    def _random_history(self, n_slots, n_users, p, seed=0):
        rng = np.random.default_rng(seed)
        return rng.random((n_slots, n_users)) < p

    @pytest.mark.parametrize("p_tx", [0.0, 0.2, 0.7, 1.0])
    def test_batch_occupancy_matches_per_step_counts(self, p_tx):
        from repro.radio.rrc import fleet_occupancy_from_tx

        tx = self._random_history(80, 5, p_tx)
        fleet = RRCFleet(5)
        totals = {"dch": 0, "fach": 0, "idle": 0}
        for row in tx:
            fleet.step(row, 1.0)
            for state, count in fleet.state_counts().items():
                totals[state] += count
        assert fleet_occupancy_from_tx(tx, 1.0, fleet.params) == totals

    def test_state_counts_matches_states(self):
        tx = self._random_history(40, 6, 0.3, seed=3)
        fleet = RRCFleet(6)
        for row in tx:
            fleet.step(row, 1.0)
            counts = fleet.state_counts()
            states = fleet.states()
            assert counts["dch"] == sum(s is RRCState.DCH for s in states)
            assert counts["fach"] == sum(s is RRCState.FACH for s in states)
            assert counts["idle"] == sum(s is RRCState.IDLE for s in states)

    def test_occupancy_rejects_bad_input(self):
        from repro.radio.rrc import fleet_occupancy_from_tx

        with pytest.raises(ConfigurationError):
            fleet_occupancy_from_tx(np.zeros((2, 2)), 0.0)
        with pytest.raises(ConfigurationError):
            fleet_occupancy_from_tx(np.zeros(4), 1.0)
