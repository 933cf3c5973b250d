"""Dark core maps and chip state invariants."""

import numpy as np
import pytest

from repro.mapping import ChipState, DarkCoreMap
from repro.workload import make_mix


@pytest.fixture()
def threads():
    return make_mix(["bodytrack", "x264"], 8, np.random.default_rng(0)).threads


@pytest.fixture()
def state(threads):
    dcm = DarkCoreMap.from_on_indices(16, np.arange(8))
    return ChipState(16, threads, dcm)


class TestDarkCoreMap:
    def test_counts(self):
        dcm = DarkCoreMap.from_on_indices(16, [0, 3, 5])
        assert dcm.num_on == 3
        assert dcm.num_cores == 16

    def test_index_views(self):
        dcm = DarkCoreMap.from_on_indices(4, [1, 2])
        np.testing.assert_array_equal(dcm.on_indices(), [1, 2])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            DarkCoreMap(np.zeros((2, 2), dtype=bool))


class TestPlacement:
    def test_place_and_query(self, state):
        state.place(0, 3, 2.5)
        assert state.core_of_thread(0) == 3
        assert state.assignment[3] == 0
        assert state.freq_ghz[3] == 2.5

    def test_one_thread_per_core(self, state):
        state.place(0, 3, 2.5)
        with pytest.raises(ValueError, match="Eq. 5"):
            state.place(1, 3, 2.5)

    def test_thread_mapped_once(self, state):
        state.place(0, 3, 2.5)
        with pytest.raises(ValueError, match="already mapped"):
            state.place(0, 4, 2.5)

    def test_no_placement_on_dark_core(self, state):
        with pytest.raises(ValueError, match="dark"):
            state.place(0, 12, 2.5)

    def test_unplace_returns_thread(self, state):
        state.place(2, 5, 2.8)
        assert state.unplace(5) == 2
        assert state.assignment[5] == -1
        assert state.freq_ghz[5] == 0.0

    def test_unplace_idle_core_rejected(self, state):
        with pytest.raises(ValueError, match="idle"):
            state.unplace(5)

    def test_validate_passes_for_legal_state(self, state):
        state.place(0, 0, 2.5)
        state.place(1, 1, 2.5)
        state.validate()


class TestMigration:
    def test_migrate_transfers_power_state(self, state):
        state.place(0, 3, 2.5)
        state.migrate(3, 12)  # 12 was dark
        assert state.core_of_thread(0) == 12
        assert state.powered_on[12]
        assert not state.powered_on[3]
        assert state.freq_ghz[12] == 2.5

    def test_non_grows_never(self, state):
        before = state.dcm.num_on
        state.place(0, 3, 2.5)
        state.migrate(3, 12)
        assert state.dcm.num_on == before

    def test_migrate_to_busy_core_rejected(self, state):
        state.place(0, 3, 2.5)
        state.place(1, 4, 2.5)
        with pytest.raises(ValueError, match="busy"):
            state.migrate(3, 4)

    def test_migrate_from_idle_rejected(self, state):
        with pytest.raises(ValueError, match="idle"):
            state.migrate(3, 12)


class TestPowerManagement:
    def test_power_cycle(self, state):
        state.power_on(12)
        assert state.powered_on[12]
        state.power_off(12)
        assert not state.powered_on[12]

    def test_cannot_gate_busy_core(self, state):
        state.place(0, 3, 2.5)
        with pytest.raises(ValueError, match="runs a thread"):
            state.power_off(3)

    def test_set_frequency_throttle_flag(self, state):
        state.place(0, 3, 2.5)
        state.set_frequency(3, 1.75, throttled=True)
        assert state.freq_ghz[3] == 1.75
        assert state.throttled[3]


class TestVectors:
    def test_activity_vector_zero_when_idle(self, state):
        activity = state.activity_vector(0.0)
        np.testing.assert_array_equal(activity, np.zeros(16))

    def test_activity_vector_busy_cores(self, state):
        state.place(0, 2, 2.5)
        activity = state.activity_vector(1.0)
        assert activity[2] > 0
        assert activity[(np.arange(16) != 2)].sum() == 0

    def test_duty_vector(self, state, threads):
        state.place(0, 2, 2.5)
        duty = state.duty_vector()
        assert duty[2] == threads[0].duty_cycle
        assert duty.sum() == pytest.approx(threads[0].duty_cycle)

    def test_idle_on_cores(self, state):
        state.place(0, 2, 2.5)
        idle = state.idle_on_cores()
        assert 2 not in idle
        assert len(idle) == 7

    def test_validate_detects_overspeed(self, state):
        state.place(0, 2, 3.9)
        fmax = np.full(16, 3.0)
        with pytest.raises(AssertionError, match="safe frequency"):
            state.validate(fmax)
