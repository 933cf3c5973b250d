"""VAA internals: hill climbing and region scoring."""

import numpy as np
import pytest

from repro.baselines.vaa import VAAManager, _climb
from repro.floorplan import Floorplan
from repro.noc import MeshTopology


class TestClimb:
    def test_reaches_local_maximum(self):
        fp = Floorplan(4, 4)
        score = np.arange(16, dtype=float)  # monotone: max at core 15
        assert _climb(fp, score, start=0) == 15

    def test_stays_at_peak(self):
        fp = Floorplan(4, 4)
        score = np.zeros(16)
        score[5] = 10.0
        assert _climb(fp, score, start=5) == 5

    def test_stops_at_local_not_global(self):
        fp = Floorplan(4, 4)
        score = np.zeros(16)
        score[0] = 5.0  # local peak at the corner
        score[15] = 10.0  # global peak far away
        assert _climb(fp, score, start=1) == 0


class TestHopMatrix:
    def test_matches_manhattan(self):
        fp = Floorplan(3, 4)
        hops = MeshTopology(fp).hop_matrix
        for a in range(fp.num_cores):
            for b in range(fp.num_cores):
                assert hops[a, b] == fp.manhattan_distance(a, b)

    def test_symmetric_zero_diagonal(self):
        fp = Floorplan(4, 4)
        hops = MeshTopology(fp).hop_matrix
        np.testing.assert_array_equal(hops, hops.T)
        np.testing.assert_array_equal(np.diag(hops), 0)


class TestFirstNode:
    def test_prefers_dense_feasible_region(self, chip, floorplan):
        """The first node lands where many free, fast-enough cores
        cluster."""
        manager = VAAManager(neighborhood_radius=2)
        hops = MeshTopology(floorplan).hop_matrix
        free = np.ones(64, dtype=bool)
        free[:32] = False  # left half occupied
        fmax = chip.fmax_init_ghz
        fmins = np.full(8, 2.0)
        center = manager._first_node(floorplan, hops, free, fmax, fmins)
        assert free[center]
        assert center >= 32

    def test_raises_without_free_cores(self, chip, floorplan):
        manager = VAAManager()
        hops = MeshTopology(floorplan).hop_matrix
        with pytest.raises(RuntimeError, match="no free cores"):
            manager._first_node(
                floorplan,
                hops,
                np.zeros(64, dtype=bool),
                chip.fmax_init_ghz,
                np.full(4, 2.0),
            )
