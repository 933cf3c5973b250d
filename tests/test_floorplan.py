"""Floorplan geometry and adjacency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan import CoreGeometry, Floorplan, paper_floorplan


class TestCoreGeometry:
    def test_paper_dimensions(self):
        core = CoreGeometry()
        assert core.width_mm == pytest.approx(1.70)
        assert core.height_mm == pytest.approx(1.75)
        assert core.area_mm2 == pytest.approx(2.975)

    def test_area_m2(self):
        assert CoreGeometry(1.0, 1.0).area_m2 == pytest.approx(1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CoreGeometry(width_mm=0.0)


class TestFloorplanBasics:
    def test_paper_floorplan_is_8x8(self):
        fp = paper_floorplan()
        assert (fp.rows, fp.cols, fp.num_cores) == (8, 8, 64)

    def test_die_dimensions(self):
        fp = paper_floorplan()
        assert fp.die_width_mm == pytest.approx(8 * 1.70)
        assert fp.die_height_mm == pytest.approx(8 * 1.75)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Floorplan(0, 4)

    def test_index_position_roundtrip(self):
        fp = Floorplan(3, 5)
        for i in range(fp.num_cores):
            row, col = fp.position(i)
            assert fp.index(row, col) == i

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            Floorplan(2, 2).position(4)


class TestNeighbors:
    def test_corner_has_two(self):
        fp = Floorplan(4, 4)
        assert len(fp.neighbors(0)) == 2

    def test_edge_has_three(self):
        fp = Floorplan(4, 4)
        assert len(fp.neighbors(1)) == 3

    def test_interior_has_four(self):
        fp = Floorplan(4, 4)
        assert len(fp.neighbors(5)) == 4

    def test_neighbors_symmetric(self):
        fp = Floorplan(3, 4)
        for i in range(fp.num_cores):
            for j in fp.neighbors(i):
                assert i in fp.neighbors(j)

    def test_edge_count(self):
        # A rows x cols mesh has rows*(cols-1) + cols*(rows-1) edges.
        fp = Floorplan(3, 4)
        assert len(list(fp.iter_edges())) == 3 * 3 + 4 * 2


class TestGeometry:
    def test_centers_shape_and_spacing(self):
        fp = paper_floorplan()
        centers = fp.centers_mm
        assert centers.shape == (64, 2)
        # Horizontal neighbors are exactly one core width apart.
        assert centers[1, 0] - centers[0, 0] == pytest.approx(1.70)
        assert centers[8, 1] - centers[0, 1] == pytest.approx(1.75)

    def test_distance_matrix_properties(self):
        fp = Floorplan(3, 3)
        dist = fp.distance_matrix_mm
        np.testing.assert_allclose(np.diag(dist), 0.0)
        np.testing.assert_allclose(dist, dist.T)
        assert (dist[~np.eye(9, dtype=bool)] > 0).all()

    def test_manhattan_distance(self):
        fp = Floorplan(4, 4)
        assert fp.manhattan_distance(0, 15) == 6
        assert fp.manhattan_distance(5, 5) == 0

    def test_to_grid_roundtrip(self):
        fp = Floorplan(2, 3)
        values = np.arange(6, dtype=float)
        grid = fp.to_grid(values)
        assert grid.shape == (2, 3)
        assert grid[1, 2] == 5.0

    def test_to_grid_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Floorplan(2, 3).to_grid(np.zeros(5))


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6))
def test_property_neighbor_counts(rows, cols):
    """Every core has 2-4 neighbors except degenerate 1-wide meshes."""
    fp = Floorplan(rows, cols)
    for i in range(fp.num_cores):
        neighbors = fp.neighbors(i)
        assert len(neighbors) <= 4
        assert len(set(neighbors)) == len(neighbors)
        assert all(fp.manhattan_distance(i, j) == 1 for j in neighbors)
