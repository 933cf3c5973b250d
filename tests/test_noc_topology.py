"""Mesh topology and XY routing."""

import numpy as np
import pytest

from repro.floorplan import Floorplan
from repro.noc import MeshTopology


@pytest.fixture(scope="module")
def mesh():
    return MeshTopology(Floorplan(4, 4))


class TestStructure:
    def test_link_count(self, mesh):
        # 4x4 mesh: 2 * (4*3 + 4*3) directed links.
        assert mesh.num_links == 48

    def test_links_are_neighbor_pairs(self, mesh):
        fp = mesh.floorplan
        for a, b in mesh.links:
            assert fp.manhattan_distance(a, b) == 1

    def test_hop_matrix_matches_manhattan(self, mesh):
        fp = mesh.floorplan
        for a in range(16):
            for b in range(16):
                assert mesh.hop_matrix[a, b] == fp.manhattan_distance(a, b)

    def test_hop_matrix_is_read_only(self, mesh):
        """VAA, the NoC metrics and Hayat's communication term share
        one matrix per topology; a write must fail, not leak."""
        hops = mesh.hop_matrix
        assert hops is mesh.hop_matrix
        with pytest.raises(ValueError):
            hops[0, 1] = 7
        assert hops[0, 1] == 1


class TestRouting:
    def test_route_length_is_hop_count(self, mesh):
        for src in range(16):
            for dst in range(16):
                assert len(mesh.route(src, dst)) == mesh.hop_count(src, dst)

    def test_self_route_empty(self, mesh):
        assert mesh.route(5, 5) == []

    def test_x_before_y(self, mesh):
        """XY routing corrects the column first."""
        fp = mesh.floorplan
        src = fp.index(0, 0)
        dst = fp.index(2, 2)
        links = [mesh.links[i] for i in mesh.route(src, dst)]
        first_leg = links[: 2]
        # The first two hops stay in row 0 (column correction).
        for a, b in first_leg:
            assert fp.position(a)[0] == 0 and fp.position(b)[0] == 0

    def test_route_is_connected(self, mesh):
        links = [mesh.links[i] for i in mesh.route(0, 15)]
        for (a, b), (c, d) in zip(links, links[1:]):
            assert b == c
        assert links[0][0] == 0 and links[-1][1] == 15


class TestLinkLoads:
    def test_single_flow(self, mesh):
        traffic = np.zeros((16, 16))
        traffic[0, 3] = 2.0  # 3 hops along row 0
        loads = mesh.link_loads(traffic)
        assert loads.sum() == pytest.approx(6.0)
        assert (loads > 0).sum() == 3

    def test_diagonal_ignored(self, mesh):
        traffic = np.eye(16)
        loads = mesh.link_loads(traffic)
        assert loads.sum() == 0.0

    def test_superposition(self, mesh):
        rng = np.random.default_rng(0)
        t1 = rng.uniform(0, 1, (16, 16))
        t2 = rng.uniform(0, 1, (16, 16))
        np.testing.assert_allclose(
            mesh.link_loads(t1 + t2),
            mesh.link_loads(t1) + mesh.link_loads(t2),
            rtol=1e-12,
        )

    def test_rejects_negative_traffic(self, mesh):
        traffic = np.zeros((16, 16))
        traffic[0, 1] = -1.0
        with pytest.raises(ValueError):
            mesh.link_loads(traffic)

    def test_rejects_wrong_shape(self, mesh):
        with pytest.raises(ValueError):
            mesh.link_loads(np.zeros((4, 4)))
