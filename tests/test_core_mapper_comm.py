"""Communication-aware mapping extension."""

import numpy as np
import pytest

from repro.core import HayatMapper, OnlineHealthEstimator
from repro.core.dcm import temperature_optimized_dcm
from repro.mapping import ChipState
from repro.noc import MeshTopology
from repro.power import PowerModel
from repro.thermal import ThermalPredictor, ThermalRCNetwork
from repro.workload import make_mix


@pytest.fixture(scope="module")
def setup(chip, floorplan, aging_table):
    net = ThermalRCNetwork(floorplan)
    pm = PowerModel.for_chip(chip)
    estimator = OnlineHealthEstimator(ThermalPredictor.learn(net, pm), aging_table)
    mesh = MeshTopology(floorplan)
    return estimator, net.influence_matrix(), mesh


def run_mapping(chip, floorplan, estimator, influence, mesh, comm_weight):
    mix = make_mix(["dedup", "ferret"], 16, np.random.default_rng(4))
    dcm = temperature_optimized_dcm(floorplan, 16, influence)
    state = ChipState(64, mix.threads, dcm)
    mapper = HayatMapper(
        estimator,
        comm_weight=comm_weight,
        hop_matrix=mesh.hop_matrix if comm_weight > 0 else None,
    )
    mapper.map_threads(state, chip.fmax_init_ghz, np.ones(64), 0.5, 0.0)
    return state


def app_dispersion(state, mesh):
    """Mean intra-application hop distance of a mapping."""
    from collections import defaultdict

    by_app = defaultdict(list)
    for core in np.flatnonzero(state.assignment >= 0):
        by_app[state.threads[state.assignment[core]].app_name].append(core)
    total, pairs = 0.0, 0
    for cores in by_app.values():
        for i, a in enumerate(cores):
            for b in cores[i + 1 :]:
                total += mesh.hop_matrix[a, b]
                pairs += 1
    return total / pairs if pairs else 0.0


class TestCommAwareMapping:
    def test_weight_zero_matches_default(self, setup, chip, floorplan):
        estimator, influence, mesh = setup
        a = run_mapping(chip, floorplan, estimator, influence, mesh, 0.0)
        mix = make_mix(["dedup", "ferret"], 16, np.random.default_rng(4))
        dcm = temperature_optimized_dcm(floorplan, 16, influence)
        b = ChipState(64, mix.threads, dcm)
        HayatMapper(estimator).map_threads(
            b, chip.fmax_init_ghz, np.ones(64), 0.5, 0.0
        )
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_positive_weight_tightens_applications(self, setup, chip, floorplan):
        estimator, influence, mesh = setup
        loose = run_mapping(chip, floorplan, estimator, influence, mesh, 0.0)
        tight = run_mapping(chip, floorplan, estimator, influence, mesh, 6.0)
        assert app_dispersion(tight, mesh) < app_dispersion(loose, mesh)

    def test_constraints_still_respected(self, setup, chip, floorplan):
        estimator, influence, mesh = setup
        state = run_mapping(chip, floorplan, estimator, influence, mesh, 6.0)
        state.validate(chip.fmax_init_ghz)
        assert (state.assignment >= 0).sum() == 16

    def test_weight_requires_hop_matrix(self, setup):
        estimator, _, _ = setup
        with pytest.raises(ValueError, match="hop_matrix"):
            HayatMapper(estimator, comm_weight=1.0)

    def test_negative_weight_rejected(self, setup):
        estimator, _, mesh = setup
        with pytest.raises(ValueError):
            HayatMapper(estimator, comm_weight=-1.0, hop_matrix=mesh.hop_matrix)
