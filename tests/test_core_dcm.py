"""Dark core map policies."""

import numpy as np
import pytest

from repro.core import contiguous_dcm, temperature_optimized_dcm, variation_aware_dcm
from repro.core.dcm import select_reserved
from repro.power import PowerModel
from repro.thermal import ThermalRCNetwork


@pytest.fixture(scope="module")
def influence(floorplan):
    return ThermalRCNetwork(floorplan).influence_matrix()


class TestContiguous:
    def test_size(self, floorplan):
        dcm = contiguous_dcm(floorplan, 32)
        assert dcm.num_on == 32

    def test_block_shape(self, floorplan):
        """Row-major fill: the first rows are fully on."""
        dcm = contiguous_dcm(floorplan, 16)
        np.testing.assert_array_equal(dcm.on_indices(), np.arange(16))

    def test_rejects_zero(self, floorplan):
        with pytest.raises(ValueError):
            contiguous_dcm(floorplan, 0)


class TestTemperatureOptimized:
    def test_size(self, floorplan, influence):
        dcm = temperature_optimized_dcm(floorplan, 32, influence)
        assert dcm.num_on == 32

    def test_spreads_over_die(self, floorplan, influence):
        """The on-set must span the die, not pack a corner: mean
        pairwise distance well above the contiguous map's."""
        spread = temperature_optimized_dcm(floorplan, 16, influence)
        dense = contiguous_dcm(floorplan, 16)

        def mean_dist(dcm):
            idx = dcm.on_indices()
            d = floorplan.distance_matrix_mm[np.ix_(idx, idx)]
            return d.sum() / (len(idx) * (len(idx) - 1))

        assert mean_dist(spread) > 1.15 * mean_dist(dense)

    def test_cooler_than_contiguous(self, floorplan, influence, chip):
        """The whole point: lower peak temperature at equal power."""
        net = ThermalRCNetwork(floorplan)
        spread = temperature_optimized_dcm(floorplan, 32, influence)
        dense = contiguous_dcm(floorplan, 32)
        power = 4.0
        for dcm_a, dcm_b in [(spread, dense)]:
            p_a = np.where(dcm_a.powered_on, power, 0.0)
            p_b = np.where(dcm_b.powered_on, power, 0.0)
            assert net.steady_state(p_a).max() < net.steady_state(p_b).max()

    def test_deterministic(self, floorplan, influence):
        a = temperature_optimized_dcm(floorplan, 24, influence)
        b = temperature_optimized_dcm(floorplan, 24, influence)
        np.testing.assert_array_equal(a.powered_on, b.powered_on)

    def test_rejects_bad_influence_shape(self, floorplan):
        with pytest.raises(ValueError):
            temperature_optimized_dcm(floorplan, 8, np.eye(3))


class TestSelectReserved:
    def test_reserves_fastest(self):
        fmax = np.array([2.0, 3.6, 2.5, 3.5, 3.0, 2.2, 2.1, 2.05, 2.3, 2.4])
        reserved = select_reserved(fmax, num_on=4, reserve_fraction=0.2)
        assert set(reserved) == {1, 3}

    def test_never_blocks_budget(self):
        fmax = np.linspace(2.0, 3.6, 10)
        reserved = select_reserved(fmax, num_on=9, reserve_fraction=0.5)
        assert len(reserved) <= 1

    def test_zero_when_budget_consumes_all(self):
        fmax = np.linspace(2.0, 3.6, 10)
        assert select_reserved(fmax, num_on=10).size == 0


class TestVariationAware:
    def test_size_and_coverage(self, floorplan, influence, chip):
        fmax = chip.fmax_init_ghz
        required = np.full(32, 2.4)
        dcm, _ = variation_aware_dcm(floorplan, 32, influence, fmax, required)
        assert dcm.num_on == 32
        selected = np.sort(fmax[dcm.on_indices()])[::-1]
        assert (selected[:32] >= 2.4).sum() >= (fmax >= 2.4).sum() - 32 or (
            selected >= 2.4
        ).all() or (fmax >= 2.4).sum() < 32

    def test_keeps_fastest_cores_dark(self, floorplan, influence, chip):
        fmax = chip.fmax_init_ghz
        required = np.full(32, 2.0)  # easy requirements
        dcm, _ = variation_aware_dcm(floorplan, 32, influence, fmax, required)
        top = np.argsort(fmax)[::-1][:3]
        assert not dcm.powered_on[top].any()

    def test_stable_across_small_health_noise(self, floorplan, influence, chip):
        """The selected set must not churn when health wiggles by a
        quantization step — rotation is expensive under y^(1/6)."""
        fmax = chip.fmax_init_ghz
        required = np.full(32, 2.2)
        h1 = np.ones(64)
        h2 = np.ones(64) - 0.005 * (np.arange(64) % 2)
        dcm1, _ = variation_aware_dcm(
            floorplan, 32, influence, fmax, required, health=h1
        )
        dcm2, _ = variation_aware_dcm(
            floorplan, 32, influence, fmax * (1 - 0.002), required, health=h2
        )
        overlap = (dcm1.powered_on & dcm2.powered_on).sum()
        assert overlap >= 30

    def test_wear_leveling_hysteresis(self, floorplan, influence, chip):
        """A large health gap retires the most-worn selected core."""
        fmax = chip.fmax_init_ghz
        required = np.full(32, 2.0)
        base, _ = variation_aware_dcm(floorplan, 32, influence, fmax, required)
        health = np.ones(64)
        worn = base.on_indices()[0]
        health[worn] = 0.78  # far beyond the hysteresis threshold
        dcm, _ = variation_aware_dcm(
            floorplan, 32, influence, fmax, required, health=health
        )
        assert not dcm.powered_on[worn]

    def test_rejects_empty_requirements(self, floorplan, influence, chip):
        with pytest.raises(ValueError):
            variation_aware_dcm(
                floorplan, 32, influence, chip.fmax_init_ghz, np.array([])
            )
