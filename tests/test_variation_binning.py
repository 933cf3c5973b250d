"""Speed binning of chip populations."""

import numpy as np
import pytest

from repro.variation import generate_population
from repro.variation.binning import bin_population, chip_grade_ghz


@pytest.fixture(scope="module")
def pop():
    return generate_population(20, seed=7)


class TestGrading:
    def test_median_grade_between_extremes(self, pop):
        grades = chip_grade_ghz(pop)
        fmax = pop.fmax_matrix_ghz()
        assert (grades >= fmax.min(axis=1)).all()
        assert (grades <= fmax.max(axis=1)).all()

    def test_best_core_grading(self, pop):
        grades = chip_grade_ghz(pop, percentile=100.0)
        np.testing.assert_allclose(grades, pop.fmax_matrix_ghz().max(axis=1))

    def test_rejects_bad_percentile(self, pop):
        with pytest.raises(ValueError):
            chip_grade_ghz(pop, percentile=120.0)


class TestBinning:
    def test_every_chip_assigned_once(self, pop):
        bins = bin_population(pop, [2.8, 3.0, 3.2])
        assigned = [i for b in bins for i in b.chip_indices]
        assert sorted(assigned) == list(range(len(pop)))

    def test_highest_eligible_bin_wins(self, pop):
        bins = bin_population(pop, [2.8, 3.0])
        grades = chip_grade_ghz(pop)
        for b in bins:
            for chip_index in b.chip_indices:
                if b.label != "reject":
                    assert grades[chip_index] >= b.floor_ghz
        top = next(b for b in bins if b.floor_ghz == 3.0)
        for chip_index in top.chip_indices:
            assert grades[chip_index] >= 3.0

    def test_bins_ordered_highest_first(self, pop):
        bins = bin_population(pop, [2.8, 3.0, 3.2])
        floors = [b.floor_ghz for b in bins]
        assert floors == sorted(floors, reverse=True)
        assert bins[-1].label == "reject"

    def test_rejects_unsorted_floors(self, pop):
        with pytest.raises(ValueError):
            bin_population(pop, [3.0, 2.8])
