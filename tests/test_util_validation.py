"""Argument validation helpers."""

import numpy as np
import pytest

from repro.util.validation import (
    check_fraction,
    check_index,
    check_nonnegative,
    check_positive,
    check_probability_array,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -0.1)


class TestCheckFraction:
    def test_inclusive_bounds(self):
        assert check_fraction("f", 0.0) == 0.0
        assert check_fraction("f", 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_fraction("f", 0.0, inclusive=False)
        with pytest.raises(ValueError):
            check_fraction("f", 1.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_fraction("f", 1.2)


class TestCheckProbabilityArray:
    def test_accepts_valid(self):
        arr = check_probability_array("p", np.array([0.0, 0.5, 1.0]))
        assert arr.shape == (3,)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability_array("p", np.array([0.5, 1.1]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_probability_array("p", np.array([np.nan]))


class TestCheckIndex:
    def test_accepts_in_range(self):
        assert check_index("i", 3, 5) == 3

    @pytest.mark.parametrize("bad", [-1, 5, 100])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            check_index("i", bad, 5)
