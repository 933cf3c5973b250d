"""Unit conversions and physical constants."""

import numpy as np
import pytest

from repro.util.constants import (
    AMBIENT_KELVIN,
    CELSIUS_OFFSET,
    SECONDS_PER_YEAR,
    T_SAFE_KELVIN,
    kelvin_to_celsius,
    thermal_voltage,
)


def test_array_input_returns_array():
    out = kelvin_to_celsius(np.array([273.15, 373.15]))
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, [0.0, 100.0])


def test_thermal_voltage_room_temperature():
    # kT/q at 300 K is the textbook ~25.9 mV.
    assert thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)


def test_thermal_voltage_scales_linearly():
    assert thermal_voltage(600.0) == pytest.approx(2 * thermal_voltage(300.0))


def test_paper_thresholds():
    # Tsafe is 95 C (Intel mobile i5 limit quoted in Section V).
    assert T_SAFE_KELVIN == pytest.approx(95.0 + CELSIUS_OFFSET)
    assert AMBIENT_KELVIN < T_SAFE_KELVIN


def test_seconds_per_year_magnitude():
    assert SECONDS_PER_YEAR == pytest.approx(3.156e7, rel=1e-3)
