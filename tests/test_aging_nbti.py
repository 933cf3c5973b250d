"""Eq. 7 NBTI model: shape and monotonicity."""

import numpy as np
import pytest

from repro.aging import NBTIModel


@pytest.fixture(scope="module")
def model():
    return NBTIModel()


class TestDeltaVth:
    def test_zero_age_no_shift(self, model):
        assert model.delta_vth(358.0, 0.0, 0.5) == 0.0

    def test_zero_duty_no_shift(self, model):
        assert model.delta_vth(358.0, 10.0, 0.0) == 0.0

    def test_monotone_in_temperature(self, model):
        temps = np.linspace(300.0, 420.0, 20)
        shifts = model.delta_vth(temps, 10.0, 0.5)
        assert (np.diff(shifts) > 0).all()

    def test_monotone_in_age(self, model):
        years = np.linspace(0.5, 15.0, 20)
        shifts = model.delta_vth(358.0, years, 0.5)
        assert (np.diff(shifts) > 0).all()

    def test_monotone_in_duty(self, model):
        duties = np.linspace(0.05, 1.0, 20)
        shifts = model.delta_vth(358.0, 10.0, duties)
        assert (np.diff(shifts) > 0).all()

    def test_sixth_root_time_envelope(self, model):
        """Doubling the age multiplies the shift by 2^(1/6)."""
        one = model.delta_vth(358.0, 1.0, 0.5)
        two = model.delta_vth(358.0, 2.0, 0.5)
        assert two / one == pytest.approx(2 ** (1 / 6))

    def test_vdd_fourth_power(self):
        low = NBTIModel(vdd=1.0).delta_vth(358.0, 10.0, 0.5)
        high = NBTIModel(vdd=1.2).delta_vth(358.0, 10.0, 0.5)
        assert high / low == pytest.approx(1.2**4)

    def test_ten_to_fifteen_celsius_rule(self, model):
        """Section I: 10-15 C can make a large MTTF difference; our model
        shows a clearly super-linear stress increase across that band."""
        base = model.delta_vth(358.0, 10.0, 0.5)
        hotter = model.delta_vth(358.0 + 12.5, 10.0, 0.5)
        assert hotter / base > 1.1

    def test_rejects_negative_age(self, model):
        with pytest.raises(ValueError):
            model.delta_vth(358.0, -1.0, 0.5)

    def test_rejects_duty_out_of_range(self, model):
        with pytest.raises(ValueError):
            model.delta_vth(358.0, 1.0, 1.5)

    def test_rejects_nonpositive_temperature(self, model):
        with pytest.raises(ValueError):
            model.delta_vth(0.0, 1.0, 0.5)
