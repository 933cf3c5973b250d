"""Alpha-power-law delay degradation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import alpha_power_delay_factor


class TestDelayFactor:
    def test_unity_at_zero_shift(self):
        assert alpha_power_delay_factor(0.0) == pytest.approx(1.0)

    def test_monotone_in_shift(self):
        shifts = np.linspace(0.0, 0.3, 20)
        factors = alpha_power_delay_factor(shifts)
        assert (np.diff(factors) > 0).all()

    def test_known_value(self):
        # 20 % overdrive loss with alpha=1 doubles nothing: factor =
        # (0.81/0.61)^1.0.
        out = alpha_power_delay_factor(0.2, vdd=1.13, vth_nominal=0.32, alpha=1.0)
        assert out == pytest.approx(0.81 / 0.61)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            alpha_power_delay_factor(-0.01)

    def test_rejects_overdrive_exhaustion(self):
        with pytest.raises(ValueError, match="overdrive"):
            alpha_power_delay_factor(0.81)

    def test_rejects_vdd_below_vth(self):
        with pytest.raises(ValueError):
            alpha_power_delay_factor(0.0, vdd=0.3, vth_nominal=0.32)


@settings(max_examples=40, deadline=None)
@given(
    shift=st.floats(0.0, 0.4),
    alpha=st.floats(1.0, 2.0),
)
def test_property_factor_at_least_one(shift, alpha):
    factor = alpha_power_delay_factor(shift, alpha=alpha)
    assert factor >= 1.0
