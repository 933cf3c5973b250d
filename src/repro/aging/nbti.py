"""The long-term NBTI threshold-shift model (Eq. 7 of the paper).

    dVth = A * exp(-1500 / T) * Vdd^4 * y^(1/6) * d^(1/6)

with ``T`` in kelvin, ``Vdd`` in volts, ``y`` the age in years and ``d``
the PMOS stress duty cycle.  The form follows reaction-diffusion theory
(Alam & Mahapatra): the ``y^(1/6)`` envelope already accounts for partial
recovery, so this is the *long-term* aging of Fig. 1(a).

Calibration note: the paper prints ``A = 0.05``, which with these units
yields millivolt-scale shifts after 10 years — three orders below the
paper's own Fig. 1(b) (1.4x delay at 140 C) and its >= 50 mV / >= 20 %
guardband narrative, so the printed coefficient is evidently scaled for
different units.  We keep the functional form exactly and set ``A`` so
the model reproduces Fig. 1(b): with ``A = 3.4`` the 10-year delay
increase at 25/75/100/140 C comes out at ~1.08/1.18/1.25/1.41x (see
``benchmarks/test_fig1b_temperature_aging.py``).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

#: Calibrated prefactor reproducing the paper's Fig. 1(b); see module doc.
CALIBRATED_PREFACTOR = 3.4

#: Activation constant of Eq. 7 (kelvin).
ACTIVATION_K = 1500.0

#: Time exponent of the reaction-diffusion long-term envelope.
TIME_EXPONENT = 1.0 / 6.0

#: Duty-cycle exponent of Eq. 7.
DUTY_EXPONENT = 1.0 / 6.0


class NBTIModel:
    """Evaluates Eq. 7 and its exact inverse in the age variable.

    Parameters
    ----------
    prefactor:
        The constant ``A`` (see module docstring for calibration).
    vdd:
        Supply voltage in volts (fixed chip-wide in the paper's setup).
    """

    def __init__(self, prefactor: float = CALIBRATED_PREFACTOR, vdd: float = 1.13):
        self.prefactor = check_positive("prefactor", prefactor)
        self.vdd = check_positive("vdd", vdd)

    def _stress_rate(self, temp_k):
        """The (T, Vdd)-dependent factor multiplying ``(y*d)^(1/6)``."""
        temp_k = np.asarray(temp_k, dtype=float)
        if (temp_k <= 0).any():
            raise ValueError("temperature must be positive kelvin")
        return self.prefactor * np.exp(-ACTIVATION_K / temp_k) * self.vdd**4

    def delta_vth(self, temp_k, years, duty):
        """Mean Vth shift in volts (broadcasts over array inputs).

        Zero duty (a never-stressed device) or zero age yields exactly
        zero shift.
        """
        years = np.asarray(years, dtype=float)
        duty = np.asarray(duty, dtype=float)
        if (years < 0).any():
            raise ValueError("age must be non-negative")
        if (duty < 0).any() or (duty > 1).any():
            raise ValueError("duty cycle must lie in [0, 1]")
        shift = (
            self._stress_rate(temp_k)
            * years**TIME_EXPONENT
            * duty**DUTY_EXPONENT
        )
        return float(shift) if np.ndim(shift) == 0 else shift
