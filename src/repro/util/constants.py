"""Physical constants and unit conversions used throughout the library.

The paper mixes Celsius (DTM thresholds, Fig. 1b temperatures) and Kelvin
(Eq. 7's ``exp(-1500/T)`` term, the thermal-voltage ``V_T = kT/q`` of
Eq. 2).  Internally the library works in Kelvin everywhere; these helpers
are the only sanctioned conversion points.
"""

from __future__ import annotations

import numpy as np

#: Boltzmann constant over elementary charge, in volts per kelvin.
#: ``V_T = BOLTZMANN_EV * T`` is the thermal voltage of Eq. 2.
BOLTZMANN_EV = 8.617333262e-5

#: Additive offset between Celsius and Kelvin scales.
CELSIUS_OFFSET = 273.15

#: Ambient temperature assumed by the thermal model (45 C, a typical
#: in-chassis ambient for the mobile-class parts the paper targets).
AMBIENT_KELVIN = 45.0 + CELSIUS_OFFSET

#: Thermally safe peak temperature: 95 C "as adopted in Intel mobile i5"
#: (paper, Section V).
T_SAFE_KELVIN = 95.0 + CELSIUS_OFFSET

#: DTM migration target headroom: threads migrate to cores that are below
#: ``Tsafe - 10 C`` (paper, Section V).
DTM_HEADROOM_KELVIN = 10.0


def kelvin_to_celsius(temp_k):
    """Convert Kelvin to Celsius (scalar or array)."""
    if isinstance(temp_k, np.ndarray):
        return temp_k.astype(float) - CELSIUS_OFFSET
    return float(temp_k) - CELSIUS_OFFSET


def thermal_voltage(temp_k):
    """Thermal voltage ``V_T = kT/q`` in volts (Eq. 2 of the paper).

    At room temperature this is the familiar ~25.9 mV.
    """
    if isinstance(temp_k, np.ndarray):
        return BOLTZMANN_EV * temp_k.astype(float)
    return BOLTZMANN_EV * float(temp_k)


#: Seconds in one Julian year; used to convert epoch lengths to the
#: "age in years" variable ``y`` of Eq. 7.
SECONDS_PER_YEAR = 365.25 * 24.0 * 3600.0
