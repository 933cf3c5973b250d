"""Shared utilities: physical constants, seeded RNG streams, validation.

These helpers keep the rest of the library free of magic numbers and of
ad-hoc ``numpy.random`` usage.  Every stochastic component in :mod:`repro`
draws from a :class:`SeedSequenceFactory` stream so whole experiment
campaigns are reproducible from a single integer seed.
"""

from repro.util.constants import (
    BOLTZMANN_EV,
    CELSIUS_OFFSET,
    kelvin_to_celsius,
    thermal_voltage,
)
from repro.util.rng import SeedSequenceFactory
from repro.util.validation import (
    check_fraction,
    check_positive,
    check_probability_array,
)

__all__ = [
    "BOLTZMANN_EV",
    "CELSIUS_OFFSET",
    "SeedSequenceFactory",
    "check_fraction",
    "check_positive",
    "check_probability_array",
    "kelvin_to_celsius",
    "thermal_voltage",
]
