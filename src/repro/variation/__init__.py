"""Process variation: correlated Vth maps, per-core frequency and leakage.

Implements the experimentally-validated model the paper deploys (Xiong,
Zolotov, He [25] as used by Cherry-picking [26]): the die is overlaid with
an ``Nchip x Nchip`` grid of Gaussian process parameters with spatial
correlation; per-core maximum frequency follows Eq. 1 (the slowest grid
point on the critical path limits the core) and leakage follows the
exponential Vth dependence of Eq. 2.
"""

from repro.variation.params import VariationParams
from repro.variation.correlation import (
    build_covariance,
    exponential_correlation,
)
from repro.variation.chip import Chip
from repro.variation.population import ChipPopulation, generate_population

__all__ = [
    "Chip",
    "ChipPopulation",
    "VariationParams",
    "build_covariance",
    "exponential_correlation",
    "generate_population",
]
