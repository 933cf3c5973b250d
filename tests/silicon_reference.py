"""Reference per-chip silicon sampling.

This is how ``Chip.sample`` and ``generate_population`` manufactured a
die before the design's covariance factor was shared by its population:
every chip builds the grid's covariance from the broadcast ``(P, P, 2)``
difference tensor, adds ``jitter * eye(P)`` and factors a copy, then
draws its field, clips it at 4 sigma and re-draws the design's
critical-path pattern.  ``tests/test_variation_silicon.py`` holds the
library to it bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from repro.floorplan import Floorplan, paper_floorplan
from repro.util.rng import SeedSequenceFactory
from repro.variation import Chip, VariationParams
from repro.variation.chip import _critical_path_pattern, _grid_point_coordinates


def reference_covariance(
    points_mm: np.ndarray, sigma: float, length_mm: float
) -> np.ndarray:
    """The covariance from the broadcast ``(P, P, 2)`` differences."""
    deltas = points_mm[:, None, :] - points_mm[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=2))
    return sigma**2 * np.exp(-distances / length_mm)


def reference_factor(
    points_mm: np.ndarray, sigma: float, length_mm: float
) -> np.ndarray:
    """Lower Cholesky factor of the covariance plus ``jitter * eye``."""
    cov = reference_covariance(points_mm, sigma, length_mm)
    jitter = 1e-10 * sigma**2
    return linalg.cholesky(cov + jitter * np.eye(cov.shape[0]), lower=True)


def reference_chip(
    floorplan: Floorplan,
    params: VariationParams,
    rng: np.random.Generator,
    design_rng: np.random.Generator,
    chip_id: str,
) -> Chip:
    """One die, paying for its own covariance and factorization."""
    points = _grid_point_coordinates(floorplan, params.grid_per_core)
    chol = reference_factor(points, params.sigma, params.correlation_length_mm)
    theta = params.mean + chol @ rng.standard_normal(chol.shape[0])
    theta = np.clip(
        theta, params.mean - 4 * params.sigma, params.mean + 4 * params.sigma
    )
    pattern = _critical_path_pattern(
        params.grid_per_core, params.critical_path_points, design_rng
    )
    return Chip(floorplan, params, theta, pattern, chip_id=chip_id)


def reference_population(num_chips: int, seed: int) -> list[Chip]:
    """``generate_population(num_chips, seed)`` on the paper design, chip by chip."""
    floorplan = paper_floorplan()
    params = VariationParams()
    factory = SeedSequenceFactory(seed)
    return [
        reference_chip(
            floorplan,
            params,
            factory.rng("chip", index),
            factory.rng("design"),
            f"chip-{index:02d}",
        )
        for index in range(num_chips)
    ]
