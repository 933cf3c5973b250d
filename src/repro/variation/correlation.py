"""Sampling spatially-correlated Gaussian random fields.

The variation model of [25, 26] associates a Gaussian process parameter
with each point of a grid overlaid on the die, with correlation that
decays with distance.  We build the full covariance matrix for the grid
and sample via a Cholesky factor; for the paper's 8x8 chip with a 4x4
grid per core this is a 1024-point field, well within one-shot Cholesky
territory.

The grid, its covariance and the covariance's Cholesky factor depend
only on the design, not on the die: :func:`correlated_field_factor`
computes the factor once, and every die of a population is one draw
:func:`draw_correlated_field` over it.  The covariance is built in place
in one ``(P, P)`` buffer, which the factorization then overwrites, so a
factor costs one covariance of memory rather than the ``(P, P, 2)``
difference tensor plus copies.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from repro.util.validation import check_positive


def exponential_correlation(distances_mm: np.ndarray, length_mm: float) -> np.ndarray:
    """Exponential spatial correlation ``rho(d) = exp(-d / L)``.

    This is the standard isotropic decaying-correlation form used for
    within-die Vth variation; at ``d = 0`` the correlation is exactly 1.
    """
    check_positive("length_mm", length_mm)
    distances_mm = np.asarray(distances_mm, dtype=float)
    if (distances_mm < 0).any():
        raise ValueError("distances must be non-negative")
    return np.exp(-distances_mm / length_mm)


def build_covariance(
    points_mm: np.ndarray, sigma: float, length_mm: float
) -> np.ndarray:
    """Covariance matrix for grid points at ``points_mm`` ((P, 2) array).

    ``sigma**2 * exp(-|p_i - p_j| / length_mm)``, built in place in one
    ``(P, P)`` buffer: the per-axis differences are squared and summed,
    then each step of :func:`exponential_correlation` runs in place.  The
    result is bit-identical to the broadcast ``(P, P, 2)`` form.
    """
    check_positive("sigma", sigma)
    points_mm = np.asarray(points_mm, dtype=float)
    if points_mm.ndim != 2 or points_mm.shape[1] != 2:
        raise ValueError(f"points_mm must be (P, 2), got {points_mm.shape}")
    check_positive("length_mm", length_mm)
    x, y = points_mm[:, 0], points_mm[:, 1]
    cov = np.subtract.outer(x, x)
    cov *= cov
    dy = np.subtract.outer(y, y)
    dy *= dy
    cov += dy
    np.sqrt(cov, out=cov)
    np.negative(cov, out=cov)
    cov /= length_mm
    np.exp(cov, out=cov)
    cov *= sigma**2
    return cov


def correlated_field_factor(
    points_mm: np.ndarray, sigma: float, length_mm: float
) -> np.ndarray:
    """Lower Cholesky factor of the field's covariance, ``(P, P)``.

    A small diagonal jitter (``1e-10 * sigma**2``) keeps the factorization
    stable when grid points are much closer together than the correlation
    length (near-singular covariance).  The factorization overwrites the
    covariance buffer; the factor is Fortran-ordered, as LAPACK returns it.
    """
    cov = build_covariance(points_mm, sigma, length_mm)
    cov.flat[:: cov.shape[0] + 1] += 1e-10 * sigma**2
    # The covariance is exactly symmetric, so its transpose is the same
    # matrix in the Fortran order LAPACK factors in place.
    return linalg.cholesky(cov.T, lower=True, overwrite_a=True)


def draw_correlated_field(
    factor: np.ndarray, mean: float, rng: np.random.Generator
) -> np.ndarray:
    """One realization ``mean + factor @ z`` with ``z`` standard normal."""
    return mean + factor @ rng.standard_normal(factor.shape[0])
