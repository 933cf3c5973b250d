"""Shared-factor silicon against the per-chip reference path.

``generate_population`` factors the design's covariance once and draws
every die over that factor; ``tests/silicon_reference.py`` keeps the
per-chip path it replaced.  The silicon must match it byte for byte, and
the factor build must stay within a few covariances of memory.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from repro.floorplan import paper_floorplan
from repro.util.rng import SeedSequenceFactory
from repro.variation import Chip, VariationParams, correlation, generate_population
from repro.variation.chip import _grid_point_coordinates
from repro.variation.correlation import build_covariance, correlated_field_factor

from tests.silicon_reference import (
    reference_covariance,
    reference_factor,
    reference_population,
)

SEEDS = (0, 42, 2015)
SIZES = (1, 3, 8, 25)


@functools.lru_cache(maxsize=None)
def _reference(seed: int) -> tuple[Chip, ...]:
    return tuple(reference_population(max(SIZES), seed))


@functools.lru_cache(maxsize=None)
def _paper_points() -> np.ndarray:
    params = VariationParams()
    return _grid_point_coordinates(paper_floorplan(), params.grid_per_core)


def _assert_same_silicon(chip: Chip, ref: Chip) -> None:
    assert chip.chip_id == ref.chip_id
    for name in ("theta", "critical_path_pattern", "fmax_init_ghz", "leakage_scale"):
        got, want = getattr(chip, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_population_matches_per_chip_reference(seed, size):
    pop = generate_population(size, seed=seed)
    assert len(pop) == size
    for chip, ref in zip(pop, _reference(seed)[:size]):
        _assert_same_silicon(chip, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_chip_unchanged_when_more_chips_requested(seed):
    pops = [generate_population(size, seed=seed) for size in SIZES]
    for small, large in zip(pops, pops[1:]):
        for index in range(len(small)):
            _assert_same_silicon(large[index], small[index])


def test_chip_sample_matches_reference():
    floorplan, params = paper_floorplan(), VariationParams()
    ref = reference_population(1, 7)[0]
    factory = SeedSequenceFactory(7)
    chip = Chip.sample(
        floorplan,
        params,
        factory.rng("chip", 0),
        design_rng=factory.rng("design"),
        chip_id="chip-00",
    )
    _assert_same_silicon(chip, ref)


def test_covariance_matches_broadcast_form():
    params = VariationParams()
    points = _paper_points()
    cov = build_covariance(points, params.sigma, params.correlation_length_mm)
    ref = reference_covariance(points, params.sigma, params.correlation_length_mm)
    assert cov.tobytes() == ref.tobytes()
    # Off-grid points exercise distances the regular grid does not.
    scattered = np.random.default_rng(3).uniform(0.0, 9.0, (50, 2))
    assert (
        build_covariance(scattered, 0.07, 2.5).tobytes()
        == reference_covariance(scattered, 0.07, 2.5).tobytes()
    )


def test_factor_matches_reference():
    params = VariationParams()
    points = _paper_points()
    factor = correlated_field_factor(
        points, params.sigma, params.correlation_length_mm
    )
    ref = reference_factor(points, params.sigma, params.correlation_length_mm)
    assert factor.flags.f_contiguous == ref.flags.f_contiguous
    np.testing.assert_array_equal(factor, ref)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_factor_build_memory_bound():
    """The paper-grid factor peaks under three ``(P, P)`` float buffers;
    the broadcast form's ``(P, P, 2)`` difference tensor would push the
    peak past this bound."""
    params = VariationParams()
    points = _paper_points()
    num_points = points.shape[0]
    assert num_points == 1024
    factor, peak = _traced_peak(
        lambda: correlated_field_factor(
            points, params.sigma, params.correlation_length_mm
        )
    )
    assert factor.shape == (num_points, num_points)
    assert peak < 3 * num_points**2 * 8, peak


def test_jitter_and_factorization_allocate_no_matrix(monkeypatch):
    """Past the covariance build, the jitter and the factorization work
    in the covariance's own buffer: a ``jitter * eye(P)`` matrix or a
    copy taken by the factorization would each allocate another
    ``(P, P)`` buffer."""
    params = VariationParams()
    points = _paper_points()
    num_points = points.shape[0]
    cov = build_covariance(points, params.sigma, params.correlation_length_mm)
    monkeypatch.setattr(correlation, "build_covariance", lambda *args: cov)
    factor, peak = _traced_peak(
        lambda: correlated_field_factor(
            points, params.sigma, params.correlation_length_mm
        )
    )
    assert peak < num_points**2 * 8 // 4, peak
    assert np.shares_memory(factor, cov)
