"""Spatially-correlated field sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.variation.correlation import (
    build_covariance,
    correlated_field_factor,
    draw_correlated_field,
    exponential_correlation,
)


def sample_field(points_mm, mean, sigma, length_mm, rng):
    """One field drawn the way a chip draws its parameter map."""
    factor = correlated_field_factor(points_mm, sigma, length_mm)
    return draw_correlated_field(factor, mean, rng)


class TestExponentialCorrelation:
    def test_unity_at_zero(self):
        assert exponential_correlation(np.array(0.0), 4.0) == pytest.approx(1.0)

    def test_decays_with_distance(self):
        d = np.array([0.0, 1.0, 2.0, 8.0])
        rho = exponential_correlation(d, 4.0)
        assert (np.diff(rho) < 0).all()

    def test_e_folding(self):
        assert exponential_correlation(np.array(4.0), 4.0) == pytest.approx(
            np.exp(-1)
        )

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            exponential_correlation(np.array([-1.0]), 4.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            exponential_correlation(np.array([1.0]), 0.0)


class TestBuildCovariance:
    def test_diagonal_is_variance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        cov = build_covariance(pts, sigma=0.1, length_mm=4.0)
        np.testing.assert_allclose(np.diag(cov), 0.01)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, size=(20, 2))
        cov = build_covariance(pts, 0.08, 3.0)
        np.testing.assert_allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-12

    def test_rejects_bad_points_shape(self):
        with pytest.raises(ValueError):
            build_covariance(np.zeros((3, 3)), 0.1, 1.0)


class TestSampleField:
    def test_deterministic_for_seed(self):
        pts = np.random.default_rng(1).uniform(0, 5, (10, 2))
        a = sample_field(pts, 1.0, 0.1, 4.0, np.random.default_rng(5))
        b = sample_field(pts, 1.0, 0.1, 4.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_mean_and_std_statistics(self):
        # Average over many independent fields: each point's marginal is
        # N(mean, sigma).
        pts = np.array([[0.0, 0.0], [50.0, 0.0]])  # nearly independent
        rng = np.random.default_rng(3)
        samples = np.array(
            [sample_field(pts, 1.0, 0.1, 2.0, rng) for _ in range(4000)]
        )
        assert samples.mean() == pytest.approx(1.0, abs=0.01)
        assert samples.std() == pytest.approx(0.1, abs=0.01)

    def test_nearby_points_strongly_correlated(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [40.0, 0.0]])
        rng = np.random.default_rng(4)
        samples = np.array(
            [sample_field(pts, 1.0, 0.1, 4.0, rng) for _ in range(2000)]
        )
        corr = np.corrcoef(samples.T)
        assert corr[0, 1] > 0.95  # 0.1 mm apart, 4 mm correlation length
        assert abs(corr[0, 2]) < 0.2  # 40 mm apart


@settings(max_examples=20, deadline=None)
@given(
    sigma=st.floats(0.01, 0.3),
    length=st.floats(0.5, 10.0),
    seed=st.integers(0, 2**31),
)
def test_property_sample_finite_and_shaped(sigma, length, seed):
    pts = np.random.default_rng(0).uniform(0, 8, (12, 2))
    field = sample_field(
        pts, 1.0, sigma, length, np.random.default_rng(seed)
    )
    assert field.shape == (12,)
    assert np.isfinite(field).all()
