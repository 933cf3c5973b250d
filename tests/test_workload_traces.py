"""Phase traces: determinism and statistics."""

import numpy as np
import pytest

from repro.workload import PhaseTrace


def make_trace(seed=0, mean=0.6, jitter=0.2, phase=2.0):
    return PhaseTrace(mean, jitter, phase, np.random.default_rng(seed))


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = make_trace(5)
        b = make_trace(5)
        times = np.linspace(0, 100, 57)
        assert [a.activity_at(t) for t in times] == [b.activity_at(t) for t in times]

    def test_query_order_does_not_matter(self):
        a = make_trace(5)
        b = make_trace(5)
        forward = [a.activity_at(t) for t in (1.0, 50.0, 99.0)]
        backward = [b.activity_at(t) for t in (99.0, 50.0, 1.0)]
        assert forward == backward[::-1]


class TestValues:
    def test_within_band(self):
        trace = make_trace(1, mean=0.6, jitter=0.2)
        values = [trace.activity_at(t) for t in np.linspace(0, 200, 400)]
        assert min(values) >= 0.4
        assert max(values) <= 0.8

    def test_piecewise_constant(self):
        trace = make_trace(2, phase=10.0)
        # Two queries within a microsecond land in the same phase.
        assert trace.activity_at(1.0) == trace.activity_at(1.000001)

    def test_phases_change(self):
        trace = make_trace(3, jitter=0.2, phase=1.0)
        values = {trace.activity_at(t) for t in np.linspace(0, 100, 200)}
        assert len(values) > 10

    def test_zero_jitter_is_constant(self):
        trace = PhaseTrace(0.5, 0.0, 1.0, np.random.default_rng(0))
        values = {trace.activity_at(t) for t in np.linspace(0, 50, 100)}
        assert values == {0.5}

    def test_long_run_mean(self):
        trace = make_trace(4, mean=0.6, jitter=0.2, phase=1.0)
        times = np.arange(0.0, 2000.0, 0.25)
        trace.extend_to(times[-1])
        levels = trace.levels_at(times)
        assert levels.mean() == pytest.approx(0.6, abs=0.03)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            make_trace().activity_at(-1.0)


class TestValidation:
    def test_rejects_band_overflow(self):
        with pytest.raises(ValueError):
            PhaseTrace(0.95, 0.1, 1.0, np.random.default_rng(0))

    def test_rejects_nonpositive_phase(self):
        with pytest.raises(ValueError):
            PhaseTrace(0.5, 0.1, 0.0, np.random.default_rng(0))
