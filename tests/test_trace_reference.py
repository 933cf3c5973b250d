"""Phase-trace draws and lookups against the draw-by-draw reference.

:class:`~repro.workload.traces.PhaseTrace` draws a phase as
``scale * standard_exponential()`` and ``lo + span * random()``, and
``Application.spawn`` draws fmin jitter the same way: the IEEE ops
``Generator.exponential`` and ``Generator.uniform`` perform in C.
:func:`~repro.workload.traces.sample_levels` finds levels by counting
boundaries.  Over seeded fuzzes these must equal
``tests/trace_reference.py`` bit for bit: boundaries, levels, fmins and
the generator state a run leaves behind.
"""

import numpy as np
import pytest

from repro.workload import Application, PARSEC_PROFILES, WorkloadProfile
from repro.workload.traces import PhaseTrace, sample_levels
from tests.trace_reference import ReferencePhaseTrace, reference_spawn

SEEDS = range(240)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def assert_same_traces(fast, ref):
    for trace, trace_r in zip(fast, ref):
        np.testing.assert_array_equal(bits(trace._boundaries), bits(trace_r._boundaries))
        np.testing.assert_array_equal(bits(trace._levels), bits(trace_r._levels))


def sibling_params(rng):
    """1-3 traces' ``(mean, jitter, phase)``; a quarter jitter-free."""
    params = []
    for _ in range(int(rng.integers(1, 4))):
        jitter = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 0.3))
        mean = float(rng.uniform(jitter, 1.0 - jitter))
        params.append((mean, jitter, float(rng.uniform(0.5, 10.0))))
    return params


def sibling_pair(seed):
    """The same sibling traces twice, each set on its own generator of
    ``seed`` (siblings share it, as one application's threads do)."""
    params = sibling_params(np.random.default_rng(10_000 + seed))
    rng, rng_r = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = [PhaseTrace(*p, rng) for p in params]
    ref = [ReferencePhaseTrace(*p, rng_r) for p in params]
    return fast, ref, rng, rng_r


class TestDraws:
    def test_interleaved_extension_with_rewinds(self):
        """Random interleavings of extensions, lookups and speculative
        extend/rewind/replay sequences leave both sides identical."""
        clamped = rewinds = jitter_free = 0
        for seed in SEEDS:
            fast, ref, rng, rng_r = sibling_pair(seed)
            ops = np.random.default_rng(20_000 + seed)
            clock = 0.0
            for _ in range(12):
                clock += float(ops.exponential(20.0))
                if ops.random() < 0.3:
                    # Speculate far ahead, rewind, then replay a prefix
                    # in the opposite sibling order.
                    marks = [t.phase_count for t in fast]
                    marks_r = [t.phase_count for t in ref]
                    state, state_r = rng.bit_generator.state, rng_r.bit_generator.state
                    for trace, trace_r in zip(fast, ref):
                        trace.extend_to(clock * 2)
                        trace_r.extend_to(clock * 2)
                    rng.bit_generator.state = state
                    rng_r.bit_generator.state = state_r
                    for trace, mark in zip(fast, marks):
                        trace.truncate_phases(mark)
                    for trace_r, mark in zip(ref, marks_r):
                        trace_r.truncate_phases(mark)
                    rewinds += 1
                    for trace, trace_r in zip(fast[::-1], ref[::-1]):
                        trace.extend_to(clock)
                        trace_r.extend_to(clock)
                else:
                    i = int(ops.integers(len(fast)))
                    t = float(ops.uniform(0.0, clock))
                    assert bits(fast[i].activity_at(t)) == bits(ref[i].activity_at(t))
            assert_same_traces(fast, ref)
            assert rng.bit_generator.state == rng_r.bit_generator.state
            clamped += sum(t.clamped for t in ref)
            jitter_free += sum(t.activity_jitter == 0.0 for t in ref)
        # The fuzz reached the minimum-phase clamp, jitter-free traces
        # (which draw no level) and the rewind protocol.
        assert clamped > 0 and rewinds > 0 and jitter_free > 0

    def test_spawn_matches_reference(self):
        """fmin jitter and traces of spawned threads, in spawn's draw
        order, over PARSEC profiles and a jitter-free one."""
        profiles = list(PARSEC_PROFILES.values()) + [
            WorkloadProfile(
                "flat", 0.5, 0.0, 0.5, 0.8, 2.0, 0.0, min_threads=1, max_threads=8, ipc=1.0
            )
        ]
        for seed in SEEDS:
            profile = profiles[seed % len(profiles)]
            count = profile.min_threads + seed % 4
            rng, rng_r = np.random.default_rng(seed), np.random.default_rng(seed)
            app = Application.spawn(profile, count, rng)
            fmins, traces = reference_spawn(profile, count, rng_r)
            np.testing.assert_array_equal(
                bits([t.fmin_ghz for t in app.threads]), bits(fmins)
            )
            assert_same_traces([t.trace for t in app.threads], traces)
            assert rng.bit_generator.state == rng_r.bit_generator.state


class TestSampleLevels:
    @staticmethod
    def grid(traces, rng):
        """Ascending times below every horizon: random points, every
        covered boundary exactly, and a start that is not always 0."""
        horizon = min(t.horizon_s for t in traces)
        edges = [b for t in traces for b in t._boundaries if b < horizon]
        times = np.unique(np.concatenate([rng.uniform(0.0, horizon, 40), edges]))
        return times[int(rng.integers(0, len(times) // 2)) :]

    def test_matches_searchsorted(self):
        for seed in SEEDS:
            fast, ref, _, _ = sibling_pair(seed)
            end = float(np.random.default_rng(seed).uniform(5.0, 60.0))
            for trace, trace_r in zip(fast, ref):
                trace.extend_to(end)
                trace_r.extend_to(end)
            times = self.grid(fast, np.random.default_rng(30_000 + seed))
            expected = np.stack([t.levels_at(times) for t in ref], axis=1)
            np.testing.assert_array_equal(
                bits(sample_levels(fast, times)), bits(expected)
            )
            np.testing.assert_array_equal(
                bits(fast[0].levels_at(times)), bits(expected[:, 0])
            )

    def test_requires_extension(self):
        fast, _, _, _ = sibling_pair(0)
        horizon = min(t.horizon_s for t in fast)
        with pytest.raises(ValueError, match="extended"):
            sample_levels(fast, np.array([0.0, horizon]))
        with pytest.raises(ValueError, match="extended"):
            fast[0].levels_at(np.array([fast[0].horizon_s]))

    def test_empty_inputs(self):
        fast, _, _, _ = sibling_pair(1)
        assert sample_levels(fast, np.array([])).shape == (0, len(fast))
        assert sample_levels([], np.array([0.0, 1.0])).shape == (2, 0)


class TestValidation:
    @pytest.mark.parametrize("jitter", [-0.1, float("nan"), float("inf")])
    def test_trace_rejects_bad_jitter(self, jitter):
        with pytest.raises(ValueError, match="activity_jitter"):
            PhaseTrace(0.5, jitter, 2.0, np.random.default_rng(0))

    @pytest.mark.parametrize("field", ["fmin_jitter_ghz", "comm_intensity"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
    def test_profile_rejects_non_finite(self, field, value):
        base = PARSEC_PROFILES["x264"]
        with pytest.raises(ValueError, match=field):
            WorkloadProfile(**{**base.__dict__, field: value})
