"""Reference phase-trace draws, lookups and fmin jitter.

These are the loops ``repro.workload`` ran before it drew through bare
generator calls: every phase is ``Generator.exponential(scale)`` and then
``Generator.uniform(mean - jitter, mean + jitter)``, every lookup is a
``searchsorted`` over boundary arrays, and every spawned thread's fmin
jitter is ``Generator.uniform(-jitter, jitter)``.
``tests/test_trace_reference.py`` holds :class:`~repro.workload.traces.
PhaseTrace`, :func:`~repro.workload.traces.sample_levels` and
:meth:`~repro.workload.application.Application.spawn` to these bit for
bit, generator state included.
"""

from __future__ import annotations

import bisect

import numpy as np


class ReferencePhaseTrace:
    """The draw-by-draw trace, with the same public surface.

    ``clamped`` counts phases whose drawn length fell below the minimum
    phase, so a fuzz can show it exercised the clamp.
    """

    _MIN_PHASE_S = 1e-3

    def __init__(self, mean_activity, activity_jitter, phase_length_s, rng):
        self.mean_activity = float(mean_activity)
        self.activity_jitter = float(activity_jitter)
        self.phase_length_s = float(phase_length_s)
        self._rng = rng
        self._boundaries = [0.0]
        self._levels: list[float] = []
        self.clamped = 0
        self._extend_to(0.0)

    def _draw_level(self) -> float:
        if self.activity_jitter == 0.0:
            return self.mean_activity
        return float(
            self._rng.uniform(
                self.mean_activity - self.activity_jitter,
                self.mean_activity + self.activity_jitter,
            )
        )

    def _extend_to(self, time_s: float) -> None:
        if self._boundaries[-1] > time_s:
            return
        while self._boundaries[-1] <= time_s:
            drawn = float(self._rng.exponential(self.phase_length_s))
            if drawn < self._MIN_PHASE_S:
                self.clamped += 1
            duration = max(self._MIN_PHASE_S, drawn)
            self._boundaries.append(self._boundaries[-1] + duration)
            self._levels.append(self._draw_level())

    def extend_to(self, time_s: float) -> None:
        if time_s < 0:
            raise ValueError("time must be non-negative")
        self._extend_to(time_s)

    @property
    def horizon_s(self) -> float:
        return self._boundaries[-1]

    @property
    def phase_count(self) -> int:
        return len(self._levels)

    @property
    def generator(self) -> np.random.Generator:
        return self._rng

    def truncate_phases(self, count: int) -> None:
        del self._levels[count:]
        del self._boundaries[count + 1 :]

    def levels_at(self, times_s) -> np.ndarray:
        times_s = np.asarray(times_s, dtype=float)
        if times_s.size and float(times_s[-1]) >= self._boundaries[-1]:
            raise ValueError("levels_at requires the trace to be extended first")
        bounds = np.asarray(self._boundaries)
        levels = np.asarray(self._levels)
        return levels[np.searchsorted(bounds, times_s, side="right") - 1]

    def activity_at(self, time_s: float) -> float:
        if time_s < 0:
            raise ValueError("time must be non-negative")
        self._extend_to(time_s)
        return self._levels[bisect.bisect_right(self._boundaries, time_s) - 1]


def reference_spawn(profile, num_threads, rng):
    """``Application.spawn``'s draws: ``(fmins, traces)`` per thread, in
    the order the threads consume the shared generator."""
    fmins = []
    traces = []
    for _ in range(num_threads):
        fmin = profile.fmin_ghz + float(
            rng.uniform(-profile.fmin_jitter_ghz, profile.fmin_jitter_ghz)
        )
        traces.append(
            ReferencePhaseTrace(
                profile.mean_activity,
                profile.activity_jitter,
                profile.phase_length_s,
                rng,
            )
        )
        fmins.append(max(0.1, fmin))
    return fmins, traces
