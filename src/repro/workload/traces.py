"""Per-thread phase traces: piecewise-constant activity over time.

Stands in for playing back gem5+McPAT power traces: a thread's switching
activity holds for one phase, then jumps to a new level.  Phase lengths
are exponentially distributed around the profile's mean, activity levels
uniform within the profile's jitter band.  Traces are generated lazily
but deterministically (the entire trace is a pure function of the
generator seed), so replaying a simulation reproduces every phase
boundary exactly.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.util.validation import check_nonnegative, check_positive


class PhaseTrace:
    """A deterministic piecewise-constant activity signal.

    Parameters
    ----------
    mean_activity, activity_jitter:
        Activity is uniform in ``[mean - jitter, mean + jitter]``.
    phase_length_s:
        Mean (exponential) phase duration.
    rng:
        Source of phase boundaries and levels; consumed incrementally as
        the trace is extended.
    """

    _MIN_PHASE_S = 1e-3

    def __init__(
        self,
        mean_activity: float,
        activity_jitter: float,
        phase_length_s: float,
        rng: np.random.Generator,
    ):
        check_positive("phase_length_s", phase_length_s)
        check_nonnegative("activity_jitter", activity_jitter)
        if not 0.0 <= mean_activity - activity_jitter:
            raise ValueError("activity band extends below 0")
        if mean_activity + activity_jitter > 1.0:
            raise ValueError("activity band extends above 1")
        self.mean_activity = float(mean_activity)
        self.activity_jitter = float(activity_jitter)
        self.phase_length_s = float(phase_length_s)
        # The level band as ``Generator.uniform(lo, hi)`` forms it.
        self._lo = self.mean_activity - self.activity_jitter
        self._span = (self.mean_activity + self.activity_jitter) - self._lo
        self._rng = rng
        self._boundaries = [0.0]  # cumulative phase end times
        self._levels: list[float] = []
        self._extend_to(0.0)

    def _extend_to(self, time_s: float) -> None:
        boundaries = self._boundaries
        boundary = boundaries[-1]
        if boundary > time_s:
            return
        # Bare draws: ``scale * standard_exponential()`` and
        # ``lo + span * random()`` are the IEEE ops ``Generator.
        # exponential(scale)`` and ``Generator.uniform(lo, hi)`` run in
        # C, consuming the stream identically.  A zero-jitter trace
        # draws no level at all.
        rng = self._rng
        min_phase, scale = self._MIN_PHASE_S, self.phase_length_s
        jitter = self.activity_jitter != 0.0
        mean, lo, span = self.mean_activity, self._lo, self._span
        levels = self._levels
        while boundary <= time_s:
            boundary += max(min_phase, scale * rng.standard_exponential())
            boundaries.append(boundary)
            levels.append(lo + span * rng.random() if jitter else mean)

    def extend_to(self, time_s: float) -> None:
        """Materialize phases up to and beyond ``time_s``.

        Public hook for the window engine: traces of one application
        share an RNG, so a compiler that samples several sibling traces
        must first extend them in the exact order the per-step loop
        would have (ascending core per step) to keep the shared stream
        bit-identical.  Extending past an already-covered time is a
        no-op and consumes no randomness.
        """
        if time_s < 0:
            raise ValueError("time must be non-negative")
        self._extend_to(time_s)

    @property
    def horizon_s(self) -> float:
        """Last materialized phase boundary (trace is defined below it)."""
        return self._boundaries[-1]

    @property
    def phase_count(self) -> int:
        """Number of materialized phases (rollback mark for consumers
        that may need to unwind speculative extensions)."""
        return len(self._levels)

    def truncate_phases(self, count: int) -> None:
        """Discard phases beyond the first ``count``.

        Rollback hook for the window engine: a compiler that extended
        sibling traces speculatively (and then restored their shared
        generator's state) truncates back to the marks it took, so the
        exact same phases can be redrawn in a different order.  The
        kept phases are untouched.
        """
        if not 0 <= count <= len(self._levels):
            raise ValueError("count must not exceed the materialized phases")
        if count == len(self._levels):
            return
        del self._levels[count:]
        del self._boundaries[count + 1 :]

    @property
    def generator(self) -> np.random.Generator:
        """The RNG this trace draws from (shared across an application's
        traces; consumers ordering extensions group traces by it)."""
        return self._rng

    def levels_at(self, times_s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`activity_at` over an ascending time array
        (:func:`sample_levels` for this one trace)."""
        return sample_levels([self], times_s)[:, 0]

    def activity_at(self, time_s: float) -> float:
        """Activity level at absolute time ``time_s`` (>= 0)."""
        if time_s < 0:
            raise ValueError("time must be non-negative")
        self._extend_to(time_s)
        # bisect_right == searchsorted(side="right") on the same floats,
        # without converting the boundary list to an array per call —
        # this runs per mapped core per control step.
        index = bisect.bisect_right(self._boundaries, time_s) - 1
        return self._levels[index]

    def mean_over(self, start_s: float, end_s: float) -> float:
        """Time-weighted mean activity over ``[start, end)``."""
        if end_s <= start_s:
            raise ValueError("end must exceed start")
        self._extend_to(end_s)
        bounds = np.asarray(self._boundaries)
        levels = np.asarray(self._levels)
        starts = np.clip(bounds[:-1], start_s, end_s)
        ends = np.clip(bounds[1:], start_s, end_s)
        weights = ends - starts
        total = weights.sum()
        if total <= 0:
            return self.activity_at(start_s)
        return float((levels * weights).sum() / total)


def sample_levels(traces: list[PhaseTrace], times_s: np.ndarray) -> np.ndarray:
    """Every trace's activity level at every time, ``(steps, traces)``.

    ``times_s`` is ascending and every time must already be covered
    (callers extend first via :meth:`PhaseTrace.extend_to` in shared-RNG
    order).  Each trace contributes its boundaries from the phase
    holding ``times_s[0]`` on to one flat array; a level's index is the
    count of boundaries ``<= t`` (``np.add.reduceat`` over comparisons,
    no arithmetic on times), which is ``bisect_right`` on the same
    floats, so the result equals :meth:`PhaseTrace.activity_at` exactly.
    """
    times_s = np.asarray(times_s, dtype=float)
    if not times_s.size or not traces:
        return np.empty((times_s.size, len(traces)))
    first_time = float(times_s[0])
    last_time = float(times_s[-1])  # ascending: the maximum
    bounds: list[float] = []
    levels: list[float] = []
    starts: list[int] = []
    bases: list[int] = []
    for trace in traces:
        trace_bounds = trace._boundaries
        if last_time >= trace_bounds[-1]:
            raise ValueError("sample_levels requires the traces to be extended first")
        # Phase holding the first time: its start boundary is counted by
        # every time, so each trace's slice is non-empty (reduceat sums
        # an empty slice to an element, not 0) and a count of c picks
        # the slice's c-th level.
        first = bisect.bisect_right(trace_bounds, first_time) - 1
        starts.append(len(bounds))
        bases.append(len(levels) - 1)
        bounds += trace_bounds[first:]
        levels += trace._levels[first:]
    counts = np.add.reduceat(
        times_s[:, None] >= np.array(bounds), starts, axis=1, dtype=np.intp
    )
    return np.array(levels)[counts + np.array(bases)]
