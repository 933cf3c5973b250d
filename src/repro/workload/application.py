"""Malleable applications and their thread specifications.

An :class:`Application` owns ``K`` threads (``K`` chosen within the
profile's malleability bounds when the mix is sized to the available
cores).  Each :class:`ThreadSpec` carries the static requirements the
mapper consumes — minimum frequency, duty cycle — plus its activity
trace for the fine-grained simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workload.profiles import WorkloadProfile
from repro.workload.traces import PhaseTrace


@dataclass
class ThreadSpec:
    """One thread: requirements plus its activity trace.

    ``fmin_ghz`` is the thread's throughput constraint; a mapping is
    feasible only on cores whose current safe frequency meets it.
    ``ips_at(freq)`` reports throughput in instructions per second.
    """

    app_name: str
    thread_index: int
    fmin_ghz: float
    duty_cycle: float
    ipc: float
    trace: PhaseTrace = field(repr=False)

    @property
    def thread_id(self) -> str:
        """Globally readable identifier, e.g. ``"x264/3"``."""
        return f"{self.app_name}/{self.thread_index}"

    @property
    def mean_activity(self) -> float:
        """Long-run mean switching activity (what a manager predicts
        from the application's offline profile)."""
        return self.trace.mean_activity

    def activity_at(self, time_s: float) -> float:
        """Current switching activity (delegates to the trace)."""
        return self.trace.activity_at(time_s)

    def ips_at(self, freq_ghz: float) -> float:
        """Instructions per second when running at ``freq_ghz``."""
        if freq_ghz < 0:
            raise ValueError("frequency must be non-negative")
        return self.ipc * freq_ghz * 1e9


@dataclass
class Application:
    """One malleable multi-threaded application instance."""

    profile: WorkloadProfile
    threads: list[ThreadSpec]
    instance: int = 0

    @property
    def name(self) -> str:
        """Readable instance name, e.g. ``"bodytrack#1"``."""
        return f"{self.profile.name}#{self.instance}"

    @property
    def num_threads(self) -> int:
        """Current degree of parallelism ``K_j``."""
        return len(self.threads)

    @classmethod
    def spawn(
        cls,
        profile: WorkloadProfile,
        num_threads: int,
        rng: np.random.Generator,
        instance: int = 0,
    ) -> "Application":
        """Create an application with ``num_threads`` threads.

        Raises ``ValueError`` when the requested parallelism violates
        the profile's malleability bounds.
        """
        if not profile.min_threads <= num_threads <= profile.max_threads:
            raise ValueError(
                f"{profile.name} supports {profile.min_threads}.."
                f"{profile.max_threads} threads, requested {num_threads}"
            )
        threads = []
        # ``rng.uniform(lo, hi)``'s own IEEE ops on a bare ``random()``
        # draw (see PhaseTrace): bit-equal, at a fraction of the cost.
        jitter_lo = -profile.fmin_jitter_ghz
        jitter_span = profile.fmin_jitter_ghz - jitter_lo
        for index in range(num_threads):
            fmin = profile.fmin_ghz + (jitter_lo + jitter_span * rng.random())
            trace = PhaseTrace(
                profile.mean_activity,
                profile.activity_jitter,
                profile.phase_length_s,
                rng,
            )
            threads.append(
                ThreadSpec(
                    app_name=f"{profile.name}#{instance}",
                    thread_index=index,
                    fmin_ghz=max(0.1, fmin),
                    duty_cycle=profile.duty_cycle,
                    ipc=profile.ipc,
                    trace=trace,
                )
            )
        return cls(profile=profile, threads=threads, instance=instance)
