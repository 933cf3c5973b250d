"""Named workload profiles shaped after the Parsec benchmark suite.

Each profile captures the *statistical* behaviour a run-time manager
observes: how hot the threads run (switching activity), how variable the
phases are, how demanding the throughput constraint is (minimum
frequency), and how far the application scales (malleability bounds).
Values are representative of published Parsec characterizations; the
reproduction's results depend on the diversity across profiles rather
than on any single value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_fraction, check_nonnegative, check_positive


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one multi-threaded application.

    Parameters
    ----------
    name:
        Benchmark name, e.g. ``"bodytrack"``.
    mean_activity:
        Average switching-activity factor of a thread (drives dynamic
        power).
    activity_jitter:
        Half-range of per-phase activity variation around the mean.
    phase_length_s:
        Mean length of an execution phase (activity is piecewise
        constant over phases).
    duty_cycle:
        PMOS stress duty cycle of a busy thread — fraction of time the
        core computes rather than stalls (feeds Eq. 7's ``d``).
    fmin_ghz:
        Minimum frequency meeting the thread's throughput/deadline
        constraint (``f_tau,min`` of the application model).
    fmin_jitter_ghz:
        Half-range of per-thread fmin variation (load imbalance between
        threads of one application).
    min_threads, max_threads:
        Malleability bounds on the thread count ``K_j``.
    ipc:
        Nominal instructions-per-cycle of a thread (used to report IPS).
    comm_intensity:
        Relative inter-thread communication rate within the application
        (GB/s per thread pair at nominal frequency).  Drives the NoC
        cost of a mapping: pipeline-parallel benchmarks (dedup, ferret,
        x264) communicate heavily, data-parallel ones barely.
    """

    name: str
    mean_activity: float
    activity_jitter: float
    phase_length_s: float
    duty_cycle: float
    fmin_ghz: float
    fmin_jitter_ghz: float
    min_threads: int
    max_threads: int
    ipc: float
    comm_intensity: float = 0.1

    def __post_init__(self) -> None:
        check_fraction("mean_activity", self.mean_activity)
        check_fraction("activity_jitter", self.activity_jitter)
        check_positive("phase_length_s", self.phase_length_s)
        check_fraction("duty_cycle", self.duty_cycle)
        check_positive("fmin_ghz", self.fmin_ghz)
        check_nonnegative("fmin_jitter_ghz", self.fmin_jitter_ghz)
        if not 1 <= self.min_threads <= self.max_threads:
            raise ValueError("need 1 <= min_threads <= max_threads")
        check_positive("ipc", self.ipc)
        check_nonnegative("comm_intensity", self.comm_intensity)
        lo = self.mean_activity - self.activity_jitter
        hi = self.mean_activity + self.activity_jitter
        if lo < 0.0 or hi > 1.0:
            raise ValueError("activity jitter leaves the [0, 1] range")


#: The profile set used throughout the evaluation.  ``bodytrack`` and
#: ``x264`` head the list because the paper's Fig. 2 setup names them
#: ("bodytrackhigh", "x264 with 5 HD-sequences"); the rest broaden the
#: mix space the campaigns draw from.
PARSEC_PROFILES: dict[str, WorkloadProfile] = {
    p.name: p
    for p in [
        WorkloadProfile(
            "bodytrack",
            mean_activity=0.70,
            activity_jitter=0.15,
            phase_length_s=4.0,
            duty_cycle=0.80,
            fmin_ghz=2.4,
            fmin_jitter_ghz=0.25,
            min_threads=2,
            max_threads=32,
            ipc=1.4,
            comm_intensity=0.15,
        ),
        WorkloadProfile(
            "x264",
            mean_activity=0.80,
            activity_jitter=0.18,
            phase_length_s=2.0,
            duty_cycle=0.90,
            fmin_ghz=2.6,
            fmin_jitter_ghz=0.30,
            min_threads=2,
            max_threads=32,
            ipc=1.7,
            comm_intensity=0.35,
        ),
        WorkloadProfile(
            "streamcluster",
            mean_activity=0.50,
            activity_jitter=0.10,
            phase_length_s=6.0,
            duty_cycle=0.60,
            fmin_ghz=1.8,
            fmin_jitter_ghz=0.15,
            min_threads=2,
            max_threads=48,
            ipc=0.9,
            comm_intensity=0.25,
        ),
        WorkloadProfile(
            "blackscholes",
            mean_activity=0.60,
            activity_jitter=0.08,
            phase_length_s=8.0,
            duty_cycle=0.70,
            fmin_ghz=1.5,
            fmin_jitter_ghz=0.10,
            min_threads=1,
            max_threads=48,
            ipc=1.2,
            comm_intensity=0.02,
        ),
        WorkloadProfile(
            "swaptions",
            mean_activity=0.65,
            activity_jitter=0.05,
            phase_length_s=10.0,
            duty_cycle=0.85,
            fmin_ghz=2.0,
            fmin_jitter_ghz=0.10,
            min_threads=1,
            max_threads=48,
            ipc=1.5,
            comm_intensity=0.02,
        ),
        WorkloadProfile(
            "canneal",
            mean_activity=0.45,
            activity_jitter=0.12,
            phase_length_s=5.0,
            duty_cycle=0.50,
            fmin_ghz=1.4,
            fmin_jitter_ghz=0.20,
            min_threads=2,
            max_threads=24,
            ipc=0.6,
            comm_intensity=0.3,
        ),
        WorkloadProfile(
            "dedup",
            mean_activity=0.55,
            activity_jitter=0.20,
            phase_length_s=3.0,
            duty_cycle=0.65,
            fmin_ghz=2.2,
            fmin_jitter_ghz=0.25,
            min_threads=3,
            max_threads=24,
            ipc=1.1,
            comm_intensity=0.45,
        ),
        WorkloadProfile(
            "ferret",
            mean_activity=0.68,
            activity_jitter=0.14,
            phase_length_s=2.5,
            duty_cycle=0.75,
            fmin_ghz=2.3,
            fmin_jitter_ghz=0.20,
            min_threads=4,
            max_threads=24,
            ipc=1.3,
            comm_intensity=0.4,
        ),
    ]
}


def profile(name: str) -> WorkloadProfile:
    """Look up a profile by benchmark name."""
    try:
        return PARSEC_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PARSEC_PROFILES))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
