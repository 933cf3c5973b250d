"""Dark core maps and the mutable thread-to-core mapping state.

A :class:`DarkCoreMap` is the paper's DCM: the per-core power-state
vector ``ps_i`` with the invariant that the dark fraction meets the
platform's dark-silicon floor.  :class:`ChipState` combines a DCM with
the thread assignment and per-core operating frequencies, enforcing
Eq. 5 (one thread per core) and the power-state discipline (threads run
only on powered-on cores; threads run *at* their required frequency, not
faster — Section VI).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workload.application import ThreadSpec


@dataclass(frozen=True)
class DarkCoreMap:
    """An immutable power-state map (``True`` = powered on)."""

    powered_on: np.ndarray

    def __post_init__(self) -> None:
        on = np.asarray(self.powered_on, dtype=bool)
        if on.ndim != 1:
            raise ValueError("powered_on must be a 1-D boolean array")
        object.__setattr__(self, "powered_on", on)

    @property
    def num_cores(self) -> int:
        """Total core count."""
        return self.powered_on.shape[0]

    @property
    def num_on(self) -> int:
        """Powered-on core count (``N_on``)."""
        return int(self.powered_on.sum())

    def on_indices(self) -> np.ndarray:
        """Indices of powered-on cores."""
        return np.flatnonzero(self.powered_on)

    @classmethod
    def from_on_indices(cls, num_cores: int, on: np.ndarray) -> "DarkCoreMap":
        """Build a DCM from the list of powered-on core indices."""
        powered = np.zeros(num_cores, dtype=bool)
        powered[np.asarray(on, dtype=int)] = True
        return cls(powered)


class ChipState:
    """Mutable run-time state: DCM + assignment + frequencies.

    Parameters
    ----------
    num_cores:
        Core count of the chip.
    threads:
        The mix's threads; assignment indices refer into this list.
    dcm:
        Initial dark core map.
    """

    def __init__(
        self,
        num_cores: int,
        threads: list[ThreadSpec],
        dcm: DarkCoreMap,
    ):
        if dcm.num_cores != num_cores:
            raise ValueError("DCM size does not match core count")
        self.num_cores = int(num_cores)
        self.threads = list(threads)
        self._powered_on = dcm.powered_on.copy()
        self._assignment = np.full(num_cores, -1, dtype=int)  # thread index
        self._freq_ghz = np.zeros(num_cores)
        self._throttled = np.zeros(num_cores, dtype=bool)
        self._fenced = np.zeros(num_cores, dtype=bool)
        #: Thread -> core reverse map (-1 when unmapped); maintained by
        #: every mutation so :meth:`core_of_thread` is O(1) instead of a
        #: per-call scan of the assignment vector.
        self._thread_core = np.full(len(self.threads), -1, dtype=int)
        self._views: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def _readonly(self, name: str, backing: np.ndarray) -> np.ndarray:
        """A cached read-only alias of ``backing`` (shared storage).

        The alias always reflects the current state — it is the same
        buffer — but refuses writes, so hot paths can hand it out
        without the defensive copy the snapshot properties pay.
        """
        view = self._views.get(name)
        if view is None:
            view = backing.view()
            view.flags.writeable = False
            self._views[name] = view
        return view

    @property
    def powered_on(self) -> np.ndarray:
        """Per-core power state (copy)."""
        return self._powered_on.copy()

    @property
    def powered_view(self) -> np.ndarray:
        """Per-core power state (live read-only view, no allocation)."""
        return self._readonly("powered", self._powered_on)

    @property
    def assignment(self) -> np.ndarray:
        """Per-core thread index, -1 when idle (copy)."""
        return self._assignment.copy()

    @property
    def assignment_view(self) -> np.ndarray:
        """Per-core thread index (live read-only view, no allocation)."""
        return self._readonly("assignment", self._assignment)

    @property
    def freq_ghz(self) -> np.ndarray:
        """Per-core operating frequency (copy)."""
        return self._freq_ghz.copy()

    @property
    def freq_view(self) -> np.ndarray:
        """Per-core frequency (live read-only view, no allocation)."""
        return self._readonly("freq", self._freq_ghz)

    @property
    def throttled(self) -> np.ndarray:
        """Per-core throttle flags (copy)."""
        return self._throttled.copy()

    @property
    def throttled_view(self) -> np.ndarray:
        """Per-core throttle flags (live read-only view, no allocation)."""
        return self._readonly("throttled", self._throttled)

    @property
    def fenced(self) -> np.ndarray:
        """Per-core power-fence flags (copy).

        A fenced dark core is reserved by the manager (e.g. Hayat's
        health-preserved fast cores) and may not be woken by DTM.
        """
        return self._fenced.copy()

    @property
    def fenced_view(self) -> np.ndarray:
        """Per-core power-fence flags (live read-only view)."""
        return self._readonly("fenced", self._fenced)

    def fence(self, cores: np.ndarray) -> None:
        """Power-fence the given (dark) cores against DTM wake-up."""
        cores = np.asarray(cores, dtype=int)
        if cores.size and self._powered_on[cores].any():
            raise ValueError("only dark cores can be fenced")
        self._fenced[:] = False
        self._fenced[cores] = True

    @property
    def dcm(self) -> DarkCoreMap:
        """The current dark core map."""
        return DarkCoreMap(self._powered_on.copy())

    def core_of_thread(self, thread_index: int) -> int:
        """Core currently executing a thread, or -1 if unmapped.

        O(1): answered from the reverse map maintained by the mutation
        methods rather than scanning the assignment vector.
        """
        if not 0 <= thread_index < len(self.threads):
            return -1
        return int(self._thread_core[thread_index])

    def idle_on_cores(self) -> np.ndarray:
        """Powered-on cores with no thread."""
        return np.flatnonzero(self._powered_on & (self._assignment < 0))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_thread(self, thread: ThreadSpec) -> int:
        """Register a newly-arrived thread; returns its index.

        Supports mid-epoch application arrivals (Section VI): the new
        thread can then be placed like any other.
        """
        self.threads.append(thread)
        self._thread_core = np.append(self._thread_core, -1)
        return len(self.threads) - 1

    def place(self, thread_index: int, core: int, freq_ghz: float) -> None:
        """Map a thread onto a powered-on idle core at ``freq_ghz``."""
        self._check_core(core)
        if not 0 <= thread_index < len(self.threads):
            raise ValueError(f"thread index {thread_index} out of range")
        if not self._powered_on[core]:
            raise ValueError(f"core {core} is dark; power it on first")
        if self._assignment[core] >= 0:
            raise ValueError(f"core {core} already runs a thread (Eq. 5)")
        if self.core_of_thread(thread_index) >= 0:
            raise ValueError(f"thread {thread_index} is already mapped")
        if freq_ghz <= 0:
            raise ValueError("operating frequency must be positive")
        self._assignment[core] = thread_index
        self._freq_ghz[core] = float(freq_ghz)
        self._throttled[core] = False
        self._thread_core[thread_index] = core

    def unplace(self, core: int) -> int:
        """Remove the thread from a core; returns the thread index."""
        self._check_core(core)
        thread_index = int(self._assignment[core])
        if thread_index < 0:
            raise ValueError(f"core {core} is idle")
        self._assignment[core] = -1
        self._freq_ghz[core] = 0.0
        self._throttled[core] = False
        self._thread_core[thread_index] = -1
        return thread_index

    def migrate(self, source: int, target: int) -> None:
        """Move a thread between cores, transferring power states.

        The target is powered on if dark (DTM may wake a dark core);
        the vacated source is power-gated so ``N_on`` never grows — the
        paper's "migrate to the coldest core" under a fixed dark budget.
        """
        self._check_core(source)
        self._check_core(target)
        if self._assignment[target] >= 0:
            raise ValueError(f"target core {target} is busy")
        thread_index = int(self._assignment[source])
        if thread_index < 0:
            raise ValueError(f"source core {source} is idle")
        freq = self._freq_ghz[source]
        self._assignment[source] = -1
        self._freq_ghz[source] = 0.0
        self._throttled[source] = False
        self._powered_on[source] = False
        self._powered_on[target] = True
        self._assignment[target] = thread_index
        self._freq_ghz[target] = freq
        self._thread_core[thread_index] = target

    def set_frequency(self, core: int, freq_ghz: float, throttled: bool = False) -> None:
        """Adjust a busy core's frequency (used by DTM throttling)."""
        self._check_core(core)
        if self._assignment[core] < 0:
            raise ValueError(f"core {core} is idle")
        if freq_ghz <= 0:
            raise ValueError("operating frequency must be positive")
        self._freq_ghz[core] = float(freq_ghz)
        self._throttled[core] = bool(throttled)

    def power_on(self, core: int) -> None:
        """Wake a dark core (leaves it idle)."""
        self._check_core(core)
        self._powered_on[core] = True

    def power_off(self, core: int) -> None:
        """Gate an idle core."""
        self._check_core(core)
        if self._assignment[core] >= 0:
            raise ValueError(f"core {core} runs a thread; unplace it first")
        self._powered_on[core] = False
        self._freq_ghz[core] = 0.0

    # ------------------------------------------------------------------
    # vectors for the power/thermal models
    # ------------------------------------------------------------------
    def activity_vector(self, time_s: float) -> np.ndarray:
        """Per-core switching activity at simulation time ``time_s``."""
        activity = np.zeros(self.num_cores)
        cores = np.flatnonzero(self._assignment >= 0)
        threads = self.threads
        activity[cores] = [
            threads[t].activity_at(time_s)
            for t in self._assignment[cores].tolist()
        ]
        return activity

    def duty_vector(self) -> np.ndarray:
        """Per-core PMOS stress duty cycle (0 for idle/dark cores)."""
        duty = np.zeros(self.num_cores)
        cores = np.flatnonzero(self._assignment >= 0)
        threads = self.threads
        duty[cores] = [
            threads[t].duty_cycle for t in self._assignment[cores].tolist()
        ]
        return duty

    def validate(self, fmax_ghz: np.ndarray | None = None) -> None:
        """Check structural invariants; optionally frequency feasibility."""
        mapped = self._assignment[self._assignment >= 0]
        if len(set(mapped.tolist())) != len(mapped):
            raise AssertionError("a thread is mapped to two cores")
        if ((self._assignment >= 0) & ~self._powered_on).any():
            raise AssertionError("a thread runs on a dark core")
        if ((self._assignment < 0) & (self._freq_ghz > 0)).any():
            raise AssertionError("an idle core has a non-zero frequency")
        if fmax_ghz is not None:
            busy = self._assignment >= 0
            if (self._freq_ghz[busy] > np.asarray(fmax_ghz)[busy] + 1e-9).any():
                raise AssertionError("a core runs above its safe frequency")

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core index {core} out of range")
