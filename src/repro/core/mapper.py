"""Algorithm 1: variation- and dark-silicon-aware thread mapping.

For every runnable thread (stiffest frequency requirement first — those
threads have the fewest feasible cores), the mapper evaluates every
candidate core in one vectorized batch:

1. predict the chip's temperature profile with the thread placed on each
   candidate (lines 7-11),
2. discard candidates that would push any core past ``Tsafe``
   (lines 12-13),
3. estimate the chip-wide next-epoch health map per candidate
   (line 15),
4. score candidates with the Eq. 9 weight plus the chip-health goal of
   Eq. 6, and commit the best placement (lines 22-23).

The running temperature estimate is carried forward between threads so
later placements see the heat of earlier ones.

This module holds the mapper's parameters and the communication-penalty
helpers; the candidate loop itself is the lockstep engine of
:mod:`repro.core.mapper_batch`, which :meth:`HayatMapper.map_threads`
runs as a one-lane batch.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimation import OnlineHealthEstimator
from repro.core.weighting import WeightingFunction
from repro.mapping.state import ChipState
from repro.util.constants import T_SAFE_KELVIN


class MappingError(RuntimeError):
    """No feasible placement exists for some thread."""


class HayatMapper:
    """The Algorithm 1 engine.

    Parameters
    ----------
    estimator:
        Online health/temperature estimation (Fig. 5 flow).
    weighting:
        The Eq. 9 scorer.
    tsafe_k:
        Thermal constraint for candidate feasibility (Eq. 4).
    chip_health_coeff:
        Weight of the chip-wide average-next-health term (the Eq. 6
        goal) added to the per-candidate Eq. 9 weight.  Scaled by the
        core count so a one-core health difference registers against
        the Eq. 9 terms.
    strict:
        When True, a thread with no frequency-feasible idle core raises
        :class:`MappingError`; otherwise the thread is left unmapped and
        reported.
    comm_weight, hop_matrix:
        Optional communication-aware extension (future-work direction:
        Hayat + Fattah's locality objective).  With a positive weight
        and a NoC hop matrix, candidates pay
        ``comm_weight * intensity * hops-to-already-placed-siblings``
        in the ranking — trading a little thermal spreading for
        locality.  The default (0) reproduces the paper's Algorithm 1.
    """

    def __init__(
        self,
        estimator: OnlineHealthEstimator,
        weighting: WeightingFunction | None = None,
        tsafe_k: float = T_SAFE_KELVIN,
        chip_health_coeff: float = 1.0,
        strict: bool = False,
        comm_weight: float = 0.0,
        hop_matrix: np.ndarray | None = None,
    ):
        self.estimator = estimator
        self.weighting = weighting if weighting is not None else WeightingFunction()
        self.tsafe_k = float(tsafe_k)
        self.chip_health_coeff = float(chip_health_coeff)
        self.strict = bool(strict)
        if comm_weight < 0:
            raise ValueError("comm_weight must be >= 0")
        if comm_weight > 0 and hop_matrix is None:
            raise ValueError("comm_weight needs a hop_matrix")
        self.comm_weight = float(comm_weight)
        self.hop_matrix = (
            np.asarray(hop_matrix, dtype=float) if hop_matrix is not None else None
        )

    def map_threads(
        self,
        state: ChipState,
        fmax_now_ghz: np.ndarray,
        health_now: np.ndarray,
        epoch_years: float,
        elapsed_years: float,
        initial_temps_k: np.ndarray | None = None,
    ) -> list[int]:
        """Place every unplaced thread of ``state.threads``; returns the
        indices that could not be placed.

        Already-placed threads are left alone (incremental / mid-epoch
        use); their heat and duty are part of every candidate
        evaluation.  ``fmax_now_ghz``/``health_now`` are the monitored
        per-core values at the decision instant; ``epoch_years`` is the
        horizon of the health estimate and ``elapsed_years`` selects the
        weighting phase.  The chip is a one-lane batch of
        :func:`repro.core.mapper_batch.map_threads_batch`.
        """
        from repro.core.mapper_batch import MapperLane, map_threads_batch

        lane = MapperLane(
            self, state, fmax_now_ghz, health_now, elapsed_years, initial_temps_k
        )
        return map_threads_batch([lane], epoch_years)[0]

    @staticmethod
    def _comm_state(state: ChipState) -> dict[str, list[int]]:
        """Per-app placed-sibling map, built once per mapping pass.

        Maps ``app_name`` to the ascending list of cores already hosting
        one of its threads.  Keeping the lists sorted matters: the hop
        sum below runs left-to-right over siblings, and an ascending
        order reproduces the float sum of the old full-assignment scan.
        """
        assignment = state.assignment_view
        comm: dict[str, list[int]] = {}
        for core in np.flatnonzero(assignment >= 0):
            app = state.threads[assignment[core]].app_name
            comm.setdefault(app, []).append(int(core))
        return comm

    def _comm_penalty(
        self,
        state: ChipState,
        thread,
        candidate_cores: np.ndarray,
        comm: dict[str, list[int]] | None = None,
    ) -> np.ndarray:
        """Per-candidate hop cost to the thread's already-placed siblings.

        ``comm`` is the incrementally-maintained sibling map of
        :meth:`_comm_state`; without one (standalone use) the map is
        rebuilt from the assignment.
        """
        from repro.noc.traffic import _intensity_of

        if comm is None:
            comm = self._comm_state(state)
        siblings = comm.get(thread.app_name)
        if not siblings:
            return np.zeros(candidate_cores.shape[0])
        intensity = _intensity_of(state, thread.app_name)
        hops = self.hop_matrix[np.ix_(candidate_cores, siblings)].sum(axis=1)
        return intensity * hops
