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
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.core.delta_eval import DeltaEvaluator, current_delta_options
from repro.core.estimation import OnlineHealthEstimator
from repro.core.weighting import WeightingFunction
from repro.mapping.state import ChipState
from repro.obs import get_registry
from repro.thermal.predictor import ThermalPredictor
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
        weighting phase.
        """
        n = state.num_cores
        fmax_now_ghz = np.asarray(fmax_now_ghz, dtype=float)
        health_now = np.asarray(health_now, dtype=float)
        if fmax_now_ghz.shape != (n,) or health_now.shape != (n,):
            raise ValueError("fmax_now_ghz and health_now must be per-core vectors")

        if initial_temps_k is None:
            temps = np.full(n, self.estimator.predictor.ambient_k)
        else:
            temps = np.asarray(initial_temps_k, dtype=float).copy()

        # Running per-core vectors of the partially-built mapping,
        # seeded from whatever is already placed (incremental use).
        freq = state.freq_ghz
        activity = np.zeros(n)
        assignment = state.assignment_view
        for core in np.flatnonzero(assignment >= 0):
            activity[core] = state.threads[assignment[core]].mean_activity
        duties = state.duty_vector()
        powered = state.powered_view

        order = sorted(
            range(len(state.threads)),
            key=lambda i: state.threads[i].fmin_ghz,
            reverse=True,
        )
        unmapped: list[int] = []
        comm = self._comm_state(state) if self.comm_weight > 0 else None

        # Delta-candidate engagement: requires plain predictor/estimator
        # semantics (subclasses fall back to the dense path they
        # define) and the process/context option.  The evaluator solves
        # the incumbent placement once per round and reconstructs each
        # candidate's temperatures from its rank-1 power change.
        opts = current_delta_options()
        evaluator = (
            DeltaEvaluator(self.estimator.predictor)
            if opts.enabled
            and type(self.estimator) is OnlineHealthEstimator
            and type(self.estimator.predictor) is ThermalPredictor
            else None
        )
        obs = get_registry()

        # Candidate matrices are built in preallocated (n, n) buffers —
        # each thread's batch fills the leading rows instead of cutting
        # three fresh broadcast copies (values are identical; only the
        # storage is reused).  The delta path only ever builds the duty
        # matrix (the walk needs it); candidate frequency/activity
        # matrices exist solely to feed the dense predictor.
        freq_buf = np.empty((n, n))
        act_buf = np.empty((n, n))
        duty_buf = np.empty((n, n))
        all_rows = np.arange(n)

        for thread_index in order:
            if state.core_of_thread(thread_index) >= 0:
                continue  # already placed (incremental/mid-epoch use)
            thread = state.threads[thread_index]
            idle = powered & (assignment < 0)
            feasible = idle & (fmax_now_ghz >= thread.fmin_ghz)
            candidates = np.flatnonzero(feasible)
            if candidates.size == 0:
                if self.strict:
                    raise MappingError(
                        f"no feasible core for {thread.thread_id} "
                        f"(fmin {thread.fmin_ghz:.2f} GHz)"
                    )
                unmapped.append(thread_index)
                continue

            batch = candidates.size
            duty_b = duty_buf[:batch]
            duty_b[:] = duties
            rows = all_rows[:batch]
            duty_b[rows, candidates] = thread.duty_cycle

            # Cost gate: the delta path's per-round base solve only pays
            # for itself when the dense work it replaces (batch x n) is
            # large enough; small rounds stay on the dense kernels.
            if evaluator is not None and batch * n >= opts.min_dense_rows:
                with obs.timer("sim.delta_eval"):
                    base = evaluator.solve_base(
                        freq, activity, powered, temps
                    )
                    new_dyn = self.estimator.predictor.power_model.dynamic.power_w(
                        thread.fmin_ghz, thread.mean_activity
                    )
                    temps_b = evaluator.candidate_temps(
                        base,
                        np.zeros(batch, dtype=np.intp),
                        candidates,
                        np.full(batch, new_dyn),
                    )
                obs.inc("sim.delta_rounds")
            else:
                freq_b = freq_buf[:batch]
                act_b = act_buf[:batch]
                freq_b[:] = freq
                act_b[:] = activity
                freq_b[rows, candidates] = thread.fmin_ghz
                act_b[rows, candidates] = thread.mean_activity
                on_b = np.broadcast_to(powered, (batch, n))
                temps_b = self.estimator.predict_temperature_batch(
                    freq_b, act_b, on_b, current_temps_k=temps
                )
            tmax = temps_b.max(axis=1)
            thermally_ok = tmax <= self.tsafe_k
            if thermally_ok.all():
                # Common case: nothing to discard, so skip the fancy-
                # indexed row copies (same rows, same values).
                keep = all_rows[:batch]
                temps_keep, duty_keep = temps_b, duty_b
            elif thermally_ok.any():
                keep = np.flatnonzero(thermally_ok)
                temps_keep, duty_keep = temps_b[keep], duty_b[keep]
            else:
                # Every placement overshoots; take the least-bad one and
                # let DTM handle the consequences (the paper's naive-
                # optimization fallback).
                keep = np.array([int(np.argmin(tmax))])
                temps_keep, duty_keep = temps_b[keep], duty_b[keep]

            health_b = self.estimator.estimate_next_health(
                temps_keep, duty_keep, health_now, epoch_years
            )
            kept_cores = candidates[keep]
            h_candidate_next = health_b[all_rows[: len(keep)], kept_cores]
            weights = self.weighting.weight(
                fmax_now_ghz[kept_cores],
                thread.fmin_ghz,
                h_candidate_next,
                health_now[kept_cores],
                elapsed_years,
            )
            weights = weights + self.chip_health_coeff * n * health_b.mean(axis=1)
            if self.comm_weight > 0:
                weights = weights - self.comm_weight * self._comm_penalty(
                    state, thread, kept_cores, comm=comm
                )

            winner = int(np.argmax(weights))
            core = int(kept_cores[winner])
            state.place(thread_index, core, thread.fmin_ghz)

            freq[core] = thread.fmin_ghz
            activity[core] = thread.mean_activity
            duties[core] = thread.duty_cycle
            temps = temps_b[keep[winner]]
            if comm is not None:
                insort(comm.setdefault(thread.app_name, []), core)

        return unmapped

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

    @staticmethod
    def map_threads_batch(lanes, epoch_years: float):
        """Cross-lane lockstep mapping; see :mod:`repro.core.mapper_batch`.

        Convenience alias so callers holding a mapper don't need the
        extra import; ``lanes`` is a sequence of
        :class:`repro.core.mapper_batch.MapperLane`.
        """
        from repro.core.mapper_batch import map_threads_batch

        return map_threads_batch(lanes, epoch_years)
