"""Reference sequential Algorithm 1 loop for ``HayatMapper``.

This is the candidate loop ``HayatMapper.map_threads`` ran before the
mapper became a one-lane group of the lockstep engine
(:mod:`repro.core.mapper_batch`): one thread at a time, stiffest
frequency requirement first, each round scoring the thread's candidate
cores with a solo ``predict_temperature_batch`` (or the delta engine
past its cost gate) and a solo ``estimate_next_health`` call.
``tests/test_mapper_reference.py``, ``tests/test_mapper_batch.py`` and
``tests/test_delta_eval.py`` hold the engine to it bit for bit:
placements, frequencies and unmapped lists.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.core.delta_eval import DeltaEvaluator, current_delta_options
from repro.core.estimation import OnlineHealthEstimator
from repro.core.mapper import MappingError
from repro.mapping.state import ChipState
from repro.obs import get_registry
from repro.thermal.predictor import ThermalPredictor


def reference_map_threads(
    mapper,
    state: ChipState,
    fmax_now_ghz: np.ndarray,
    health_now: np.ndarray,
    epoch_years: float,
    elapsed_years: float,
    initial_temps_k: np.ndarray | None = None,
) -> list[int]:
    """``mapper.map_threads(state, ...)`` as the sequential loop.

    Places every unplaced thread of ``state.threads``; returns the
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
        temps = np.full(n, mapper.estimator.predictor.ambient_k)
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
    comm = mapper._comm_state(state) if mapper.comm_weight > 0 else None

    # Delta-candidate engagement: requires plain predictor/estimator
    # semantics (subclasses fall back to the dense path they
    # define) and the process/context option.  The evaluator solves
    # the incumbent placement once per round and reconstructs each
    # candidate's temperatures from its rank-1 power change.
    opts = current_delta_options()
    evaluator = (
        DeltaEvaluator(mapper.estimator.predictor)
        if opts.enabled
        and type(mapper.estimator) is OnlineHealthEstimator
        and type(mapper.estimator.predictor) is ThermalPredictor
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
            if mapper.strict:
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
                new_dyn = mapper.estimator.predictor.power_model.dynamic.power_w(
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
            temps_b = mapper.estimator.predict_temperature_batch(
                freq_b, act_b, on_b, current_temps_k=temps
            )
        tmax = temps_b.max(axis=1)
        thermally_ok = tmax <= mapper.tsafe_k
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

        health_b = mapper.estimator.estimate_next_health(
            temps_keep, duty_keep, health_now, epoch_years
        )
        kept_cores = candidates[keep]
        h_candidate_next = health_b[all_rows[: len(keep)], kept_cores]
        weights = mapper.weighting.weight(
            fmax_now_ghz[kept_cores],
            thread.fmin_ghz,
            h_candidate_next,
            health_now[kept_cores],
            elapsed_years,
        )
        weights = weights + mapper.chip_health_coeff * n * health_b.mean(axis=1)
        if mapper.comm_weight > 0:
            weights = weights - mapper.comm_weight * mapper._comm_penalty(
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
