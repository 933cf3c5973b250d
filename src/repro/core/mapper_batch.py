"""Cross-lane batched Algorithm 1: lockstep mapping over a chip batch.

The batched population engine (:mod:`repro.sim.batch`) stacks the
thermal and aging kernels but, through PR 6, still ran the Hayat
decision phase chip by chip — and inside each chip, Algorithm 1 already
batches only *within* a thread's candidate set.  For a 64-chip batch
that is ~2k small ``predict_temperature_batch`` + ``estimate_next_health``
calls per epoch, and profiling puts >80 % of campaign wall-clock there.

This module advances the thread-placement loop of
:meth:`repro.core.mapper.HayatMapper.map_threads` in lockstep across
all lanes of a batch: each *round* takes every lane's next placeable
thread, stacks the per-candidate matrices of all lanes into one
``(sum_lane_candidates, num_cores)`` block, and runs a single stacked
temperature prediction and a single flattened aging-table walk where
the sequential path ran one pair of calls per lane.

Bit identity with the sequential mapper is the design constraint:

* Every stacked kernel is row-independent — elementwise power and
  leakage math, a BLAS matmul partitioned over rows (never the shared
  reduction axis), and a per-element table walk — so lane ``b``'s rows
  match its solo call bit for bit.  Per-lane divergence (warm-start
  temperatures, process-variation leakage scale, current health) rides
  in as extra per-row inputs (``initial_temps_k``/``leakage_scale``
  matrices, :meth:`~repro.core.estimation.OnlineHealthEstimator.
  estimate_next_health_rows`).
* All control flow stays per lane and textually mirrors
  ``map_threads``: feasibility filtering, the all-overshoot least-bad
  fallback, Eq. 9 + Eq. 6 scoring, the communication penalty, and the
  carried-forward temperature estimate.
* Lanes diverge freely: different thread counts just finish in
  different rounds, threads with no feasible core are recorded unmapped
  exactly as the sequential path records them, and a lane that cannot
  join the stack at all — mismatched table/predictor parameters, or a
  ``strict`` mapper whose mid-batch :class:`~repro.core.mapper.
  MappingError` must not leave sibling lanes half-mapped — is demoted
  to its own sequential ``map_threads`` call without breaking the
  group (see :func:`unstackable_reason`).

Observability: ``sim.decision_batched_lanes`` counts lanes that mapped
through a stacked group (the escape hatch ``--no-batch-decision``
zeroes it).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.core.delta_eval import DeltaEvaluator, current_delta_options
from repro.core.estimation import OnlineHealthEstimator
from repro.core.mapper import HayatMapper
from repro.core.weighting import WeightingFunction
from repro.mapping.state import ChipState
from repro.obs import get_registry
from repro.thermal.predictor import ThermalPredictor

__all__ = ["MapperLane", "map_threads_batch", "unstackable_reason"]


@dataclass
class MapperLane:
    """One chip's inputs to a lockstep mapping pass.

    Mirrors the argument list of :meth:`HayatMapper.map_threads`
    (``epoch_years`` is shared by the whole batch and passed to
    :func:`map_threads_batch` instead).
    """

    mapper: HayatMapper
    state: ChipState
    fmax_now_ghz: np.ndarray
    health_now: np.ndarray
    elapsed_years: float
    initial_temps_k: np.ndarray | None = None


def unstackable_reason(lane: MapperLane, ref: MapperLane) -> str | None:
    """Why ``lane`` cannot share ``ref``'s stacked kernels (or None).

    The stacked calls run through the *reference* lane's estimator, so
    everything that estimator bakes in — aging table, duty assumption,
    influence kernel, baseline, leakage-correction depth, power-model
    parameters — must match.  Per-chip leakage scale, warm-start
    temperatures and health explicitly do *not* need to match: they are
    threaded through as per-row inputs.
    """
    m, m0 = lane.mapper, ref.mapper
    if m.strict:
        # A strict lane may raise MappingError mid-round; sequential
        # demotion keeps a raise from leaving sibling lanes half-mapped.
        return "strict mapper"
    if lane.state.num_cores != ref.state.num_cores:
        return "mixed core counts"
    e, e0 = m.estimator, m0.estimator
    if e.table is not e0.table:
        return "distinct aging tables"
    if e.duty_assumption is not e0.duty_assumption:
        return "mixed duty assumptions"
    p, p0 = e.predictor, e0.predictor
    if p.leakage_iterations != p0.leakage_iterations:
        return "mixed leakage-correction depths"
    if p.influence is not p0.influence and not np.array_equal(
        p.influence, p0.influence
    ):
        return "mixed influence kernels"
    if not np.array_equal(p.baseline_k, p0.baseline_k):
        return "mixed thermal baselines"
    d, d0 = p.power_model.dynamic, p0.power_model.dynamic
    if (d.ceff_nf, d.vdd) != (d0.ceff_nf, d0.vdd):
        return "mixed dynamic-power parameters"
    a, b = p.power_model.leakage, p0.power_model.leakage
    if (a.nominal_w, a.gated_w, a.beta_per_k, a.fit_limit_k) != (
        b.nominal_w, b.gated_w, b.beta_per_k, b.fit_limit_k
    ):
        return "mixed leakage parameters"
    return None


class _LaneRun:
    """Mutable per-lane mapping state threaded through the rounds.

    The constructor replicates ``map_threads``'s preamble — argument
    validation, warm-start temperatures, the running frequency/activity/
    duty vectors seeded from already-placed threads, the stiffest-first
    order, the incremental sibling map — op for op.
    """

    __slots__ = (
        "mapper", "state", "n", "fmax", "health_now", "elapsed",
        "temps", "freq", "activity", "duties", "powered", "assignment",
        "order", "pos", "comm", "unmapped", "leak_scale",
        "thread_index", "thread", "candidates", "keep", "temps_b",
    )

    def __init__(self, lane: MapperLane):
        mapper = lane.mapper
        state = lane.state
        n = state.num_cores
        fmax = np.asarray(lane.fmax_now_ghz, dtype=float)
        health_now = np.asarray(lane.health_now, dtype=float)
        if fmax.shape != (n,) or health_now.shape != (n,):
            raise ValueError(
                "fmax_now_ghz and health_now must be per-core vectors"
            )
        if lane.initial_temps_k is None:
            temps = np.full(n, mapper.estimator.predictor.ambient_k)
        else:
            temps = np.asarray(lane.initial_temps_k, dtype=float).copy()

        self.mapper = mapper
        self.state = state
        self.n = n
        self.fmax = fmax
        self.health_now = health_now
        self.elapsed = lane.elapsed_years
        self.temps = temps
        self.freq = state.freq_ghz
        self.activity = np.zeros(n)
        self.assignment = state.assignment_view
        for core in np.flatnonzero(self.assignment >= 0):
            self.activity[core] = state.threads[
                self.assignment[core]
            ].mean_activity
        self.duties = state.duty_vector()
        self.powered = state.powered_view
        self.order = sorted(
            range(len(state.threads)),
            key=lambda i: state.threads[i].fmin_ghz,
            reverse=True,
        )
        self.pos = 0
        self.comm = (
            mapper._comm_state(state) if mapper.comm_weight > 0 else None
        )
        self.unmapped: list[int] = []
        self.leak_scale = mapper.estimator.predictor.power_model.leakage_scale

    def next_request(self) -> bool:
        """Advance to this lane's next placeable thread.

        Skips already-placed threads and records infeasible ones as
        unmapped (strict lanes never reach a group, so the sequential
        path's ``MappingError`` cannot arise here).  Returns False once
        the lane's order is exhausted.
        """
        state = self.state
        while self.pos < len(self.order):
            thread_index = self.order[self.pos]
            self.pos += 1
            if state.core_of_thread(thread_index) >= 0:
                continue  # already placed (incremental/mid-epoch use)
            thread = state.threads[thread_index]
            idle = self.powered & (self.assignment < 0)
            feasible = idle & (self.fmax >= thread.fmin_ghz)
            candidates = np.flatnonzero(feasible)
            if candidates.size == 0:
                self.unmapped.append(thread_index)
                continue
            self.thread_index = thread_index
            self.thread = thread
            self.candidates = candidates
            return True
        return False


def map_threads_batch(
    lanes: list[MapperLane], epoch_years: float
) -> list[list[int]]:
    """Map every lane's threads; returns each lane's unmapped indices.

    ``results[i]`` is bit-identical to what
    ``lanes[i].mapper.map_threads(...)`` returns — including every
    placement and frequency written into ``lanes[i].state`` — whether
    the lane rode the stacked group or was demoted to the sequential
    path.
    """
    lanes = list(lanes)
    results: list[list[int] | None] = [None] * len(lanes)

    # Group every lane that can share the first groupable lane's
    # stacked kernels; the rest run sequentially below.
    group: list[int] = []
    ref: MapperLane | None = None
    for i, lane in enumerate(lanes):
        if ref is None:
            if lane.mapper.strict:
                continue
            ref = lane
            group.append(i)
        elif unstackable_reason(lane, ref) is None:
            group.append(i)

    if len(group) >= 2:
        get_registry().inc("sim.decision_batched_lanes", len(group))
        runs = [_LaneRun(lanes[i]) for i in group]
        _map_group(runs, epoch_years)
        for i, run in zip(group, runs):
            results[i] = run.unmapped

    for i, lane in enumerate(lanes):
        if results[i] is None:
            results[i] = lane.mapper.map_threads(
                lane.state,
                lane.fmax_now_ghz,
                lane.health_now,
                epoch_years,
                lane.elapsed_years,
                initial_temps_k=lane.initial_temps_k,
            )
    return results  # type: ignore[return-value]


def _map_group(runs: list[_LaneRun], epoch_years: float) -> None:
    """One lockstep pass over a compatible group of lane runs."""
    n = runs[0].n
    est0 = runs[0].mapper.estimator
    predictor0 = est0.predictor
    # Delta-candidate engagement mirrors the sequential mapper's guard:
    # plain predictor/estimator semantics only (the group already
    # shares est0/predictor0 through unstackable_reason).
    opts = current_delta_options()
    evaluator = (
        DeltaEvaluator(predictor0)
        if opts.enabled
        and type(est0) is OnlineHealthEstimator
        and type(predictor0) is ThermalPredictor
        else None
    )
    obs = get_registry()
    dynamic = predictor0.power_model.dynamic
    # Eq. 9 can be scored in one cross-lane sweep only when every lane
    # runs the stock weighting; a subclass keeps the per-lane call so
    # its override is honoured.
    batched_scoring = all(
        type(run.mapper.weighting) is WeightingFunction for run in runs
    )

    active = runs
    stacked_for: list[_LaneRun] | None = None
    while True:
        active = [run for run in active if run.next_request()]
        if not active:
            return

        if active != stacked_for:
            # (Re)build the persistent per-lane stacks.  Lanes only
            # ever leave the group, so this runs once per composition;
            # the commit loop below keeps the stacks in sync with each
            # lane's running vectors between rebuilds.
            lane_idx = np.arange(len(active))
            freq_l = np.stack([run.freq for run in active])
            act_l = np.stack([run.activity for run in active])
            on_l = np.stack([run.powered for run in active])
            scale_l = np.stack(
                [
                    np.broadcast_to(
                        np.asarray(run.leak_scale, dtype=float), (n,)
                    )
                    for run in active
                ]
            )
            duties_l = np.stack([run.duties for run in active])
            health_l = np.stack([run.health_now for run in active])
            temps_l = np.stack([run.temps for run in active])
            fmax_l = np.stack([run.fmax for run in active])
            tsafe_l = np.array([run.mapper.tsafe_k for run in active])
            if batched_scoring:
                coeffs = [
                    run.mapper.weighting.config.coefficients(run.elapsed)
                    for run in active
                ]
                alpha_l = np.array([a for a, _ in coeffs])
                beta_l = np.array([b for _, b in coeffs])
                wmax_l = np.array(
                    [run.mapper.weighting.config.wmax for run in active]
                )
                coeff_l = np.array(
                    [run.mapper.chip_health_coeff * n for run in active]
                )
            stacked_for = active

        # Stack every lane's candidate rows into one block.  Each
        # lane's rows carry its own running vectors plus the one-thread
        # delta — exactly the matrices its solo call would build,
        # assembled by gathers from the persistent lane stacks instead
        # of per-lane fills.  The delta path stacks only the duty
        # matrix (the walk needs it) plus one base row per lane; the
        # dense path stacks the full candidate matrices.
        counts = np.array([run.candidates.size for run in active])
        total = int(counts.sum())
        offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        row_lane = np.repeat(lane_idx, counts)
        rows = np.arange(total)
        cand_cols = np.concatenate([run.candidates for run in active])
        fmin_vec = np.array([run.thread.fmin_ghz for run in active])
        mact_vec = np.array([run.thread.mean_activity for run in active])
        duty_vec = np.array([run.thread.duty_cycle for run in active])
        duty_all = duties_l[row_lane]
        duty_all[rows, cand_cols] = duty_vec[row_lane]

        # Cost gate mirroring the sequential mapper's: the stacked base
        # solve pays for itself only when the dense work it replaces
        # (total candidate rows x n) is large enough.
        if evaluator is not None and total * n >= opts.min_dense_rows:
            with obs.timer("sim.delta_eval"):
                new_dyn = dynamic.power_w(fmin_vec, mact_vec)[row_lane]
                base = evaluator.solve_base(
                    freq_l, act_l, on_l, temps_l, leakage_scale=scale_l
                )
                temps_all = evaluator.candidate_temps(
                    base, row_lane, cand_cols, new_dyn
                )
            obs.inc("sim.delta_rounds")
        else:
            freq_all = freq_l[row_lane]
            act_all = act_l[row_lane]
            freq_all[rows, cand_cols] = fmin_vec[row_lane]
            act_all[rows, cand_cols] = mact_vec[row_lane]

            temps_all = predictor0.predict_batch(
                freq_all,
                act_all,
                on_l[row_lane],
                initial_temps_k=temps_l[row_lane],
                leakage_scale=scale_l[row_lane],
            )

        # Per-lane feasibility keep, then one stacked health walk over
        # the surviving rows (each row carrying its lane's health).
        tmax_all = temps_all.max(axis=1)
        ok_all = tmax_all <= tsafe_l[row_lane]
        kept_counts = np.empty(len(active), dtype=np.intp)
        keep_parts: list[np.ndarray] = []
        for li, (run, off) in enumerate(zip(active, offsets)):
            batch = int(counts[li])
            thermally_ok = ok_all[off : off + batch]
            if thermally_ok.all():
                keep = np.arange(batch)
            elif thermally_ok.any():
                keep = np.flatnonzero(thermally_ok)
            else:
                # Every placement overshoots; take the least-bad one
                # (the sequential path's naive-optimization fallback).
                keep = np.array(
                    [int(np.argmin(tmax_all[off : off + batch]))]
                )
            run.keep = keep
            run.temps_b = temps_all[off : off + batch]
            keep_parts.append(off + keep)
            kept_counts[li] = keep.size

        keep_global = np.concatenate(keep_parts)
        kept_lane = np.repeat(lane_idx, kept_counts)
        kept_offsets = np.concatenate(([0], np.cumsum(kept_counts[:-1])))
        temps_kept = temps_all[keep_global]
        duty_kept = duty_all[keep_global]
        health_rows = health_l[kept_lane]

        health_all = est0.estimate_next_health_rows(
            temps_kept, duty_kept, health_rows, epoch_years
        )

        # Eq. 9 over all kept rows in one sweep: per-lane scalars
        # (alpha, beta, wmax, required frequency) ride in as per-row
        # gathers, so every element sees exactly the operands its
        # per-lane call saw and the sweep stays bit-identical.
        kept_cores_all = cand_cols[keep_global]
        if batched_scoring:
            ktotal = keep_global.size
            h_next = health_all[np.arange(ktotal), kept_cores_all]
            h_now = health_l[kept_lane, kept_cores_all]
            gap = fmax_l[kept_lane, kept_cores_all] - fmin_vec[kept_lane]
            raw = np.full(ktotal, np.inf)
            np.divide(
                alpha_l[kept_lane],
                np.maximum(gap, 1e-12),
                out=raw,
                where=gap > 0,
            )
            # Nonpositive health raises per lane in the commit loop
            # below (matching the sequential order); silence the sweep's
            # speculative divide for that pathological case.
            with np.errstate(divide="ignore", invalid="ignore"):
                weights_all = (
                    np.minimum(wmax_l[kept_lane], raw)
                    + beta_l[kept_lane] * h_next / h_now
                    + coeff_l[kept_lane] * health_all.mean(axis=1)
                )

        # The winner commit and the carried-forward running vectors
        # stay per lane — map_threads's exact expressions — and mirror
        # every write into the persistent lane stacks.
        for li, (run, koff) in enumerate(zip(active, kept_offsets)):
            mapper = run.mapper
            thread = run.thread
            k = int(kept_counts[li])
            kept_cores = kept_cores_all[koff : koff + k]
            if batched_scoring:
                if (health_l[li, kept_cores] <= 0).any():
                    raise ValueError("current health must be positive")
                weights = weights_all[koff : koff + k]
            else:
                health_b = health_all[koff : koff + k]
                h_candidate_next = health_b[np.arange(k), kept_cores]
                weights = mapper.weighting.weight(
                    run.fmax[kept_cores],
                    thread.fmin_ghz,
                    h_candidate_next,
                    run.health_now[kept_cores],
                    run.elapsed,
                )
                weights = weights + mapper.chip_health_coeff * n * (
                    health_b.mean(axis=1)
                )
            if mapper.comm_weight > 0:
                weights = weights - mapper.comm_weight * mapper._comm_penalty(
                    run.state, thread, kept_cores, comm=run.comm
                )

            winner = int(np.argmax(weights))
            core = int(kept_cores[winner])
            run.state.place(run.thread_index, core, thread.fmin_ghz)

            run.freq[core] = thread.fmin_ghz
            run.activity[core] = thread.mean_activity
            run.duties[core] = thread.duty_cycle
            run.temps = run.temps_b[run.keep[winner]]
            freq_l[li, core] = thread.fmin_ghz
            act_l[li, core] = thread.mean_activity
            duties_l[li, core] = thread.duty_cycle
            temps_l[li] = run.temps
            if run.comm is not None:
                insort(run.comm.setdefault(thread.app_name, []), core)
