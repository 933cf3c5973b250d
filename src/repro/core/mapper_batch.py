"""Algorithm 1's candidate loop, run in lockstep over a chip batch.

This is the only Algorithm 1 driver: :meth:`repro.core.mapper.
HayatMapper.map_threads` maps one chip as a one-lane batch of
:func:`map_threads_batch`, and the batched population engine
(:mod:`repro.sim.batch`) maps a whole chip batch through it.  Each
*round* takes every lane's next placeable thread (stiffest frequency
requirement first), stacks the candidate rows of all lanes into one
``(sum_lane_candidates, num_cores)`` block, and runs a single stacked
temperature prediction and a single flattened aging-table walk over it.

Stacking is an execution strategy, not a change of arithmetic:

* Every stacked kernel is row-independent — elementwise power and
  leakage math, a BLAS matmul partitioned over rows (never the shared
  reduction axis), and a per-element table walk — so lane ``b``'s rows
  carry the values its one-lane group computes.  Per-lane divergence
  (warm-start temperatures, process-variation leakage scale, current
  health) rides in as per-row inputs.  The one exception is the delta
  engine's cost gate (:mod:`repro.core.delta_eval`), which counts the
  whole round's stacked rows and so can pick a different arithmetic
  route for a lane depending on its group mates.
* All control flow stays per lane: feasibility filtering, the
  all-overshoot least-bad fallback, Eq. 9 + Eq. 6 scoring, the
  communication penalty, and the carried-forward temperature estimate.
* Lanes diverge freely: different thread counts finish in different
  rounds, and threads with no feasible core are recorded unmapped.

:func:`map_threads_batch` splits the lanes into groups that can share
kernels (see :func:`unstackable_reason`).  A ``strict`` mapper's lane
is a group of its own, so its :class:`~repro.core.mapper.MappingError`
never leaves another lane half-mapped.  The sequential loop the engine
replaced is kept as the test oracle in ``tests/mapper_reference.py``.

Observability: ``sim.decision_batched_lanes`` counts lanes that shared
a group with at least one other lane.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.core.delta_eval import DeltaEvaluator, current_delta_options
from repro.core.estimation import OnlineHealthEstimator
from repro.core.mapper import HayatMapper, MappingError
from repro.core.weighting import WeightingFunction
from repro.mapping.state import ChipState
from repro.obs import get_registry
from repro.thermal.predictor import ThermalPredictor

__all__ = ["MapperLane", "map_threads_batch", "unstackable_reason"]


@dataclass
class MapperLane:
    """One chip's inputs to a lockstep mapping pass.

    The argument list of :meth:`HayatMapper.map_threads` minus
    ``epoch_years``, which the whole batch shares.
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
        # A strict lane may raise MappingError mid-round; mapping it
        # alone keeps a raise from leaving other lanes half-mapped.
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

    The constructor validates the lane's inputs and seeds the running
    frequency/activity/duty vectors from already-placed threads, the
    warm-start temperatures, the stiffest-first order and the sibling
    map of the communication penalty.
    """

    __slots__ = (
        "mapper", "state", "n", "fmax", "health_now", "elapsed",
        "temps", "freq", "activity", "duties", "powered", "assignment",
        "order", "pos", "comm", "unmapped", "leak_scale",
        "thread_index", "thread", "candidates",
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
        unmapped, or raises :class:`MappingError` for a strict mapper.
        Returns False once the lane's order is exhausted.
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
                if self.mapper.strict:
                    raise MappingError(
                        f"no feasible core for {thread.thread_id} "
                        f"(fmin {thread.fmin_ghz:.2f} GHz)"
                    )
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

    Lanes are split into groups: the first unassigned lane is the
    reference, and every unassigned lane that :func:`unstackable_reason`
    lets share its kernels joins it.  Groups run one after another, each
    as one lockstep pass.
    """
    lanes = list(lanes)
    for lane in lanes:
        _check_hooks(lane.mapper.estimator)
    results: list[list[int]] = [[] for _ in lanes]
    pending = list(range(len(lanes)))
    obs = get_registry()
    while pending:
        ref = lanes[pending[0]]
        if ref.mapper.strict:
            group = pending[:1]
        else:
            group = [
                i for i in pending
                if unstackable_reason(lanes[i], ref) is None
            ]
        pending = [i for i in pending if i not in group]
        if len(group) > 1:
            obs.inc("sim.decision_batched_lanes", len(group))
        runs = [_LaneRun(lanes[i]) for i in group]
        _map_group(runs, epoch_years)
        for i, run in zip(group, runs):
            results[i] = run.unmapped
    return results


#: Estimator methods the engine does not call, with the hooks it calls
#: in their place.
_UNCALLED_HOOKS = {
    "estimate_next_health": "OnlineHealthEstimator.estimate_next_health_rows",
    "predict_temperature_batch": "ThermalPredictor.predict_batch",
}


def _check_hooks(estimator: OnlineHealthEstimator) -> None:
    """Reject an estimator whose override the engine would ignore.

    The stacked rounds call ``estimate_next_health_rows`` and the
    predictor's ``predict_batch`` directly, so an override of the
    per-candidate entry points would silently never run.
    """
    cls = type(estimator)
    for name, hook in _UNCALLED_HOOKS.items():
        if getattr(cls, name) is not getattr(OnlineHealthEstimator, name):
            raise TypeError(
                f"{cls.__name__} overrides {name}, which map_threads_batch "
                f"never calls; override {hook} instead"
            )


def _map_group(runs: list[_LaneRun], epoch_years: float) -> None:
    """One lockstep pass over a compatible group of lane runs."""
    n = runs[0].n
    est0 = runs[0].mapper.estimator
    predictor0 = est0.predictor
    # The delta engine replays the stock predictor and estimator
    # arithmetic, so a subclass of either stays on the dense kernels
    # (``predict_batch``, ``estimate_next_health_rows``) it may override.
    # The group shares est0/predictor0 through unstackable_reason.
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

        # Stack every lane's candidate rows into one block: each row is
        # its lane's running vectors plus the one-thread change at its
        # candidate column.  Row gathers use ``take``, which copies the
        # same values as fancy indexing at a fraction of its overhead.
        # The delta path stacks only the duty matrix (the walk needs
        # it) plus one base row per lane; the dense path stacks the
        # full candidate matrices.
        counts = [run.candidates.size for run in active]
        total = sum(counts)
        row_lane = np.repeat(lane_idx, counts)
        rows = np.arange(total)
        cand_cols = np.concatenate([run.candidates for run in active])
        fmin_vec = np.array([run.thread.fmin_ghz for run in active])
        mact_vec = np.array([run.thread.mean_activity for run in active])
        duty_vec = np.array([run.thread.duty_cycle for run in active])
        duty_all = duties_l.take(row_lane, axis=0)
        duty_all[rows, cand_cols] = duty_vec.take(row_lane)

        # Cost gate: the stacked base solve pays for itself only when
        # the dense work it replaces (total candidate rows x n) is large
        # enough; small rounds stay on the dense kernels.
        if evaluator is not None and total * n >= opts.min_dense_rows:
            with obs.timer("sim.delta_eval"):
                new_dyn = dynamic.power_w(fmin_vec, mact_vec).take(row_lane)
                base = evaluator.solve_base(
                    freq_l, act_l, on_l, temps_l, leakage_scale=scale_l
                )
                temps_all = evaluator.candidate_temps(
                    base, row_lane, cand_cols, new_dyn
                )
            obs.inc("sim.delta_rounds")
        else:
            freq_all = freq_l.take(row_lane, axis=0)
            act_all = act_l.take(row_lane, axis=0)
            freq_all[rows, cand_cols] = fmin_vec.take(row_lane)
            act_all[rows, cand_cols] = mact_vec.take(row_lane)
            temps_all = predictor0.predict_batch(
                freq_all,
                act_all,
                on_l.take(row_lane, axis=0),
                initial_temps_k=temps_l.take(row_lane, axis=0),
                leakage_scale=scale_l.take(row_lane, axis=0),
            )

        # Per-lane feasibility keep, then one stacked health walk over
        # the surviving rows (each row carrying its lane's health).
        tmax_all = temps_all.max(axis=1)
        ok_all = tmax_all <= tsafe_l.take(row_lane)
        if ok_all.all():
            # Common case: nothing to discard, so skip the row copies
            # (same rows, same values).
            kept_counts = counts
            kept_lane = row_lane
            kept_rows = rows
            temps_kept, duty_kept = temps_all, duty_all
        else:
            kept_counts = []
            keep_parts: list[np.ndarray] = []
            off = 0
            for batch in counts:
                thermally_ok = ok_all[off : off + batch]
                if thermally_ok.any():
                    keep = np.flatnonzero(thermally_ok)
                else:
                    # Every placement overshoots; take the least-bad one
                    # and let DTM handle the consequences (the paper's
                    # naive-optimization fallback).
                    keep = np.array(
                        [int(np.argmin(tmax_all[off : off + batch]))]
                    )
                keep_parts.append(off + keep)
                kept_counts.append(keep.size)
                off += batch
            kept_rows = np.concatenate(keep_parts)
            kept_lane = np.repeat(lane_idx, kept_counts)
            temps_kept = temps_all.take(kept_rows, axis=0)
            duty_kept = duty_all.take(kept_rows, axis=0)

        health_all = est0.estimate_next_health_rows(
            temps_kept,
            duty_kept,
            health_l.take(kept_lane, axis=0),
            epoch_years,
        )

        # Eq. 9 over all kept rows in one sweep: per-lane scalars
        # (alpha, beta, wmax, required frequency) ride in as per-row
        # gathers, so every element sees exactly the operands its
        # one-lane call sees.
        kept_cores_all = cand_cols.take(kept_rows)
        if batched_scoring:
            ktotal = kept_rows.size
            lane_cell = kept_lane * n + kept_cores_all
            h_now = health_l.take(lane_cell)
            if (h_now <= 0).any():
                raise ValueError("current health must be positive")
            h_next = health_all.take(np.arange(ktotal) * n + kept_cores_all)
            gap = fmax_l.take(lane_cell) - fmin_vec.take(kept_lane)
            raw = np.full(ktotal, np.inf)
            np.divide(
                alpha_l.take(kept_lane),
                np.maximum(gap, 1e-12),
                out=raw,
                where=gap > 0,
            )
            weights_all = (
                np.minimum(wmax_l.take(kept_lane), raw)
                + beta_l.take(kept_lane) * h_next / h_now
                + coeff_l.take(kept_lane) * health_all.mean(axis=1)
            )

        # The winner commit and the carried-forward running vectors
        # stay per lane, mirrored into the persistent lane stacks.
        koff = 0
        for li, run in enumerate(active):
            mapper = run.mapper
            thread = run.thread
            k = kept_counts[li]
            kept_cores = kept_cores_all[koff : koff + k]
            if batched_scoring:
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
            run.temps = temps_kept[koff + winner]
            freq_l[li, core] = thread.fmin_ghz
            act_l[li, core] = thread.mean_activity
            duties_l[li, core] = thread.duty_cycle
            temps_l[li] = run.temps
            if run.comm is not None:
                insort(run.comm.setdefault(thread.app_name, []), core)
            koff += k
