"""Batched population engine: N chips simulated in one lockstep pass.

Campaigns over chip populations repeat the same per-epoch structure N
times: a policy decision, a Picard settle against the shared thermal
factorization, a fine-grained fused window of backward-Euler steps, and
one aging-table walk.  Every per-chip kernel in that loop already has a
stacked counterpart — multi-RHS steady solves (PR 2), flat-offset
trilinear gathers (PR 3), compiled fused segments (PR 4) — so this
module lifts the chip axis out of Python: N chips advance epoch by
epoch and *step by step* together.  The per-chip control flow (DTM
enforcement, settle and stats bookkeeping, epoch records) is the
shared :class:`~repro.sim.simulator.ChipLane`, one per chip, exactly as
the per-chip engine runs it; this module adds only the cross-chip
batched kernels.

Bit identity with :class:`~repro.sim.simulator.LifetimeSimulator` is
the design constraint, not an aspiration:

* Thermal solves stack chips as extra right-hand-side columns against
  the *same* process-wide Cholesky factors; a multi-RHS triangular
  solve computes each column with the per-vector op sequence, so lane
  ``b``'s temperatures match its solo run bit for bit.
* Power evaluations are elementwise with per-lane leakage multipliers
  threaded through (:func:`~repro.thermal.coupled.
  solve_coupled_steady_state_batch`'s ``leakage_scale``), preserving
  per-row IEEE results.
* Aging advances flatten the ``(chips, cores)`` axis through one
  elementwise table walk (:func:`repro.aging.health.advance_batch`).
* RNG streams are fully per-chip (`SeedSequenceFactory(seed).child
  ("mix", chip_token)`), so lockstep interleaving cannot perturb them;
  within a lane, compiled segments draw and rewind phases exactly as
  the per-chip fused path does.

The lockstep invariant: every lane executes every window step exactly
once.  A DTM break consumes the breaking step in both paths, so a
global step counter is sufficient; lanes merely differ in where their
segment boundaries fall.  Policies and the DTM must be stateless across
``prepare_epoch``/``enforce`` calls (all built-ins are — the same
contract serial campaign reuse already relies on).

When a batch is ineligible — fewer than two chips, a DTM policy
without the fused-window contract, a non-stock power-model stack,
mismatched floorplans or table objects —
:meth:`BatchLifetimeSimulator.run` falls back to per-chip
:class:`LifetimeSimulator` runs (counted by ``sim.batch_fallbacks``)
and still returns identical results.
"""

from __future__ import annotations

import numpy as np

from repro.aging.health import advance_batch
from repro.core.delta_eval import delta_options
from repro.dtm.policy import DTMPolicy
from repro.noc.metrics import evaluate_mapping
from repro.obs import get_registry
from repro.sim.config import SimulationConfig
from repro.sim.context import ChipContext
from repro.sim.results import LifetimeResult
from repro.sim.simulator import (
    MAX_SETTLE_ROUNDS,
    ChipLane,
    LifetimeSimulator,
    _mean_activity_vector,
)
from repro.sim.window import (
    SEGMENT_CHUNK_STEPS,
    compile_segment,
    fused_window_unsupported,
    leakage_w,
    observe_fused_step,
)
from repro.thermal.cache import floorplan_signature
from repro.thermal.coupled import solve_coupled_steady_state_batch
from repro.workload.mix import random_mix

__all__ = ["BatchLifetimeSimulator"]


class BatchLifetimeSimulator:
    """Drives one policy over many chips' lifetimes in lockstep.

    Parameters mirror :class:`~repro.sim.simulator.LifetimeSimulator`
    (minus arrivals, which campaigns never schedule): ``config``,
    ``dtm`` and ``mix_factory`` apply to every chip in the batch.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        dtm: DTMPolicy | None = None,
        mix_factory=None,
    ):
        self.config = config if config is not None else SimulationConfig()
        self.dtm = dtm if dtm is not None else DTMPolicy(tsafe_k=self.config.tsafe_k)
        self._mix_factory = mix_factory if mix_factory is not None else (
            lambda epoch, num_threads, rng: random_mix(num_threads, rng)
        )

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------
    def _ineligible_reason(self, ctxs: list[ChipContext]) -> str | None:
        """Why these contexts cannot share one lockstep pass (or None)."""
        if len(ctxs) < 2:
            return "fewer than two chips"
        first = ctxs[0]
        pm0 = first.power_model
        signature = floorplan_signature(first.floorplan)
        for ctx in ctxs:
            pm = ctx.power_model
            reason = fused_window_unsupported(pm, self.dtm)
            if reason is not None:
                return reason
            if floorplan_signature(ctx.floorplan) != signature:
                return "mixed floorplans"
            if ctx.network.config != first.network.config:
                return "mixed thermal configs"
            if (pm.dynamic.ceff_nf, pm.dynamic.vdd) != (
                pm0.dynamic.ceff_nf, pm0.dynamic.vdd
            ):
                return "mixed dynamic-power parameters"
            a, b = pm.leakage, pm0.leakage
            if (
                a.nominal_w, a.gated_w, a.beta_per_k, a.fit_limit_k,
                a.vth_nominal, a.subthreshold_slope,
            ) != (
                b.nominal_w, b.gated_w, b.beta_per_k, b.fit_limit_k,
                b.vth_nominal, b.subthreshold_slope,
            ):
                return "mixed leakage parameters"
            if ctx.truth_table is not first.truth_table:
                return "distinct aging tables"
        return None

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self, ctxs: list[ChipContext], policy) -> list[LifetimeResult]:
        """Simulate every context's lifetime; one result per context.

        Batched when the contexts are eligible, via the per-chip
        simulator otherwise.  ``results[i]`` equals
        ``LifetimeSimulator(config, dtm, mix_factory).run(ctxs[i],
        policy)`` bit for bit when every mapping round takes one
        arithmetic route whatever the batch
        (``delta_options(min_dense_rows=0)``); under the default cost
        gate a chip's result can depend on its batch mates (see
        ``batch_size`` in :func:`repro.sim.campaign.run_campaign`).
        """
        ctxs = list(ctxs)
        if not ctxs:
            return []
        obs = get_registry()
        if self._ineligible_reason(ctxs) is not None:
            obs.inc("sim.batch_fallbacks")
            sim = LifetimeSimulator(
                self.config, dtm=self.dtm, mix_factory=self._mix_factory
            )
            return [sim.run(ctx, policy) for ctx in ctxs]

        cfg = self.config
        lanes = [ChipLane(ctx, policy, cfg, self.dtm) for ctx in ctxs]
        obs.inc("sim.batched_chips", len(lanes))

        with delta_options(enabled=cfg.delta_candidates):
            for epoch in range(cfg.num_epochs):
                with obs.timer(
                    "sim.batch_epoch",
                    epoch=epoch,
                    chips=len(lanes),
                    policy=policy.name,
                ):
                    self._run_batch_epoch(lanes, policy, epoch, obs)
        return [lane.result for lane in lanes]

    # ------------------------------------------------------------------
    # one lockstep epoch
    # ------------------------------------------------------------------
    def _run_batch_epoch(self, lanes, policy, epoch: int, obs) -> None:
        cfg = self.config
        network = lanes[0].ctx.network

        for lane in lanes:
            lane.draw_mix(self._mix_factory, epoch)

        # Decisions: one cross-lane batched call when the policy has one
        # (it stacks the numpy-friendly parts per lane); the per-chip
        # loop otherwise.
        batch_prepare = getattr(policy, "prepare_epoch_batch", None)
        if batch_prepare is not None:
            with obs.timer("sim.decision"):
                states = batch_prepare(
                    [lane.ctx for lane in lanes],
                    [lane.mix for lane in lanes],
                    cfg.epoch_years,
                )
        else:
            states = []
            for lane in lanes:
                with obs.timer("sim.decision"):
                    states.append(
                        policy.prepare_epoch(lane.ctx, lane.mix, cfg.epoch_years)
                    )
        for lane, state in zip(lanes, states):
            lane.begin_epoch(state)

        # Settle phase in lockstep rounds: one stacked Picard solve per
        # round covers every still-settling lane.
        with obs.timer("sim.settle"):
            active = list(lanes)
            for _ in range(MAX_SETTLE_ROUNDS):
                temps_mat, _ = solve_coupled_steady_state_batch(
                    network,
                    active[0].ctx.power_model,
                    np.array([lane.state.freq_ghz for lane in active]),
                    np.array([_mean_activity_vector(lane.state) for lane in active]),
                    np.array([lane.state.powered_on for lane in active]),
                    leakage_scale=np.array(
                        [lane.ctx.power_model.leakage_scale for lane in active]
                    ),
                )
                obs.inc("sim.batch_solves")
                active = [
                    lane for j, lane in enumerate(active) if lane.settle(temps_mat[j])
                ]
                if not active:
                    break
            else:
                # Rounds ran out with DTM still firing on these lanes.
                obs.inc("sim.settle_unconverged", len(active))
            for lane in lanes:
                obs.inc("sim.settle_rounds", lane.settle_rounds)

        for lane in lanes:
            lane.start_window()
        with obs.timer("sim.window"):
            self._run_batch_window(lanes, obs)

        # Epoch upscale: per-lane duties, one stacked aging-table walk.
        duties = [lane.duties() for lane in lanes]
        with obs.timer("sim.aging"):
            advance_batch(
                [lane.ctx.health_state for lane in lanes],
                np.array([lane.stats.worst for lane in lanes]),
                np.array(duties),
                cfg.epoch_years,
            )
        for lane, lane_duties in zip(lanes, duties):
            lane.close_epoch(
                epoch, lane_duties, evaluate_mapping(lane.state, lane.ctx.noc), obs
            )

    # ------------------------------------------------------------------
    # the lockstep window
    # ------------------------------------------------------------------
    def _run_batch_window(self, lanes, obs) -> None:
        """Advance every lane through the window, one global step at a
        time.

        Each global step advances each lane by exactly one
        backward-Euler step: quiet fused lanes share one stacked
        transient solve; a lane whose sensor readings trip the DTM band
        runs ``enforce`` on *its* breaking step (consuming the step, as
        the per-chip path does) and recompiles its segment from the
        next step; a lane that hits an uncompilable trace drops to the
        per-chip unfused step body for the rest of the window.
        """
        cfg = self.config
        dt = cfg.control_dt_s
        steps = cfg.steps_per_window
        n = lanes[0].ctx.chip.num_cores
        network = lanes[0].ctx.network
        num_nodes = network.num_nodes
        base = network._entry.node_power_base
        integrator0 = lanes[0].integrator
        # Step times exactly as the per-chip loop's `step * dt`.
        times = np.arange(steps, dtype=float) * dt
        leakage = lanes[0].ctx.power_model.leakage
        tsafe = self.dtm.tsafe_k
        target_limit = self.dtm.target_limit_k

        fused_steps = 0
        segment_breaks = 0

        for step in range(steps):
            fused_now = []
            unfused_now = []
            for lane in lanes:
                if lane.fused and lane.segment is None:
                    seg_end = min(steps, step + SEGMENT_CHUNK_STEPS)
                    segment = compile_segment(
                        lane.state, lane.ctx.power_model, times, step, seg_end, dt
                    )
                    if segment is None:
                        lane.fused = False  # step-by-step for the rest
                    else:
                        lane.segment = segment
                        lane.seg_off = 0
                (fused_now if lane.fused else unfused_now).append(lane)

            if fused_now:
                k = len(fused_now)
                stacked_temps = np.empty((num_nodes, k))
                stacked_power = np.empty((num_nodes, k))
                for j, lane in enumerate(fused_now):
                    stacked_temps[:, j] = lane.all_nodes
                    # FusedWindowEngine's core power on the lane's
                    # pre-step junction temperatures.
                    leak = leakage_w(
                        lane.all_nodes[:n], lane.state.powered_view,
                        lane.nominal_scaled, leakage,
                    )
                    stacked_power[:, j] = base
                    stacked_power[:n, j] = lane.segment.dyn_power_w[lane.seg_off] + leak
                new_temps = integrator0.step_batch(stacked_temps, stacked_power)
                obs.inc("sim.batch_solves")
                fused_steps += k
                for j, lane in enumerate(fused_now):
                    # Contiguous per-lane copy: downstream reductions
                    # (mean/max) must see the per-chip memory layout.
                    lane.all_nodes = np.ascontiguousarray(new_temps[:, j])
                    segment = lane.segment
                    readings = observe_fused_step(
                        lane.stats, segment, lane.all_nodes[:n],
                        lane.ctx.read_temps, tsafe, target_limit,
                    )
                    if readings is None:
                        lane.seg_off += 1
                        if lane.seg_off == segment.num_steps:
                            lane.segment = None  # quiet completion
                        continue
                    # The breaking step is consumed.
                    lane.break_segment(segment, readings, lane.seg_off + 1, times)
                    lane.segment = None
                    segment_breaks += 1

            for lane in unfused_now:
                lane.unfused_step(step * dt)

        obs.inc("sim.fused_steps", fused_steps)
        if segment_breaks:
            obs.inc("sim.segment_breaks", segment_breaks)
