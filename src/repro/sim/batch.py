"""Batched population engine: N chips simulated in one lockstep pass.

Campaigns over chip populations repeat the same per-epoch structure N
times: a policy decision, a Picard settle against the shared thermal
factorization, a fine-grained fused window of backward-Euler steps, and
one aging-table walk.  Every per-chip kernel in that loop already has a
stacked counterpart — multi-RHS steady solves (PR 2), flat-offset
trilinear gathers (PR 3), compiled fused segments (PR 4) — so this
module lifts the chip axis out of Python: N chips advance epoch by
epoch and *step by step* together, with the per-chip control flow
(policy decisions, DTM enforcement, stats bookkeeping) kept in Python
and the cross-chip arithmetic batched.

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
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import REFERENCE_TEMP_K, LeakageModel
from repro.power.model import PowerModel
from repro.sim.config import SimulationConfig
from repro.sim.context import ChipContext
from repro.sim.results import EpochRecord, LifetimeResult
from repro.sim.simulator import LifetimeSimulator
from repro.sim.window import (
    SEGMENT_CHUNK_STEPS,
    WindowStats,
    compile_segment,
    rewind_unexecuted_draws,
)
from repro.thermal.cache import floorplan_signature
from repro.thermal.coupled import solve_coupled_steady_state_batch
from repro.thermal.rcnet import TransientIntegrator
from repro.util.rng import SeedSequenceFactory
from repro.workload.mix import random_mix

__all__ = ["BatchLifetimeSimulator"]


class _ChipLane:
    """Per-chip mutable state threaded through the lockstep loops."""

    __slots__ = (
        "ctx", "result", "factory", "num_threads", "nominal_scaled",
        "mix", "state", "dcm_on", "fmax_now", "start_years",
        "migrations", "throttles", "worst_settle", "settle_duty",
        "settle_rounds", "temps", "all_nodes", "integrator", "stats",
        "segment", "seg_off", "seg_powered", "fused",
    )

    def __init__(self, ctx: ChipContext):
        self.ctx = ctx


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
        self._max_settle_rounds = 16

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------
    def _ineligible_reason(self, ctxs: list[ChipContext]) -> str | None:
        """Why these contexts cannot share one lockstep pass (or None)."""
        if len(ctxs) < 2:
            return "fewer than two chips"
        if not getattr(self.dtm, "supports_fused_windows", False):
            return "DTM policy lacks the fused-window contract"
        first = ctxs[0]
        pm0 = first.power_model
        signature = floorplan_signature(first.floorplan)
        for ctx in ctxs:
            pm = ctx.power_model
            if (
                type(pm) is not PowerModel
                or type(pm.dynamic) is not DynamicPowerModel
                or type(pm.leakage) is not LeakageModel
            ):
                return "non-stock power model stack"
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
        lanes = []
        for ctx in ctxs:
            lane = _ChipLane(ctx)
            lane.result = LifetimeResult(
                chip_id=ctx.chip.chip_id,
                policy_name=policy.name,
                dark_fraction_min=ctx.dark_fraction_min,
                fmax_init_ghz=ctx.chip.fmax_init_ghz.copy(),
            )
            lane.factory = SeedSequenceFactory(cfg.seed).child(
                "mix", ctx.chip_seed_token()
            )
            lane.num_threads = max(
                1, int(round(ctx.max_on_cores * cfg.load_factor))
            )
            # (nominal * scale): FusedWindowEngine's hoisted leakage
            # prefix, per lane because the scale is the chip's own.
            lane.nominal_scaled = (
                ctx.power_model.leakage.nominal_w
                * ctx.power_model.leakage_scale
            )
            lanes.append(lane)
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
        n = lanes[0].ctx.chip.num_cores
        network = lanes[0].ctx.network

        # Mix draws stay per chip: fully independent RNG streams make
        # lane order irrelevant.
        for lane in lanes:
            lane.mix = self._mix_factory(
                epoch, lane.num_threads, lane.factory.rng("epoch", epoch)
            )
            lane.start_years = lane.ctx.elapsed_years

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
            for lane, state in zip(lanes, states):
                lane.state = state
        else:
            for lane in lanes:
                with obs.timer("sim.decision"):
                    lane.state = policy.prepare_epoch(
                        lane.ctx, lane.mix, cfg.epoch_years
                    )
        for lane in lanes:
            ctx = lane.ctx
            lane.state.validate()
            lane.dcm_on = lane.state.powered_on
            lane.fmax_now = ctx.chip.fmax_init_ghz * ctx.health_state.health
            lane.migrations = 0
            lane.throttles = 0
            lane.worst_settle = np.full(n, ctx.network.config.ambient_k)
            lane.settle_duty = np.zeros(n)
            lane.settle_rounds = 0

        # Settle phase in lockstep rounds: one stacked Picard solve per
        # round covers every still-settling lane; DTM enforcement and
        # the migration duty penalty stay per lane.
        reaction_ceiling = self.dtm.tsafe_k + self.dtm.headroom_k
        with obs.timer("sim.settle"):
            active = list(lanes)
            for settle_round in range(self._max_settle_rounds):
                k = len(active)
                freq = np.empty((k, n))
                activity = np.empty((k, n))
                powered = np.empty((k, n), dtype=bool)
                scale = np.empty((k, n))
                for j, lane in enumerate(active):
                    freq[j] = lane.state.freq_ghz
                    activity[j] = LifetimeSimulator._mean_activity_vector(
                        lane.state
                    )
                    powered[j] = lane.state.powered_on
                    scale[j] = lane.ctx.power_model.leakage_scale
                temps_mat, _ = solve_coupled_steady_state_batch(
                    network,
                    active[0].ctx.power_model,
                    freq,
                    activity,
                    powered,
                    leakage_scale=scale,
                )
                obs.inc("sim.batch_solves")
                still = []
                for j, lane in enumerate(active):
                    temps = temps_mat[j]
                    lane.temps = temps
                    lane.worst_settle = np.maximum(
                        lane.worst_settle, np.minimum(temps, reaction_ceiling)
                    )
                    report = self.dtm.enforce(
                        lane.state, lane.ctx.read_temps(temps), lane.fmax_now
                    )
                    lane.migrations += report.migrations
                    lane.throttles += report.throttles
                    for source, target in report.migrated_pairs:
                        thread = lane.state.threads[
                            lane.state.assignment[target]
                        ]
                        lane.settle_duty[source] += (
                            cfg.settle_duty_fraction * thread.duty_cycle
                        )
                    lane.settle_rounds = settle_round + 1
                    if report.events != 0:
                        still.append(lane)
                active = still
                if not active:
                    break
            else:
                # Rounds ran out with DTM still firing on these lanes.
                obs.inc("sim.settle_unconverged", len(active))
            for lane in lanes:
                obs.inc("sim.settle_rounds", lane.settle_rounds)

        for lane in lanes:
            temps = lane.temps
            all_nodes = lane.ctx.network.initial_temperatures()
            all_nodes[:n] = temps
            all_nodes[n : 2 * n] = temps - 2.0  # spreader trails the junction
            all_nodes[-1] = temps.mean() - 5.0
            lane.all_nodes = all_nodes
            # One integrator per lane per epoch, as the per-chip path
            # constructs: the factors come from the shared cache
            # (additive thermal.cache_hits), only scratch space is new.
            lane.integrator = TransientIntegrator(
                lane.ctx.network, cfg.control_dt_s
            )
            lane.stats = WindowStats(
                worst=np.maximum(
                    lane.worst_settle, np.minimum(temps, reaction_ceiling)
                ),
                duty_accum=np.zeros(n),
                peak=float(temps.max()),
            )
            lane.segment = None
            lane.seg_off = 0
            lane.seg_powered = None
            lane.fused = True

        with obs.timer("sim.window"):
            self._run_batch_window(lanes, obs)

        # Epoch upscale: per-lane duties, one stacked aging-table walk.
        steps = cfg.steps_per_window
        duties_mat = np.empty((len(lanes), n))
        worst_mat = np.empty((len(lanes), n))
        for b, lane in enumerate(lanes):
            duties_mat[b] = np.clip(
                (lane.stats.duty_accum / cfg.window_s + lane.settle_duty)
                * cfg.duty_scale,
                0.0,
                1.0,
            )
            worst_mat[b] = lane.stats.worst
        with obs.timer("sim.aging"):
            advance_batch(
                [lane.ctx.health_state for lane in lanes],
                worst_mat,
                duties_mat,
                cfg.epoch_years,
            )

        for b, lane in enumerate(lanes):
            ctx = lane.ctx
            stats = lane.stats
            ctx.last_temps_k = lane.integrator.core_temperatures(
                lane.all_nodes
            ).copy()
            qos = LifetimeSimulator._qos_violations(lane.state, lane.fmax_now)
            noc_report = evaluate_mapping(lane.state, ctx.noc)
            record = EpochRecord(
                epoch_index=epoch,
                start_years=lane.start_years,
                length_years=cfg.epoch_years,
                mix_description=lane.mix.describe(),
                dcm_on=lane.dcm_on,
                worst_temps_k=stats.worst,
                avg_temp_k=stats.temp_sum / steps,
                peak_temp_k=stats.peak,
                dtm_migrations=lane.migrations,
                dtm_throttles=lane.throttles,
                duties=duties_mat[b],
                health_after=ctx.health_state.health,
                qos_violations=qos,
                total_ips=stats.ips_sum / steps,
                arrivals=0,
                comm_weighted_hops=noc_report.weighted_hops,
                tsafe_violation_steps=stats.tsafe_violations,
            )
            lane.result.epochs.append(record)
            obs.inc("sim.epochs")
            obs.inc("sim.dtm_migrations", record.dtm_migrations)
            obs.inc("sim.dtm_throttles", record.dtm_throttles)
            obs.inc("sim.arrivals", record.arrivals)
            obs.inc("sim.qos_violations", record.qos_violations)
            obs.inc("sim.tsafe_violation_steps", record.tsafe_violation_steps)

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
        beta = leakage.beta_per_k
        fit_limit = leakage.fit_limit_k
        gated_w = leakage.gated_w
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
                        lane.seg_powered = lane.state.powered_view
                (fused_now if lane.fused else unfused_now).append(lane)

            if fused_now:
                k = len(fused_now)
                stacked_temps = np.empty((num_nodes, k))
                stacked_power = np.empty((num_nodes, k))
                for j, lane in enumerate(fused_now):
                    stacked_temps[:, j] = lane.all_nodes
                    # FusedWindowEngine.core_power's exact op order on
                    # the lane's pre-step junction temperatures.
                    core_temps = lane.all_nodes[:n]
                    factor = np.exp(
                        beta
                        * (np.minimum(core_temps, fit_limit) - REFERENCE_TEMP_K)
                    )
                    leak = np.where(
                        lane.seg_powered, lane.nominal_scaled * factor, gated_w
                    )
                    stacked_power[:, j] = base
                    stacked_power[:n, j] = (
                        lane.segment.dyn_power_w[lane.seg_off] + leak
                    )
                new_temps = integrator0.step_batch(stacked_temps, stacked_power)
                obs.inc("sim.batch_solves")
                fused_steps += k
                for j, lane in enumerate(fused_now):
                    # Contiguous per-lane copy: downstream reductions
                    # (mean/max) must see the per-chip memory layout.
                    lane.all_nodes = np.ascontiguousarray(new_temps[:, j])
                    segment_breaks += self._post_fused_step(
                        lane, times, dt, tsafe, target_limit
                    )

            for lane in unfused_now:
                self._unfused_step(lane, step, dt)

        obs.inc("sim.fused_steps", fused_steps)
        if segment_breaks:
            obs.inc("sim.segment_breaks", segment_breaks)

    def _post_fused_step(self, lane, times, dt, tsafe, target_limit) -> int:
        """Per-lane post-step bookkeeping (`FusedWindowEngine.on_step`'s
        expressions plus the caller's break handling).  Returns 1 when
        the lane's segment broke at this step."""
        segment = lane.segment
        stats = lane.stats
        core_temps = lane.all_nodes[: lane.ctx.chip.num_cores]
        readings = lane.ctx.read_temps(core_temps)
        stats.worst = np.maximum(stats.worst, core_temps)
        stats.temp_sum += float(core_temps.mean())
        stats.peak = max(stats.peak, float(core_temps.max()))
        stats.tsafe_violations += int((core_temps > tsafe).sum())
        trip = bool((readings[segment.busy] > tsafe).any())
        if not trip and segment.throttled_idx.size > 0:
            trip = bool((readings[segment.throttled_idx] < target_limit).any())
        if not trip:
            stats.duty_accum += segment.duty_step
            stats.ips_sum += segment.ips_total
            lane.seg_off += 1
            if lane.seg_off == segment.num_steps:
                lane.segment = None  # quiet completion; compile the next
            return 0
        done = lane.seg_off + 1  # the breaking step is consumed
        report = self.dtm.enforce(lane.state, readings, lane.fmax_now)
        lane.migrations += report.migrations
        lane.throttles += report.throttles
        if report.migrations and done < segment.num_steps:
            rewind_unexecuted_draws(
                segment,
                times[segment.start_step : segment.start_step + done],
            )
        stats.duty_accum += lane.state.duty_vector() * dt
        stats.ips_sum += LifetimeSimulator._total_ips(lane.state)
        lane.segment = None
        return 1

    def _unfused_step(self, lane, step: int, dt: float) -> None:
        """The per-chip unfused step body, verbatim, on one lane."""
        t = step * dt
        state = lane.state
        stats = lane.stats
        integrator = lane.integrator
        activity = state.activity_vector(t)
        core_temps = integrator.core_temperatures(lane.all_nodes)
        breakdown = lane.ctx.power_model.evaluate(
            state.freq_ghz, activity, core_temps, state.powered_on
        )
        lane.all_nodes = integrator.step(lane.all_nodes, breakdown.total_w)
        core_temps = integrator.core_temperatures(lane.all_nodes)

        readings = lane.ctx.read_temps(core_temps)
        report = self.dtm.enforce(state, readings, lane.fmax_now)
        lane.migrations += report.migrations
        lane.throttles += report.throttles

        stats.worst = np.maximum(stats.worst, core_temps)
        stats.temp_sum += float(core_temps.mean())
        stats.peak = max(stats.peak, float(core_temps.max()))
        stats.tsafe_violations += int((core_temps > self.dtm.tsafe_k).sum())
        stats.duty_accum += state.duty_vector() * dt
        stats.ips_sum += LifetimeSimulator._total_ips(state)
