"""The accelerated-aging lifetime simulator (Fig. 4).

Each epoch: the policy builds a chip state (DCM + mapping), a
fine-grained transient window runs under it with per-step DTM
enforcement, and the window's worst-case temperatures and duty cycles
are upscaled to the epoch length to advance the health state.

:class:`ChipLane` holds one chip's state and every per-chip step of
that loop.  :class:`LifetimeSimulator` drives one lane;
:class:`~repro.sim.batch.BatchLifetimeSimulator` drives many in
lockstep.  Each engine keeps its own kernel calls (steady-state solve,
window integration, aging advance, NoC report).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.delta_eval import delta_options
from repro.dtm.policy import DTMPolicy
from repro.mapping.state import ChipState
from repro.noc.metrics import evaluate_mapping
from repro.obs import get_registry
from repro.sim.config import SimulationConfig
from repro.sim.context import ChipContext
from repro.sim.results import EpochRecord, LifetimeResult
from repro.sim.window import (
    SEGMENT_CHUNK_STEPS,
    CompiledSegment,
    FusedWindowEngine,
    WindowStats,
    compile_segment,
    rewind_unexecuted_draws,
    total_ips,
)
from repro.thermal.coupled import solve_coupled_steady_state
from repro.thermal.rcnet import TransientIntegrator
from repro.util.rng import SeedSequenceFactory
from repro.workload.mix import random_mix

#: Cap on the settle-phase (steady state -> DTM) rounds; a round with
#: no interventions ends the phase early.
MAX_SETTLE_ROUNDS = 16


def _mean_activity_vector(state: ChipState) -> np.ndarray:
    activity = np.zeros(state.num_cores)
    assignment = state.assignment_view
    cores = np.flatnonzero(assignment >= 0)
    threads = state.threads
    activity[cores] = [
        threads[t].mean_activity for t in assignment[cores].tolist()
    ]
    return activity


def _depart(state: ChipState, thread_indices: list[int], departed: set[int]) -> None:
    """An application finished: free and gate its threads' cores.

    Only threads that actually held a core count as served; an
    arrival that never got mapped departs unserved and remains a
    QoS violation.
    """
    for thread_index in thread_indices:
        core = state.core_of_thread(thread_index)
        if core >= 0:
            state.unplace(core)
            state.power_off(core)
            departed.add(thread_index)


def _qos_violations(state: ChipState, departed: set[int]) -> int:
    """Threads running below requirement at window end, plus
    threads that never got a core (departed threads completed their
    service and do not count)."""
    violations = 0
    assignment = state.assignment
    mapped = set()
    for core in np.flatnonzero(assignment >= 0):
        thread = state.threads[assignment[core]]
        mapped.add(int(assignment[core]))
        if state.freq_ghz[core] < thread.fmin_ghz - 1e-9:
            violations += 1
    violations += len(state.threads) - len(mapped) - len(departed - mapped)
    return violations


class ChipLane:
    """One chip's lifetime state and the per-chip steps of an epoch.

    An engine calls, per epoch: :meth:`draw_mix`, then the policy
    decision, :meth:`begin_epoch`, one :meth:`settle` per steady-state
    solve until it returns ``False`` (or :data:`MAX_SETTLE_ROUNDS` run
    out), :meth:`start_window`, the window steps (:meth:`unfused_step`,
    or fused segments closed by :meth:`break_segment`), the aging
    advance on :meth:`duties`, and :meth:`close_epoch`.
    """

    __slots__ = (
        "ctx", "config", "dtm", "result", "factory", "num_threads",
        "nominal_scaled", "reaction_ceiling", "mix", "state", "dcm_on",
        "fmax_now", "start_years", "migrations", "throttles", "arrived",
        "departed", "worst_settle", "settle_duty", "settle_rounds", "temps",
        "all_nodes", "integrator", "stats",
        "segment", "seg_off", "fused",  # the batched engine's window cursor
    )

    def __init__(self, ctx: ChipContext, policy, config: SimulationConfig, dtm):
        self.ctx = ctx
        self.config = config
        self.dtm = dtm
        self.result = LifetimeResult(
            chip_id=ctx.chip.chip_id,
            policy_name=policy.name,
            dark_fraction_min=ctx.dark_fraction_min,
            fmax_init_ghz=ctx.chip.fmax_init_ghz.copy(),
        )
        self.factory = SeedSequenceFactory(config.seed).child(
            "mix", ctx.chip_seed_token()
        )
        self.num_threads = max(1, int(round(ctx.max_on_cores * config.load_factor)))
        # (nominal * scale): FusedWindowEngine's hoisted leakage prefix,
        # per lane because the scale is the chip's own.
        self.nominal_scaled = (
            ctx.power_model.leakage.nominal_w * ctx.power_model.leakage_scale
        )
        # Temperature excursions above this never persist: DTM reacts
        # within its control latency, so a core en route to a hotter
        # unmitigated steady state is intercepted here.  The settle
        # phase's steady-state solves overshoot that ceiling; recording
        # them clamped keeps the aging input physical.
        self.reaction_ceiling = dtm.tsafe_k + dtm.headroom_k

    def draw_mix(self, mix_factory, epoch: int) -> None:
        """Draw the epoch's workload mix from the chip's own stream, so
        lane order never perturbs it."""
        self.mix = mix_factory(
            epoch, self.num_threads, self.factory.rng("epoch", epoch)
        )

    def begin_epoch(self, state: ChipState) -> None:
        """Adopt the policy's decision and zero the epoch's counters."""
        ctx = self.ctx
        n = ctx.chip.num_cores
        state.validate()
        self.state = state
        self.dcm_on = state.powered_on
        self.fmax_now = ctx.chip.fmax_init_ghz * ctx.health_state.health
        self.start_years = ctx.elapsed_years
        self.migrations = 0
        self.throttles = 0
        self.arrived = 0
        self.departed = set()
        self.worst_settle = np.full(n, ctx.network.config.ambient_k)
        self.settle_duty = np.zeros(n)
        self.settle_rounds = 0

    def _count(self, report) -> None:
        self.migrations += report.migrations
        self.throttles += report.throttles

    def settle(self, temps: np.ndarray) -> bool:
        """One settle round on the mapping's steady state ``temps``.

        Settle phase: DTM acts during the heat-up toward the mapping's
        steady state.  Iterating (steady state -> DTM -> steady state)
        until quiescence mirrors the real closed loop without simulating
        the minutes-long sink transient step by step; a mapping that
        provokes many interventions here pays them in the Fig. 7 count.
        Returns whether DTM still fired.
        """
        self.temps = temps
        self.worst_settle = np.maximum(
            self.worst_settle, np.minimum(temps, self.reaction_ceiling)
        )
        state = self.state
        report = self.dtm.enforce(state, self.ctx.read_temps(temps), self.fmax_now)
        self._count(report)
        # Application arrivals recur all epoch long, so a placement
        # DTM had to undo is re-attempted repeatedly: the vacated
        # source core keeps hosting threads a fraction of the time
        # and ages accordingly (Section II's migration penalty).
        for source, target in report.migrated_pairs:
            thread = state.threads[state.assignment[target]]
            self.settle_duty[source] += (
                self.config.settle_duty_fraction * thread.duty_cycle
            )
        self.settle_rounds += 1
        return report.events != 0

    def start_window(self) -> None:
        """Seed the window from the last settle solve."""
        temps = self.temps
        n = self.ctx.chip.num_cores
        all_nodes = self.ctx.network.initial_temperatures()
        all_nodes[:n] = temps
        all_nodes[n : 2 * n] = temps - 2.0  # spreader trails the junction
        all_nodes[-1] = temps.mean() - 5.0
        self.all_nodes = all_nodes
        # The factors come from the shared thermal cache (additive
        # thermal.cache_hits); only scratch space is new per epoch.
        self.integrator = TransientIntegrator(
            self.ctx.network, self.config.control_dt_s
        )
        # worst_settle holds every settle solve, the last one included,
        # clamped at the reaction ceiling: a steady state DTM would
        # intercept must not leak into the aging input unclamped (the
        # window's own transient excursions are real and stay unclamped).
        self.stats = WindowStats(
            worst=self.worst_settle, duty_accum=np.zeros(n), peak=float(temps.max())
        )
        self.segment = None
        self.seg_off = 0
        self.fused = True

    def unfused_step(self, t: float) -> None:
        """One step-by-step window step at time ``t``: power, transient
        step, DTM on the sensor readings, stats."""
        state = self.state
        stats = self.stats
        integrator = self.integrator
        activity = state.activity_vector(t)
        core_temps = integrator.core_temperatures(self.all_nodes)
        breakdown = self.ctx.power_model.evaluate(
            state.freq_ghz, activity, core_temps, state.powered_on
        )
        self.all_nodes = integrator.step(self.all_nodes, breakdown.total_w)
        core_temps = integrator.core_temperatures(self.all_nodes)

        readings = self.ctx.read_temps(core_temps)
        self._count(self.dtm.enforce(state, readings, self.fmax_now))

        stats.observe(core_temps, self.dtm.tsafe_k)
        stats.duty_accum += state.duty_vector() * self.config.control_dt_s
        stats.ips_sum += total_ips(state)

    def break_segment(self, segment: CompiledSegment, readings, done: int, times):
        """Run DTM on the step that broke ``segment`` after ``done``
        steps (the breaking step included) and add its duty/IPS
        addends, in the unfused loop's order."""
        report = self.dtm.enforce(self.state, readings, self.fmax_now)
        self._count(report)
        if report.migrations and done < segment.num_steps:
            # The migration changed the core order the compile-time
            # phase draws beyond the break assumed; unwind them so the
            # next compile redraws in the new order (throttles leave
            # the order intact — nothing to unwind).
            rewind_unexecuted_draws(
                segment, times[segment.start_step : segment.start_step + done]
            )
        self.stats.duty_accum += self.state.duty_vector() * self.config.control_dt_s
        self.stats.ips_sum += total_ips(self.state)

    def duties(self) -> np.ndarray:
        """The window's duty cycles plus the settle penalty, upscaled."""
        cfg = self.config
        duty = self.stats.duty_accum / cfg.window_s + self.settle_duty
        return np.clip(duty * cfg.duty_scale, 0.0, 1.0)

    def close_epoch(
        self, epoch_index: int, duties: np.ndarray, noc_report, obs
    ) -> EpochRecord:
        """Record the aged epoch (health already advanced)."""
        cfg = self.config
        ctx = self.ctx
        stats = self.stats
        steps = cfg.steps_per_window
        ctx.last_temps_k = self.integrator.core_temperatures(self.all_nodes).copy()
        record = EpochRecord(
            epoch_index=epoch_index,
            start_years=self.start_years,
            length_years=cfg.epoch_years,
            mix_description=self.mix.describe(),
            dcm_on=self.dcm_on,
            worst_temps_k=stats.worst,
            avg_temp_k=stats.temp_sum / steps,
            peak_temp_k=stats.peak,
            dtm_migrations=self.migrations,
            dtm_throttles=self.throttles,
            duties=duties,
            health_after=ctx.health_state.health,
            qos_violations=_qos_violations(self.state, self.departed),
            total_ips=stats.ips_sum / steps,
            arrivals=self.arrived,
            comm_weighted_hops=noc_report.weighted_hops,
            tsafe_violation_steps=stats.tsafe_violations,
        )
        self.result.epochs.append(record)
        obs.inc("sim.epochs")
        obs.inc("sim.dtm_migrations", record.dtm_migrations)
        obs.inc("sim.dtm_throttles", record.dtm_throttles)
        obs.inc("sim.arrivals", record.arrivals)
        obs.inc("sim.qos_violations", record.qos_violations)
        obs.inc("sim.tsafe_violation_steps", record.tsafe_violation_steps)
        return record


class LifetimeSimulator:
    """Drives one policy over one chip's lifetime.

    Parameters
    ----------
    config:
        Simulation parameters.
    dtm:
        The DTM enforcement policy (shared semantics across managers,
        per the paper's fairness setup).
    mix_factory:
        Callable ``(epoch_index, num_threads, rng) -> WorkloadMix``;
        defaults to a fresh random mix per epoch ("considering the same
        set of workloads, or potentially a different one", Section IV).
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        dtm: DTMPolicy | None = None,
        mix_factory=None,
        arrivals_factory=None,
        epoch_callback=None,
    ):
        self.config = config if config is not None else SimulationConfig()
        self.dtm = dtm if dtm is not None else DTMPolicy(tsafe_k=self.config.tsafe_k)
        self._mix_factory = mix_factory if mix_factory is not None else (
            lambda epoch, num_threads, rng: random_mix(num_threads, rng)
        )
        #: Optional callable ``(epoch_index, window_s, rng) ->
        #: ArrivalSchedule`` generating mid-epoch application arrivals
        #: (Section VI's "new application starts within an aging epoch").
        self._arrivals_factory = arrivals_factory
        #: Optional callable ``(EpochRecord) -> None`` invoked after each
        #: epoch — progress reporting, live logging, streaming export.
        self._epoch_callback = epoch_callback

    def run(self, ctx: ChipContext, policy) -> LifetimeResult:
        """Simulate the configured lifetime; returns the full record."""
        cfg = self.config
        obs = get_registry()
        lane = ChipLane(ctx, policy, cfg, self.dtm)
        with delta_options(enabled=cfg.delta_candidates):
            for epoch in range(cfg.num_epochs):
                lane.draw_mix(self._mix_factory, epoch)
                arrivals = None
                if self._arrivals_factory is not None:
                    arrivals = self._arrivals_factory(
                        epoch, cfg.window_s, lane.factory.rng("arrivals", epoch)
                    )
                with obs.timer(
                    "sim.epoch",
                    epoch=epoch,
                    chip=ctx.chip.chip_id,
                    policy=policy.name,
                ):
                    record = self._run_epoch(lane, policy, epoch, arrivals, obs)
                if self._epoch_callback is not None:
                    self._epoch_callback(record)
        return lane.result

    # ------------------------------------------------------------------
    # one epoch
    # ------------------------------------------------------------------
    def _run_epoch(
        self, lane: ChipLane, policy, epoch_index: int, arrivals, obs
    ) -> EpochRecord:
        cfg = self.config
        ctx = lane.ctx
        with obs.timer("sim.decision"):
            state: ChipState = policy.prepare_epoch(ctx, lane.mix, cfg.epoch_years)
        lane.begin_epoch(state)

        with obs.timer("sim.settle"):
            for _ in range(MAX_SETTLE_ROUNDS):
                temps, _ = solve_coupled_steady_state(
                    ctx.network, ctx.power_model, state.freq_ghz,
                    _mean_activity_vector(state), state.powered_on,
                )
                if not lane.settle(temps):
                    break
            else:
                # Rounds ran out with DTM still firing.
                obs.inc("sim.settle_unconverged")
            obs.inc("sim.settle_rounds", lane.settle_rounds)

        lane.start_window()
        with obs.timer("sim.window"):
            self._run_window(lane, policy, arrivals)

        duties = lane.duties()
        with obs.timer("sim.aging"):
            ctx.health_state.advance(lane.stats.worst, duties, cfg.epoch_years)
        noc_report = evaluate_mapping(state, ctx.noc)
        return lane.close_epoch(epoch_index, duties, noc_report, obs)

    def _run_window(self, lane: ChipLane, policy, arrivals) -> None:
        """Run the fine-grained transient window.

        Quiet spans — no arrival or departure step inside, no sensor
        reading in the DTM trigger band — run as compiled fused
        segments (see :mod:`repro.sim.window`); everything else runs
        the step-by-step body.  Both paths are bit-identical;
        a DTM policy without the fused contract
        (:attr:`~repro.dtm.policy.DTMPolicy.supports_fused_windows`)
        runs the latter everywhere, and a thread trace that is not a
        :class:`~repro.workload.traces.PhaseTrace` from its step on.
        """
        cfg = self.config
        dt = cfg.control_dt_s
        steps = cfg.steps_per_window
        ctx = lane.ctx
        state = lane.state
        # Min-heap ordered by departure time (insertion order breaks
        # ties), so each step pops only the due departures instead of
        # scanning and list.remove()-ing the whole backlog — the O(n^2)
        # former behaviour.  Departures within one step are independent
        # (each thread holds at most one core), so pop order does not
        # change the resulting state.
        pending_departures: list[tuple[float, int, list[int]]] = []
        departure_seq = 0

        engine = FusedWindowEngine(ctx.power_model, lane.integrator, self.dtm)
        engine = engine if engine.supported else None
        # Step times computed exactly as the loop's `step * dt`
        # (int-to-float conversion is exact, the multiply is the
        # same IEEE op), so event-step comparisons match.
        times = np.arange(steps, dtype=float) * dt
        arrival_steps: list[int] = []
        if engine is not None and arrivals is not None:
            # A step fires an event iff `t <= time < t + dt` with the
            # loop's own floats; evaluating that predicate over the
            # whole step grid (rather than dividing) keeps the fire
            # steps exact even where `s*dt + dt != (s+1)*dt`.
            fire_steps = set()
            step_ends = times + dt
            for event in arrivals.events:
                hits = np.flatnonzero(
                    (times <= event.time_s) & (event.time_s < step_ends)
                )
                fire_steps.update(int(s) for s in hits)
            arrival_steps = sorted(fire_steps)

        step = 0
        while step < steps:
            t = step * dt
            if arrivals is not None:
                while pending_departures and pending_departures[0][0] <= t:
                    _, _, indices = heapq.heappop(pending_departures)
                    _depart(state, indices, lane.departed)
                for event in arrivals.due(t, t + dt):
                    indices = [
                        state.add_thread(th) for th in event.application.threads
                    ]
                    lane.arrived += len(indices)
                    self._place_arrival(
                        ctx,
                        policy,
                        state,
                        indices,
                        lane.fmax_now,
                        lane.integrator.core_temperatures(lane.all_nodes),
                    )
                    if np.isfinite(event.departure_s):
                        heapq.heappush(
                            pending_departures,
                            (event.departure_s, departure_seq, indices),
                        )
                        departure_seq += 1

            if engine is not None:
                seg_end = min(steps, step + SEGMENT_CHUNK_STEPS)
                while arrival_steps and arrival_steps[0] <= step:
                    arrival_steps.pop(0)
                if arrival_steps:
                    seg_end = min(seg_end, arrival_steps[0])
                if pending_departures:
                    dep_step = int(
                        np.searchsorted(
                            times, pending_departures[0][0], side="left"
                        )
                    )
                    seg_end = min(seg_end, max(dep_step, step + 1))
                segment = compile_segment(
                    state, ctx.power_model, times, step, seg_end, dt
                )
                if segment is None:
                    engine = None  # unsupported trace type: step-by-step
                else:
                    lane.all_nodes, done, break_readings = engine.run_segment(
                        state, lane.all_nodes, segment, lane.stats, ctx.read_temps
                    )
                    step += done
                    if break_readings is not None:
                        lane.break_segment(segment, break_readings, done, times)
                    continue

            lane.unfused_step(t)
            step += 1

    def _place_arrival(
        self,
        ctx: ChipContext,
        policy,
        state: ChipState,
        thread_indices: list[int],
        fmax_now: np.ndarray,
        current_temps_k: np.ndarray,
    ) -> None:
        """Dispatch an arrival to the policy (fallback: first fit)."""
        place = getattr(policy, "place_arrival", None)
        if place is not None:
            place(
                ctx,
                state,
                thread_indices,
                self.config.epoch_years,
                current_temps_k=current_temps_k,
            )
            return
        for thread_index in thread_indices:
            thread = state.threads[thread_index]
            idle = state.powered_on & (state.assignment < 0)
            feasible = np.flatnonzero(idle & (fmax_now >= thread.fmin_ghz))
            if feasible.size == 0:
                feasible = np.flatnonzero(idle)
            if feasible.size == 0 and state.dcm.num_on < ctx.max_on_cores:
                # Wake a dark, unfenced core for the arrival.
                dark = np.flatnonzero(~state.powered_on & ~state.fenced)
                if dark.size:
                    wake = dark[fmax_now[dark] >= thread.fmin_ghz]
                    core = int(wake[0]) if wake.size else int(dark[0])
                    state.power_on(core)
                    feasible = np.array([core])
            if feasible.size == 0:
                continue  # no capacity; stays unscheduled (QoS)
            core = int(feasible[0])
            freq = min(thread.fmin_ghz, float(fmax_now[core]))
            state.place(thread_index, core, max(freq, 1e-3))
