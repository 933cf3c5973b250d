"""The accelerated-aging lifetime simulator (Fig. 4).

Each epoch: the policy builds a chip state (DCM + mapping), a
fine-grained transient window runs under it with per-step DTM
enforcement, and the window's worst-case temperatures and duty cycles
are upscaled to the epoch length to advance the health state.
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
    FusedWindowEngine,
    WindowStats,
    compile_segment,
    rewind_unexecuted_draws,
)
from repro.thermal.coupled import solve_coupled_steady_state
from repro.thermal.rcnet import TransientIntegrator
from repro.util.rng import SeedSequenceFactory
from repro.workload.mix import WorkloadMix, random_mix


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
        #: Cap on the settle-phase (steady state -> DTM) rounds; a round
        #: with no interventions ends the phase early.
        self._max_settle_rounds = 16

    def run(self, ctx: ChipContext, policy) -> LifetimeResult:
        """Simulate the configured lifetime; returns the full record."""
        cfg = self.config
        result = LifetimeResult(
            chip_id=ctx.chip.chip_id,
            policy_name=policy.name,
            dark_fraction_min=ctx.dark_fraction_min,
            fmax_init_ghz=ctx.chip.fmax_init_ghz.copy(),
        )
        factory = SeedSequenceFactory(cfg.seed).child("mix", ctx.chip_seed_token())
        num_threads = max(1, int(round(ctx.max_on_cores * cfg.load_factor)))

        with delta_options(enabled=cfg.delta_candidates):
            for epoch in range(cfg.num_epochs):
                mix = self._mix_factory(
                    epoch, num_threads, factory.rng("epoch", epoch)
                )
                arrivals = None
                if self._arrivals_factory is not None:
                    arrivals = self._arrivals_factory(
                        epoch, cfg.window_s, factory.rng("arrivals", epoch)
                    )
                record = self._run_epoch(ctx, policy, mix, epoch, arrivals)
                result.epochs.append(record)
                if self._epoch_callback is not None:
                    self._epoch_callback(record)
        return result

    # ------------------------------------------------------------------
    # one epoch
    # ------------------------------------------------------------------
    def _run_epoch(
        self,
        ctx: ChipContext,
        policy,
        mix: WorkloadMix,
        epoch_index: int,
        arrivals=None,
    ) -> EpochRecord:
        cfg = self.config
        obs = get_registry()
        with obs.timer(
            "sim.epoch",
            epoch=epoch_index,
            chip=ctx.chip.chip_id,
            policy=policy.name,
        ):
            record = self._simulate_epoch(
                ctx, policy, mix, epoch_index, arrivals, obs
            )
        obs.inc("sim.epochs")
        obs.inc("sim.dtm_migrations", record.dtm_migrations)
        obs.inc("sim.dtm_throttles", record.dtm_throttles)
        obs.inc("sim.arrivals", record.arrivals)
        obs.inc("sim.qos_violations", record.qos_violations)
        obs.inc("sim.tsafe_violation_steps", record.tsafe_violation_steps)
        return record

    def _simulate_epoch(
        self,
        ctx: ChipContext,
        policy,
        mix: WorkloadMix,
        epoch_index: int,
        arrivals,
        obs,
    ) -> EpochRecord:
        cfg = self.config
        start_years = ctx.elapsed_years
        with obs.timer("sim.decision"):
            state: ChipState = policy.prepare_epoch(ctx, mix, cfg.epoch_years)
        state.validate()
        dcm_on = state.powered_on

        fmax_now = ctx.chip.fmax_init_ghz * ctx.health_state.health
        n = ctx.chip.num_cores

        # Settle phase: DTM acts during the heat-up toward the mapping's
        # steady state.  Iterating (steady state -> DTM -> steady state)
        # until quiescence mirrors the real closed loop without simulating
        # the minutes-long sink transient step by step; a mapping that
        # provokes many interventions here pays them in the Fig. 7 count.
        migrations = 0
        throttles = 0
        temps = None
        # Temperature excursions above this never persist: DTM reacts
        # within its control latency, so a core en route to a hotter
        # unmitigated steady state is intercepted here.  The settle
        # phase's steady-state solves overshoot that ceiling; recording
        # them clamped keeps the aging input physical.
        reaction_ceiling = self.dtm.tsafe_k + self.dtm.headroom_k
        worst_settle = np.full(n, ctx.network.config.ambient_k)
        settle_duty = np.zeros(n)
        with obs.timer("sim.settle"):
            for settle_round in range(self._max_settle_rounds):
                mean_activity = self._mean_activity_vector(state)
                temps, _ = solve_coupled_steady_state(
                    ctx.network,
                    ctx.power_model,
                    state.freq_ghz,
                    mean_activity,
                    state.powered_on,
                )
                worst_settle = np.maximum(
                    worst_settle, np.minimum(temps, reaction_ceiling)
                )
                report = self.dtm.enforce(state, ctx.read_temps(temps), fmax_now)
                migrations += report.migrations
                throttles += report.throttles
                # Application arrivals recur all epoch long, so a placement
                # DTM had to undo is re-attempted repeatedly: the vacated
                # source core keeps hosting threads a fraction of the time
                # and ages accordingly (Section II's migration penalty).
                for source, target in report.migrated_pairs:
                    thread = state.threads[state.assignment[target]]
                    settle_duty[source] += (
                        cfg.settle_duty_fraction * thread.duty_cycle
                    )
                if report.events == 0:
                    break
            else:
                # Rounds ran out with DTM still firing.
                obs.inc("sim.settle_unconverged")
            obs.inc("sim.settle_rounds", settle_round + 1)

        all_nodes = ctx.network.initial_temperatures()
        all_nodes[:n] = temps
        all_nodes[n : 2 * n] = temps - 2.0  # spreader trails the junction
        all_nodes[-1] = temps.mean() - 5.0

        integrator = TransientIntegrator(ctx.network, cfg.control_dt_s)
        # The final settle solve obeys the same reaction ceiling as every
        # earlier round: a steady state DTM would intercept must not leak
        # into the aging input unclamped (the window's own transient
        # excursions below are real and stay unclamped).
        stats = WindowStats(
            worst=np.maximum(worst_settle, np.minimum(temps, reaction_ceiling)),
            duty_accum=np.zeros(n),
            peak=float(temps.max()),
        )

        arrived_threads = 0
        departed_threads: set[int] = set()
        steps = cfg.steps_per_window
        with obs.timer("sim.window"):
            all_nodes, migrations, throttles, arrived_threads = self._run_window(
                ctx,
                policy,
                state,
                arrivals,
                integrator,
                all_nodes,
                fmax_now,
                stats,
                departed_threads,
                migrations,
                throttles,
            )

        duties = np.clip(
            (stats.duty_accum / cfg.window_s + settle_duty) * cfg.duty_scale,
            0.0,
            1.0,
        )
        with obs.timer("sim.aging"):
            ctx.health_state.advance(stats.worst, duties, cfg.epoch_years)
        ctx.last_temps_k = integrator.core_temperatures(all_nodes).copy()

        qos = self._qos_violations(state, fmax_now, departed_threads)
        noc_report = evaluate_mapping(state, ctx.noc)
        return EpochRecord(
            epoch_index=epoch_index,
            start_years=start_years,
            length_years=cfg.epoch_years,
            mix_description=mix.describe(),
            dcm_on=dcm_on,
            worst_temps_k=stats.worst,
            avg_temp_k=stats.temp_sum / steps,
            peak_temp_k=stats.peak,
            dtm_migrations=migrations,
            dtm_throttles=throttles,
            duties=duties,
            health_after=ctx.health_state.health,
            qos_violations=qos,
            total_ips=stats.ips_sum / steps,
            arrivals=arrived_threads,
            comm_weighted_hops=noc_report.weighted_hops,
            tsafe_violation_steps=stats.tsafe_violations,
        )

    def _run_window(
        self,
        ctx: ChipContext,
        policy,
        state: ChipState,
        arrivals,
        integrator: TransientIntegrator,
        all_nodes: np.ndarray,
        fmax_now: np.ndarray,
        stats: WindowStats,
        departed_threads: set[int],
        migrations: int,
        throttles: int,
    ) -> tuple[np.ndarray, int, int, int]:
        """Run the fine-grained transient window.

        Quiet spans — no arrival or departure step inside, no sensor
        reading in the DTM trigger band — run as compiled fused
        segments (see :mod:`repro.sim.window`); everything else runs
        the original step-by-step body.  Both paths are bit-identical;
        a DTM policy without the fused contract
        (:attr:`~repro.dtm.policy.DTMPolicy.supports_fused_windows`)
        runs the latter everywhere, and a thread trace that is not a
        :class:`~repro.workload.traces.PhaseTrace` from its step on.
        """
        cfg = self.config
        dt = cfg.control_dt_s
        steps = cfg.steps_per_window
        obs = get_registry()
        arrived_threads = 0
        # Min-heap ordered by departure time (insertion order breaks
        # ties), so each step pops only the due departures instead of
        # scanning and list.remove()-ing the whole backlog — the O(n^2)
        # former behaviour.  Departures within one step are independent
        # (each thread holds at most one core), so pop order does not
        # change the resulting state.
        pending_departures: list[tuple[float, int, list[int]]] = []
        departure_seq = 0

        engine: FusedWindowEngine | None = FusedWindowEngine(
            ctx.power_model, integrator, self.dtm
        )
        if not engine.supported:
            engine = None
        times = None
        arrival_steps: list[int] = []
        if engine is not None:
            # Step times computed exactly as the loop's `step * dt`
            # (int-to-float conversion is exact, the multiply is the
            # same IEEE op), so event-step comparisons match.
            times = np.arange(steps, dtype=float) * dt
            if arrivals is not None:
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
                    self._depart(state, indices, departed_threads)
                for event in arrivals.due(t, t + dt):
                    indices = [
                        state.add_thread(th) for th in event.application.threads
                    ]
                    arrived_threads += len(indices)
                    self._place_arrival(
                        ctx,
                        policy,
                        state,
                        indices,
                        fmax_now,
                        integrator.core_temperatures(all_nodes),
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
                    all_nodes, done, break_readings = engine.run_segment(
                        state, all_nodes, segment, stats, ctx.read_temps
                    )
                    step += done
                    if break_readings is not None:
                        report = self.dtm.enforce(
                            state, break_readings, fmax_now
                        )
                        migrations += report.migrations
                        throttles += report.throttles
                        if report.migrations and done < segment.num_steps:
                            # The migration changed the core order the
                            # compile-time phase draws beyond the break
                            # assumed; unwind them so the next compile
                            # redraws in the new order (throttles leave
                            # the order intact — nothing to unwind).
                            rewind_unexecuted_draws(
                                segment,
                                times[
                                    segment.start_step : segment.start_step
                                    + done
                                ],
                            )
                        stats.duty_accum += state.duty_vector() * dt
                        stats.ips_sum += self._total_ips(state)
                    continue

            activity = state.activity_vector(t)
            core_temps = integrator.core_temperatures(all_nodes)
            breakdown = ctx.power_model.evaluate(
                state.freq_ghz, activity, core_temps, state.powered_on
            )
            all_nodes = integrator.step(all_nodes, breakdown.total_w)
            core_temps = integrator.core_temperatures(all_nodes)

            readings = ctx.read_temps(core_temps)
            report = self.dtm.enforce(state, readings, fmax_now)
            migrations += report.migrations
            throttles += report.throttles

            stats.worst = np.maximum(stats.worst, core_temps)
            stats.temp_sum += float(core_temps.mean())
            stats.peak = max(stats.peak, float(core_temps.max()))
            stats.tsafe_violations += int((core_temps > self.dtm.tsafe_k).sum())
            stats.duty_accum += state.duty_vector() * dt
            stats.ips_sum += self._total_ips(state)
            step += 1
        return all_nodes, migrations, throttles, arrived_threads

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

    @staticmethod
    def _mean_activity_vector(state: ChipState) -> np.ndarray:
        activity = np.zeros(state.num_cores)
        assignment = state.assignment
        for core in np.flatnonzero(assignment >= 0):
            activity[core] = state.threads[assignment[core]].mean_activity
        return activity

    @staticmethod
    def _total_ips(state: ChipState) -> float:
        total = 0.0
        assignment = state.assignment
        freq = state.freq_ghz
        for core in np.flatnonzero(assignment >= 0):
            total += state.threads[assignment[core]].ips_at(float(freq[core]))
        return total

    @staticmethod
    def _depart(
        state: ChipState, thread_indices: list[int], departed: set[int]
    ) -> None:
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

    @staticmethod
    def _qos_violations(
        state: ChipState, fmax_now: np.ndarray, departed: set[int] | None = None
    ) -> int:
        """Threads running below requirement at window end, plus
        threads that never got a core (departed threads completed their
        service and do not count)."""
        departed = departed or set()
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
