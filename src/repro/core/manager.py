"""The Hayat run-time manager: the epoch-level policy entry point.

Per aging epoch, the manager (1) selects a variation- and temperature-
aware Dark Core Map sized to the workload under the platform's
dark-silicon floor, and (2) runs Algorithm 1 to place every thread.  It
implements the policy protocol the lifetime simulator drives (see
:class:`repro.sim.simulator.LifetimeSimulator`), as do the baselines.
"""

from __future__ import annotations

import numpy as np

from repro.core.boost import governed_boost
from repro.core.dcm import variation_aware_dcm
from repro.core.estimation import DutyCycleAssumption, OnlineHealthEstimator
from repro.core.mapper import HayatMapper
from repro.core.weighting import WeightingConfig, WeightingFunction
from repro.mapping.state import ChipState
from repro.util.constants import T_SAFE_KELVIN
from repro.workload.mix import WorkloadMix


class HayatManager:
    """Variation- and dark-silicon-aware aging management (the paper).

    Parameters
    ----------
    weighting_config:
        Eq. 9 coefficient schedule; defaults to the paper's values.
    duty_assumption:
        Duty-cycle policy for candidate evaluation (Section IV-C).
    tsafe_k:
        Thermal constraint.
    chip_health_coeff:
        Strength of the Eq. 6 chip-wide health goal inside the mapper.
    """

    name = "hayat"

    def __init__(
        self,
        weighting_config: WeightingConfig | None = None,
        duty_assumption: DutyCycleAssumption = DutyCycleAssumption.KNOWN,
        tsafe_k: float = T_SAFE_KELVIN,
        chip_health_coeff: float = 4.0,
        comm_weight: float = 0.0,
        boost: bool = False,
    ):
        self.weighting_config = (
            weighting_config if weighting_config is not None else WeightingConfig()
        )
        self.duty_assumption = duty_assumption
        self.tsafe_k = float(tsafe_k)
        self.chip_health_coeff = float(chip_health_coeff)
        #: Optional communication-locality term in candidate ranking
        #: (0 = the paper's Algorithm 1; see HayatMapper.comm_weight).
        self.comm_weight = float(comm_weight)
        #: Spend leftover thermal headroom on throughput via the
        #: thermally-governed boost (extension; default off = paper
        #: behaviour where threads run at their required frequency).
        self.boost = bool(boost)

    def prepare_epoch(self, ctx, mix: WorkloadMix, epoch_years: float) -> ChipState:
        """Build the epoch's chip state: DCM plus thread mapping.

        ``ctx`` is a :class:`repro.sim.context.ChipContext`-like object
        exposing the chip, predictor, aging table, monitored health, and
        elapsed years.
        """
        state, fmax_now, health_now, mapper = self._prepare_lane(ctx, mix)
        unmapped = mapper.map_threads(
            state,
            fmax_now,
            health_now,
            epoch_years=epoch_years,
            elapsed_years=ctx.elapsed_years,
            initial_temps_k=ctx.last_temps_k,
        )
        self._finish_epoch(ctx, state, unmapped, fmax_now)
        return state

    def prepare_epoch_batch(
        self, ctxs, mixes, epoch_years: float
    ) -> list[ChipState]:
        """Epoch decisions for a whole chip batch through the cross-lane
        batched mapper (:mod:`repro.core.mapper_batch`).

        ``states[i]`` is bit-identical to
        ``self.prepare_epoch(ctxs[i], mixes[i], epoch_years)``: the DCM
        build, fencing, and unmapped-thread absorption stay per chip,
        and only the mapper's estimate calls are stacked (lanes that
        cannot share kernels map in separate groups inside
        :func:`repro.core.mapper_batch.map_threads_batch`).
        """
        from repro.core.mapper_batch import MapperLane, map_threads_batch

        if type(self).prepare_epoch is not HayatManager.prepare_epoch:
            # A subclass customized the per-chip decision without
            # providing a batched counterpart; honor its override.
            return [
                self.prepare_epoch(ctx, mix, epoch_years)
                for ctx, mix in zip(ctxs, mixes)
            ]
        lanes = []
        for ctx, mix in zip(ctxs, mixes):
            state, fmax_now, health_now, mapper = self._prepare_lane(ctx, mix)
            lanes.append(
                MapperLane(
                    mapper=mapper,
                    state=state,
                    fmax_now_ghz=fmax_now,
                    health_now=health_now,
                    elapsed_years=ctx.elapsed_years,
                    initial_temps_k=ctx.last_temps_k,
                )
            )
        unmapped_lists = map_threads_batch(lanes, epoch_years)
        for ctx, lane, unmapped in zip(ctxs, lanes, unmapped_lists):
            self._finish_epoch(ctx, lane.state, unmapped, lane.fmax_now_ghz)
        return [lane.state for lane in lanes]

    def _prepare_lane(self, ctx, mix: WorkloadMix):
        """Everything ``prepare_epoch`` does before the mapping loop:
        DCM selection, reserved-core fencing, and the mapper build.
        Returns ``(state, fmax_now, health_now, mapper)``."""
        health_now = ctx.measured_health()
        fmax_now = ctx.chip.fmax_init_ghz * health_now
        num_on = len(mix.threads)
        if num_on > ctx.max_on_cores:
            raise ValueError(
                f"mix has {num_on} threads but the dark-silicon floor "
                f"allows only {ctx.max_on_cores} powered-on cores"
            )
        required = np.array([t.fmin_ghz for t in mix.threads])
        # Per-core expected dissipation for the DCM's thermal greedy:
        # a typical thread's dynamic power plus this core's (variation-
        # dependent) leakage at operating temperature.  High-leakage
        # cores carry a larger thermal footprint and tend to stay dark.
        core_power_est = 2.5 + 1.9 * ctx.chip.leakage_scale
        dcm, reserved = variation_aware_dcm(
            ctx.floorplan,
            num_on,
            ctx.predictor.influence,
            fmax_now,
            required,
            health=health_now,
            core_power_w=core_power_est,
        )
        state = ChipState(ctx.chip.num_cores, mix.threads, dcm)
        # Power-fence the reserved fast cores that stayed dark: DTM may
        # not wake them, so their duty cycle remains exactly zero and
        # they age not at all (the "saved for later" cores of Sec. II).
        dark_reserved = reserved[~dcm.powered_on[reserved]] if reserved.size else reserved
        state.fence(dark_reserved)
        return state, fmax_now, health_now, self._mapper(ctx)

    def _mapper(self, ctx) -> HayatMapper:
        """The Algorithm 1 engine for ``ctx``'s chip under this policy."""
        return HayatMapper(
            OnlineHealthEstimator(ctx.predictor, ctx.table, self.duty_assumption),
            WeightingFunction(self.weighting_config),
            tsafe_k=self.tsafe_k,
            chip_health_coeff=self.chip_health_coeff,
            comm_weight=self.comm_weight,
            hop_matrix=ctx.noc.hop_matrix if self.comm_weight > 0 else None,
        )

    def _finish_epoch(self, ctx, state, unmapped, fmax_now) -> None:
        """Everything ``prepare_epoch`` does after the mapping loop."""
        self._absorb_unmapped(state, unmapped, fmax_now)
        if self.boost:
            governed_boost(
                state, fmax_now, ctx.predictor, tsafe_k=self.tsafe_k
            )

    def place_arrival(
        self,
        ctx,
        state: ChipState,
        thread_indices: list[int],
        epoch_years: float,
        current_temps_k: np.ndarray | None = None,
    ) -> None:
        """Incrementally place newly-arrived threads (Section VI path).

        Runs Algorithm 1 only for the unplaced threads against the live
        chip state — the fast (~ms) decision the paper budgets 1.6 ms
        for, as opposed to a full epoch re-plan.
        """
        health_now = ctx.measured_health()
        fmax_now = ctx.chip.fmax_init_ghz * health_now
        self._wake_for_arrivals(ctx, state, thread_indices, fmax_now)
        unmapped = self._mapper(ctx).map_threads(
            state,
            fmax_now,
            health_now,
            epoch_years=epoch_years,
            elapsed_years=ctx.elapsed_years,
            initial_temps_k=current_temps_k,
        )
        self._absorb_unmapped(state, unmapped, fmax_now)

    @staticmethod
    def _wake_for_arrivals(
        ctx, state: ChipState, thread_indices: list[int], fmax_now: np.ndarray
    ) -> None:
        """Power on dark cores for arriving threads, within the floor.

        Picks, per missing slot, the dark non-fenced core that predicts
        the smallest peak-temperature increase among those fast enough
        for the stiffest still-unserved arrival — the same greedy step
        the DCM builder uses.
        """
        demands = sorted(
            (state.threads[i].fmin_ghz for i in thread_indices), reverse=True
        )
        needed = len(demands) - len(state.idle_on_cores())
        budget = ctx.max_on_cores - state.dcm.num_on
        influence = ctx.predictor.influence
        rise = influence[:, state.powered_on].sum(axis=1)  # rough load proxy
        for slot in range(min(needed, budget)):
            fenced = state.fenced
            dark = np.flatnonzero(~state.powered_on & ~fenced)
            if dark.size == 0:
                return
            demand = demands[slot] if slot < len(demands) else demands[-1]
            fast = dark[fmax_now[dark] >= demand]
            candidates = fast if fast.size else dark
            best = int(candidates[np.argmin(rise[candidates])])
            state.power_on(best)

    @staticmethod
    def _absorb_unmapped(
        state: ChipState, unmapped: list[int], fmax_now: np.ndarray
    ) -> None:
        """Last-resort placement for threads the mapper skipped.

        A skipped thread still has to run somewhere (deadline pressure
        beats elegance): it takes the fastest idle powered-on core at
        that core's safe frequency, even if below the thread's
        requirement — a QoS violation the simulator records via the
        throughput metrics.
        """
        for thread_index in unmapped:
            idle = state.idle_on_cores()
            if idle.size == 0:
                return  # nothing left; thread stays unscheduled
            core = int(idle[np.argmax(fmax_now[idle])])
            thread = state.threads[thread_index]
            freq = min(thread.fmin_ghz, float(fmax_now[core]))
            state.place(thread_index, core, max(freq, 1e-3))
