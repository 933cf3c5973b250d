"""Vectorized epoch-window engine: compiled timelines + fused segments.

The fine-grained transient window of :class:`~repro.sim.simulator.
LifetimeSimulator` spends the overwhelming majority of its steps in the
quiet regime — no application arrives or departs, no core approaches the
DTM trigger band, and the mapping is static.  The unfused loop still
pays full price per step: Python loops over threads for activity, duty
and IPS, fresh array copies for every ``ChipState`` property read, and a
complete ``DTMPolicy.enforce`` pass that ends up doing nothing.

This module compiles that quiet regime away while preserving *bit
identity* with the step-by-step path:

* :func:`compile_segment` turns the mapped threads' phase traces into a
  dense ``(steps, num_cores)`` dynamic-power matrix plus constant duty
  and IPS addends for a span of steps during which placement cannot
  change (no arrival/departure step inside, DTM quiet).  Trace
  extension replays the exact shared-RNG draw order of the per-step
  loop (see :func:`_extend_in_step_order`), so the streams stay
  bit-identical; when a mid-segment migration invalidates the core
  order the speculative draws assumed, :func:`rewind_unexecuted_draws`
  rolls the streams back to the executed prefix.
* :class:`FusedWindowEngine` runs such a segment through
  :meth:`~repro.thermal.rcnet.TransientIntegrator.run_segment` — the
  same backward-Euler matvec sequence — evaluating leakage with the
  identical IEEE op order the :class:`~repro.power.model.PowerModel`
  uses, and breaks out the moment any sensor reading crosses the DTM
  trigger band (a busy core above ``tsafe_k``) or a throttled core
  cools past recovery (below ``tsafe_k - headroom_k``).  On every other
  step, ``enforce`` provably would not act (see
  :meth:`~repro.dtm.policy.DTMPolicy.would_act`), so skipping it
  changes nothing.

The engine is only eligible when the power model is the stock
:class:`~repro.power.model.PowerModel` stack (a subclass could override
the op sequence the compiled path replicates) and the DTM policy
declares :attr:`~repro.dtm.policy.DTMPolicy.supports_fused_windows`.
Progress is observable through the ``sim.fused_steps``,
``sim.segment_breaks`` and ``sim.timeline_compiles`` counters.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

import numpy as np

from repro.mapping.state import ChipState
from repro.obs import get_registry
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import REFERENCE_TEMP_K, LeakageModel
from repro.power.model import PowerModel
from repro.thermal.rcnet import TransientIntegrator
from repro.workload.traces import PhaseTrace, sample_levels

__all__ = [
    "FusedWindowEngine",
    "SEGMENT_CHUNK_STEPS",
    "WindowStats",
    "compile_segment",
    "fused_window_unsupported",
    "leakage_w",
    "observe_fused_step",
    "rewind_unexecuted_draws",
    "total_ips",
]

#: Upper bound on the steps compiled into one timeline.  Bounds the
#: worst case where DTM breaks every segment after one step (each break
#: recompiles the remainder): with a cap, a window of ``S`` steps
#: recompiles at most ``O(S * CHUNK)`` matrix rows instead of
#: ``O(S^2)``, and each activity/power matrix stays small.
SEGMENT_CHUNK_STEPS = 128


@dataclass
class WindowStats:
    """Mutable per-window accumulators shared by both window paths,
    which update them through the same expressions (:meth:`observe`)."""

    worst: np.ndarray
    duty_accum: np.ndarray
    temp_sum: float = 0.0
    peak: float = 0.0
    tsafe_violations: int = 0
    ips_sum: float = 0.0

    def observe(self, core_temps: np.ndarray, tsafe_k: float) -> None:
        """Fold one step's post-step junction temperatures in."""
        self.worst = np.maximum(self.worst, core_temps)
        self.temp_sum += float(core_temps.mean())
        self.peak = max(self.peak, float(core_temps.max()))
        self.tsafe_violations += int((core_temps > tsafe_k).sum())


@dataclass
class CompiledSegment:
    """Dense power/duty/IPS view of a span of placement-stable steps.

    ``traces``, ``rng_states`` and ``phase_marks`` snapshot the trace
    extension this compile performed: the phase draws for the whole
    span are speculative (the unfused loop would draw them step by
    step), and :func:`rewind_unexecuted_draws` uses the snapshot to
    unwind them when a mid-segment DTM migration invalidates the core
    order they assumed.
    """

    start_step: int
    dyn_power_w: np.ndarray  # (num_steps, num_cores)
    duty_step: np.ndarray  # (num_cores,) == duty_vector() * dt
    ips_total: float  # == total_ips(state)
    busy: np.ndarray  # (num_cores,) bool — cores running a thread
    throttled_idx: np.ndarray  # indices of throttled cores
    traces: list  # mapped PhaseTraces, ascending core order
    rng_states: list  # (generator, state-dict) per unique generator
    phase_marks: list  # (trace, phase_count) before extension

    @property
    def num_steps(self) -> int:
        """Steps this segment covers."""
        return self.dyn_power_w.shape[0]


def total_ips(state: ChipState) -> float:
    """Instructions per second of every mapped thread on its core.

    ``ThreadSpec.ips_at``'s ``ipc * freq * 1e9`` per busy core, summed in
    core order from ``0.0``: both window paths add this total per step,
    so its order is fixed (``np.sum`` would add pairwise).
    """
    assignment = state.assignment_view
    mapped = np.flatnonzero(assignment >= 0)
    ipc = np.array([state.threads[index].ipc for index in assignment[mapped].tolist()])
    total = 0.0
    for ips in (ipc * state.freq_view[mapped] * 1e9).tolist():
        total += ips
    return total


def fused_window_unsupported(power_model: PowerModel, dtm) -> str | None:
    """Why a window cannot run fused segments (``None`` if it can); see
    the module docstring for the eligibility rule."""
    if not getattr(dtm, "supports_fused_windows", False):
        return "DTM policy lacks the fused-window contract"
    if (
        type(power_model) is not PowerModel
        or type(power_model.dynamic) is not DynamicPowerModel
        or type(power_model.leakage) is not LeakageModel
    ):
        return "non-stock power model stack"
    return None


def leakage_w(core_temps, powered, nominal_scaled, leakage: LeakageModel):
    """``LeakageModel.power_w``'s op order with the chip's
    ``nominal_w * leakage_scale`` hoisted out of the step loop:
    ``((nominal * scale) * exp(beta * (min(T, limit) - ref)))``."""
    factor = np.exp(
        leakage.beta_per_k
        * (np.minimum(core_temps, leakage.fit_limit_k) - REFERENCE_TEMP_K)
    )
    return np.where(powered, nominal_scaled * factor, leakage.gated_w)


def observe_fused_step(
    stats: WindowStats,
    segment: CompiledSegment,
    core_temps: np.ndarray,
    read_temps,
    tsafe_k: float,
    target_limit_k: float,
) -> np.ndarray | None:
    """Account one fused step; returns the sensor readings when they
    trip the DTM band, leaving that step's duty/IPS addends to the
    caller (it adds them after ``enforce``, the unfused ordering)."""
    readings = read_temps(core_temps)
    stats.observe(core_temps, tsafe_k)
    trip = bool((readings[segment.busy] > tsafe_k).any())
    if not trip and segment.throttled_idx.size > 0:
        trip = bool((readings[segment.throttled_idx] < target_limit_k).any())
    if trip:
        return readings
    stats.duty_accum += segment.duty_step
    stats.ips_sum += segment.ips_total
    return None


def rewind_unexecuted_draws(
    segment: CompiledSegment, executed_times_s: np.ndarray
) -> None:
    """Unwind a segment's speculative draws past the executed prefix.

    When a segment breaks and ``DTMPolicy.enforce`` migrates a thread,
    the core order changes for the steps that were never run — but
    their phase draws already happened at compile time, in the old
    order.  Restoring the snapshotted generator states, truncating the
    traces back to their marks, and replaying the extension over just
    the executed step times reproduces exactly the draws the unfused
    loop would have made by the break step (the replay is the same
    prefix of each stream, in the same order), leaving every generator
    positioned for the next compile to draw the rest in the *new* core
    order.
    """
    for generator, state in segment.rng_states:
        generator.bit_generator.state = state
    for trace, count in segment.phase_marks:
        trace.truncate_phases(count)
    _extend_in_step_order(segment.traces, executed_times_s)


def _extend_in_step_order(traces: list[PhaseTrace], times_s: np.ndarray) -> None:
    """Materialize trace phases in the per-step loop's exact draw order.

    Sibling traces of one application share a ``numpy`` Generator, and
    the unfused loop interleaves their lazy extensions grouped by step
    (ascending core order within a step).  Replaying that order — while
    jumping straight to the next step where any trace actually draws —
    keeps every shared RNG stream bit-identical to the step-by-step
    path, as long as the core order holds for every step covered.  A
    mid-segment DTM migration changes the core order for the remaining
    steps; :func:`rewind_unexecuted_draws` unwinds the speculative
    draws in that (rare) case.
    """
    if not len(times_s) or not traces:
        return
    times = times_s.tolist()
    end_time = times[-1]
    # (due step, core position) of every trace that draws within the
    # span; a trace is due at the first step whose time reaches its
    # horizon (bisect_left == searchsorted(side="left") on the same
    # floats).  Popping in this order extends the due traces step by
    # step, in core order within a step, as the unfused loop does; a
    # trace whose horizon lies past a step's time is not due there,
    # because extend_to would no-op it without drawing.
    due = []
    for i, trace in enumerate(traces):
        horizon = trace.horizon_s
        if horizon <= end_time:
            due.append((bisect.bisect_left(times, horizon), i))
    heapq.heapify(due)
    while due:
        step, i = due[0]
        trace = traces[i]
        trace.extend_to(times[step])
        horizon = trace.horizon_s
        if horizon > end_time:
            heapq.heappop(due)
        else:
            heapq.heapreplace(due, (bisect.bisect_left(times, horizon, step + 1), i))


def compile_segment(
    state: ChipState,
    power_model: PowerModel,
    times_s: np.ndarray,
    start_step: int,
    end_step: int,
    dt_s: float,
) -> CompiledSegment | None:
    """Compile the mapped threads into a dense segment timeline.

    ``times_s`` is the full window's step-time vector; the segment
    covers ``[start_step, end_step)``.  Returns ``None`` when a mapped
    thread carries a trace type the vectorized sampler cannot prove
    equivalent (the caller then falls back to the step-by-step path).
    """
    assignment = state.assignment_view
    mapped = np.flatnonzero(assignment >= 0)
    threads = [state.threads[index] for index in assignment[mapped].tolist()]
    traces: list[PhaseTrace] = [thread.trace for thread in threads]
    if any(type(trace) is not PhaseTrace for trace in traces):
        return None

    seg_times = times_s[start_step:end_step]
    # Snapshot the trace RNGs before the speculative extension, so a
    # mid-segment migration can unwind the not-yet-executed draws (see
    # rewind_unexecuted_draws).
    rng_states: list = []
    seen: set[int] = set()
    for trace in traces:
        generator = trace.generator
        if id(generator) not in seen:
            seen.add(id(generator))
            rng_states.append((generator, generator.bit_generator.state))
    phase_marks = [(trace, trace.phase_count) for trace in traces]
    _extend_in_step_order(traces, seg_times)

    activity = np.zeros((len(seg_times), state.num_cores))
    activity[:, mapped] = sample_levels(traces, seg_times)

    # Identical op sequence to PowerModel.evaluate's dynamic half, with
    # the per-step rows stacked: elementwise ops on the (k, n) batch
    # produce the same IEEE results row by row.
    dyn = np.where(
        state.powered_view,
        power_model.dynamic.power_w(state.freq_view, activity),
        0.0,
    )

    duty = np.zeros(state.num_cores)
    duty[mapped] = [thread.duty_cycle for thread in threads]

    get_registry().inc("sim.timeline_compiles")
    return CompiledSegment(
        start_step=start_step,
        dyn_power_w=dyn,
        duty_step=duty * dt_s,
        ips_total=total_ips(state),
        busy=assignment >= 0,
        throttled_idx=np.flatnonzero(state.throttled_view),
        traces=traces,
        rng_states=rng_states,
        phase_marks=phase_marks,
    )


class FusedWindowEngine:
    """Runs compiled segments through the transient integrator.

    Parameters
    ----------
    power_model:
        The chip's power model; must be the stock model stack for the
        compiled op sequences to be provably bit-identical.
    integrator:
        The window's transient integrator.
    dtm:
        The enforcement policy; supplies the trigger band and the
        :attr:`~repro.dtm.policy.DTMPolicy.supports_fused_windows`
        contract.
    """

    def __init__(
        self,
        power_model: PowerModel,
        integrator: TransientIntegrator,
        dtm,
    ):
        self.power_model = power_model
        self.integrator = integrator
        self.supported = (
            fused_window_unsupported(power_model, dtm) is None
            and type(integrator) is TransientIntegrator
        )
        # (nominal * scale) hoisted: the left-to-right product
        # PowerModel.evaluate computes per step, minus the per-step
        # temperature factor.
        self._nominal_scaled = (
            power_model.leakage.nominal_w * power_model.leakage_scale
        )
        self._dtm = dtm
        self._obs = get_registry()

    def run_segment(
        self,
        state: ChipState,
        temps_all_nodes: np.ndarray,
        segment: CompiledSegment,
        stats: WindowStats,
        read_temps,
    ) -> tuple[np.ndarray, int, np.ndarray | None]:
        """Advance through a compiled segment, breaking when DTM can act.

        Returns ``(temps_all_nodes, steps_done, break_readings)`` where
        ``break_readings`` is the sensor vector of the step that
        tripped the trigger band (``None`` when the segment completed
        quietly).  Stats are accumulated per step with the unfused
        loop's exact expressions; the duty/IPS addends of a breaking
        step are *not* accumulated here — the caller adds them after
        running ``enforce``, matching the unfused ordering.
        """
        powered = state.powered_view
        dyn = segment.dyn_power_w
        nominal_scaled = self._nominal_scaled
        leakage = self.power_model.leakage
        tsafe = self._dtm.tsafe_k
        target_limit = self._dtm.target_limit_k
        break_readings: list[np.ndarray] = []

        def core_power(i: int, core_temps: np.ndarray) -> np.ndarray:
            return dyn[i] + leakage_w(core_temps, powered, nominal_scaled, leakage)

        def on_step(i: int, core_temps: np.ndarray) -> bool:
            readings = observe_fused_step(
                stats, segment, core_temps, read_temps, tsafe, target_limit
            )
            if readings is None:
                return False
            break_readings.append(readings)
            return True

        temps_all_nodes, done = self.integrator.run_segment(
            temps_all_nodes, segment.num_steps, core_power, on_step
        )
        self._obs.inc("sim.fused_steps", done)
        if break_readings:
            self._obs.inc("sim.segment_breaks")
            return temps_all_nodes, done, break_readings[0]
        return temps_all_nodes, done, None
