"""Incremental delta-candidate evaluation for Algorithm 1.

Before this engine most of a batched Hayat campaign's wall time went to
``sim.decision`` (EXPERIMENTS.md records what the engine measured),
and the candidate rows carry unexploited structure: every candidate row
the mapper scores differs from its lane's *base placement*
in exactly one column ``c`` (the thread's frequency/activity landing on
candidate core ``c``).  The dense path nevertheless re-runs the full
leakage-corrected superposition — a (batch × n) @ (n × n) matmul per
correction pass — for every candidate.  This module replaces that with:

1. **One base solve per round** (:meth:`DeltaEvaluator.solve_base`): the
   incumbent power vector run through the exact ``predict_batch`` loop
   (same op order, bit-identical temps for the base row), capturing the
   per-pass input temperatures and leakage vectors.

2. **A linearized perturbation propagation**
   (:meth:`DeltaEvaluator.candidate_temps`): candidate ``c``'s power
   vector differs from the base at column ``c`` only, so its first-pass
   perturbation field is exactly ``ΔT_1 = u_0 * K[:, c]`` with
   ``u_0 = ΔP_dyn`` — a rank-1 update along the influence column.
   Later passes feed the perturbation back through the leakage
   exponential.  Writing ``s = β·leak_base`` for the per-core leakage
   slope, the *off-column* response (fractions of a kelvin) is
   linearized while the moved column — where the perturbation is K[c,c]
   times larger — keeps the exact exponential:

       ΔT_{i+1} = (s ⊙ ΔT_i) @ K.T + u_i * K[:, c]
       u_i = ΔP_dyn + [leak(T_base_i[c] + ΔT_i[c]) - leak_base_i[c]]
             - s[c]·ΔT_i[c]

   (the subtraction removes the linearized moved-column term the field
   product already carries, replacing it with the exact one).  Per
   correction pass this costs one (batch, n) @ (n, n) matmul, an
   elementwise product, and one scalar exponential per candidate —
   replacing the dense path's per-pass matmul *plus* its full
   (batch, n) exponential/`where` power-evaluation sweep, and skipping
   the dense path's first pass entirely (the rank-1 seed is exact).
   The candidate frequency/activity/powered matrices are never built.

**Error model.**  The only model deviation from the dense path is the
off-column leakage linearization, a second-order term ``~ ½·β·ΔT² ``
per watt of off-column leakage — single-digit millikelvin at full
thread-power deltas, asserted empirically in
``tests/test_delta_eval.py`` across random chips and seeds.  With
``leakage_iterations=0`` there is no feedback pass and the delta temps
are numerically exact (the same real-arithmetic value; last-bit
rounding may differ because the sum is associated differently).
Because mapper temperatures only influence *discrete* choices (thermal
keeps, argmax winners), campaign results are bit-identical to the dense
path whenever no choice flips — and ``--no-delta-candidates`` restores
the dense path exactly.

Observability: the mapper times the delta evaluation under
``sim.delta_eval`` and count ``sim.delta_rounds`` (lockstep rounds that
took the delta path).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.power.leakage import REFERENCE_TEMP_K
from repro.thermal.predictor import ThermalPredictor

__all__ = [
    "DeltaEvaluator",
    "DeltaOptions",
    "current_delta_options",
    "delta_options",
]


@dataclass(frozen=True)
class DeltaOptions:
    """Context-scoped delta-candidate options.

    ``enabled=False`` (the ``--no-delta-candidates`` escape hatch)
    restores the dense per-candidate ``predict_batch`` exactly.

    ``min_dense_rows`` is the cost gate: a mapping round takes the delta
    path only when the dense work it would replace — candidate rows
    times cores — reaches this product.  Below it the per-round
    ``solve_base`` replay costs more than the small dense matmul it
    avoids (measured break-even on the 64-core paper chip is a full
    single-lane round, rows*n ~ 4k), so one-lane mapping
    stays dense while stacked multi-lane rounds engage.  ``0`` forces
    the delta path for every round (the accuracy/identity tests use
    this).  The two routes round differently, and a decision near a
    tie can flip between them; because the gate counts *stacked* rows,
    a lane's route — and so a chip's lifetime — can depend on how many
    lanes share its round.  ROADMAP.md measured 5 of 96 lifetimes
    changing with batch size at one BLAS thread; with ``0``, 16 of 16
    matched.
    """

    enabled: bool = True
    min_dense_rows: int = 8192


_override_stack: list[DeltaOptions] = []


def current_delta_options() -> DeltaOptions:
    """The options in effect: the innermost :func:`delta_options`
    context, or the defaults."""
    return _override_stack[-1] if _override_stack else DeltaOptions()


@contextmanager
def delta_options(enabled=None, min_dense_rows=None):
    """Scoped delta options; ``None`` inherits.

    The simulators wrap each run in this so
    ``SimulationConfig.delta_candidates`` governs every mapping decision
    the run performs, nested runs included.
    """
    base = current_delta_options()
    merged = DeltaOptions(
        enabled=base.enabled if enabled is None else bool(enabled),
        min_dense_rows=(
            base.min_dense_rows
            if min_dense_rows is None
            else int(min_dense_rows)
        ),
    )
    _override_stack.append(merged)
    try:
        yield merged
    finally:
        _override_stack.pop()


class _BaseSolve:
    """Captured state of one base-placement thermal solve.

    ``temps_in[i]`` is the (lanes, n) temperature field entering
    correction pass ``i``; ``leak_only[i]`` the leakage power (gating
    applied, dynamic power *not* added) that pass computed from it.
    ``final`` is the solved temperature field — bit-identical to what
    ``predict_batch`` returns for the base rows.  ``nominal_scaled`` and
    ``dyn_base`` let the candidate recursion gather its column scalars
    without re-deriving power-model terms; ``slope`` is the per-core
    leakage-vs-temperature derivative at the last pass's field (zero for
    gated cores, whose leakage is constant, and for cores clamped at the
    fit limit, where the exponential input saturates).
    """

    __slots__ = (
        "temps_in", "leak_only", "final", "nominal_scaled", "dyn_base",
        "slope",
    )

    def __init__(
        self, temps_in, leak_only, final, nominal_scaled, dyn_base, slope
    ):
        self.temps_in = temps_in
        self.leak_only = leak_only
        self.final = final
        self.nominal_scaled = nominal_scaled
        self.dyn_base = dyn_base
        self.slope = slope


class DeltaEvaluator:
    """Rank-1 candidate-temperature evaluation for one predictor.

    Only valid for plain :class:`ThermalPredictor` semantics — the
    mapper guards engagement with ``type(predictor) is
    ThermalPredictor`` so any subclass (overridden leakage loop, custom
    superposition) falls back to the dense path it defines.
    """

    __slots__ = ("predictor",)

    def __init__(self, predictor: ThermalPredictor):
        self.predictor = predictor

    def solve_base(
        self,
        freq_ghz,
        activity,
        powered_on,
        initial_temps_k,
        leakage_scale=None,
    ) -> _BaseSolve:
        """Solve the base placements' temperatures, capturing iterates.

        Inputs are per-lane vectors or ``(lanes, n)`` matrices — the
        *incumbent* running vectors, without any candidate thread
        placed.  The loop replays :meth:`ThermalPredictor.predict_batch`
        op for op (same scratch expressions, same matmul), so ``final``
        carries the exact temperatures the dense path computes for these
        rows; the per-pass captures cost two (lanes, n) copies per pass.
        """
        pred = self.predictor
        freq_ghz = np.atleast_2d(np.asarray(freq_ghz, dtype=float))
        activity = np.atleast_2d(np.asarray(activity, dtype=float))
        powered_on = np.atleast_2d(np.asarray(powered_on, dtype=bool))
        lanes, n = freq_ghz.shape
        if n != pred.num_cores:
            raise ValueError("base inputs must have num_cores columns")

        dyn = pred.power_model.dynamic.power_w(freq_ghz, activity)
        np.multiply(dyn, powered_on, out=dyn)
        leakage = pred.power_model.leakage
        gated = leakage.gated_w
        if leakage_scale is None:
            scale = pred.power_model.leakage_scale
            nominal_scaled = np.broadcast_to(
                leakage.nominal_w * scale[None, :], (lanes, n)
            )
        else:
            scale = np.atleast_2d(np.asarray(leakage_scale, dtype=float))
            nominal_scaled = leakage.nominal_w * scale

        temps = np.atleast_2d(
            np.asarray(initial_temps_k, dtype=float)
        ).astype(float, copy=True)
        scratch = np.empty_like(temps)
        product = np.empty_like(temps)
        fit_limit = leakage.fit_limit_k
        beta = leakage.beta_per_k
        temps_in: list[np.ndarray] = []
        leak_only: list[np.ndarray] = []
        for _ in range(pred.leakage_iterations + 1):
            temps_in.append(temps.copy())
            np.minimum(temps, fit_limit, out=scratch)
            scratch -= REFERENCE_TEMP_K
            scratch *= beta
            np.exp(scratch, out=scratch)
            np.multiply(nominal_scaled, scratch, out=scratch)
            leak = np.where(powered_on, scratch, gated)
            leak_only.append(leak)
            leak = leak + dyn
            np.matmul(leak, pred.influence.T, out=product)
            np.add(pred._baseline, product, out=temps)
        slope = beta * leak_only[-1]
        slope *= powered_on & (temps_in[-1] < fit_limit)
        return _BaseSolve(temps_in, leak_only, temps, nominal_scaled, dyn, slope)

    def candidate_temps(
        self, base: _BaseSolve, lane, cols, new_dyn_w
    ) -> np.ndarray:
        """Candidate temperature rows from a captured base solve.

        ``lane[r]`` names the base row candidate ``r`` perturbs,
        ``cols[r]`` the moved column (must be a powered core — the
        mappers only generate candidates from powered idle cores), and
        ``new_dyn_w[r]`` the thread's dynamic power landing there.
        Returns the (len(cols), n) temperature matrix the dense
        ``predict_batch`` would compute for those candidate rows, up to
        the documented off-column second-order leakage term (exact when
        ``leakage_iterations == 0``).
        """
        pred = self.predictor
        influence = pred.influence
        leakage = pred.power_model.leakage
        beta = leakage.beta_per_k
        fit_limit = leakage.fit_limit_k
        lane = np.asarray(lane, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        total = cols.shape[0]
        rows = np.arange(total)
        kcol = influence.T[cols]  # row r: influence[:, cols[r]]
        nom_c = base.nominal_scaled[lane, cols]
        ddyn = np.asarray(new_dyn_w, dtype=float) - base.dyn_base[lane, cols]
        niter = len(base.temps_in)
        # ΔT_1: the exact rank-1 image of the dynamic-power change.
        field = ddyn[:, None] * kcol
        if niter > 1:
            srows = base.slope[lane]
            slope_c = base.slope[lane, cols]
            scratch = np.empty_like(field)
            for i in range(1, niter):
                dtc = field[rows, cols]  # ΔT_i at the moved column
                t_pert = base.temps_in[i][lane, cols] + dtc
                np.minimum(t_pert, fit_limit, out=t_pert)
                t_pert -= REFERENCE_TEMP_K
                t_pert *= beta
                np.exp(t_pert, out=t_pert)
                t_pert *= nom_c  # perturbed column leakage
                t_pert -= base.leak_only[i][lane, cols]  # minus base leakage
                # The s ⊙ ΔT_i product carries the *linearized*
                # moved-column response; the exact exponential replaces
                # it, so the column scalar subtracts the linear piece.
                t_pert -= slope_c * dtc
                u = ddyn + t_pert
                np.multiply(srows, field, out=scratch)
                np.matmul(scratch, influence.T, out=field)
                field += u[:, None] * kcol
        field += base.final[lane]
        return field
