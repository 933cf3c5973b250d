"""Leakage-temperature coupled steady state.

Leakage grows with temperature and temperature grows with leakage; the
coupled operating point is the fixed point of that loop.  For the operating
region of interest the loop gain is well below 1, so simple Picard
iteration converges in a handful of passes (a diverging iteration is the
signature of thermal runaway and is reported as such).

A damped iterate can also lock into a limit cycle that straddles the
tolerance (one VAA settle state oscillated ~0.052 K around
``tol_k = 0.05`` for all 400 passes).  A solve that runs out of
iterations without diverging therefore continues from its last iterate
with the damping halved, up to :data:`DAMPING_HALVINGS` times, before
it raises.  The tolerance halves with the damping, so every pass still
stops on the same fixed-point residual ``|target - T| < tol_k /
damping``.  Solves that converge never reach this path, so their
results are bit-identical to the plain iteration.

Both entry points run one batch kernel (the scalar solver is a one-row
batch).  It validates its inputs and hoists the temperature-independent
parts of Eq. 2 — the masked dynamic power and ``nominal_w *
leakage_scale`` — once per solve, so a Picard pass costs one
exponential, one sum and one triangular solve.  Every hoisted and
per-pass expression keeps the IEEE op order of
:meth:`~repro.power.model.PowerModel.evaluate`, so the iterates are
bit-identical to evaluating the power model on every pass.
"""

from __future__ import annotations

import numpy as np

from repro.obs import get_registry
from repro.power.leakage import REFERENCE_TEMP_K
from repro.power.model import PowerBreakdown, PowerModel
from repro.thermal.rcnet import ThermalRCNetwork


#: Restarts with halved damping granted to a solve that exhausts
#: ``max_iter`` without diverging.
DAMPING_HALVINGS = 3


class ThermalRunawayError(RuntimeError):
    """The leakage-temperature fixed point failed to converge."""


def solve_coupled_steady_state(
    network: ThermalRCNetwork,
    power_model: PowerModel,
    freq_ghz: np.ndarray,
    activity: np.ndarray,
    powered_on: np.ndarray,
    tol_k: float = 0.05,
    max_iter: int = 400,
    damping: float = 0.6,
) -> tuple[np.ndarray, PowerBreakdown]:
    """Solve for the self-consistent (temperature, power) steady state.

    Uses damped Picard iteration (``damping`` is the fraction of the new
    iterate blended in each pass); the saturating leakage fit guarantees
    a fixed point exists.  A limit cycle earns up to
    :data:`DAMPING_HALVINGS` restarts at halved damping (see the module
    doc); failure to converge after them indicates a modelling bug and
    raises :class:`ThermalRunawayError`.  Runs as a one-row batch of
    the kernel behind :func:`solve_coupled_steady_state_batch`.

    Returns ``(core_temps_k, power_breakdown)``.
    """
    _check_damping(damping)
    n = network.num_cores
    rows = []
    for name, values, dtype in (
        ("freq_ghz", freq_ghz, float),
        ("activity", activity, float),
        ("powered_on", powered_on, bool),
    ):
        values = np.asarray(values, dtype=dtype)
        if values.shape != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {values.shape}")
        rows.append(values[None, :])
    temps, breakdown = _solve(
        network, power_model, *rows, None, tol_k, max_iter, damping
    )
    return temps[0], PowerBreakdown(
        dynamic_w=breakdown.dynamic_w[0], leakage_w=breakdown.leakage_w[0]
    )


def solve_coupled_steady_state_batch(
    network: ThermalRCNetwork,
    power_model: PowerModel,
    freq_ghz: np.ndarray,
    activity: np.ndarray,
    powered_on: np.ndarray,
    tol_k: float = 0.05,
    max_iter: int = 400,
    damping: float = 0.6,
    leakage_scale: np.ndarray | None = None,
) -> tuple[np.ndarray, PowerBreakdown]:
    """Solve many leakage-temperature fixed points with stacked RHS.

    All inputs are ``(batch, num_cores)``; each row is an independent
    chip state iterated exactly as :func:`solve_coupled_steady_state`
    iterates a single one, but every Picard pass evaluates all
    still-unconverged rows at once and solves them with one multi-RHS
    triangular solve against the shared Cholesky factor
    (:meth:`~repro.thermal.rcnet.ThermalRCNetwork.steady_state_unchecked`).
    Rows freeze as they converge, so late stragglers don't re-solve the
    finished ones.

    ``leakage_scale`` optionally carries per-row leakage multipliers
    (``(batch, num_cores)``) for batches whose rows are different chips;
    it replaces the power model's own multipliers row-aligned with the
    other inputs (the dynamic and leakage parameters stay the model's).

    Returns ``(core_temps_k, power_breakdown)`` with ``(batch,
    num_cores)`` arrays.  Raises :class:`ThermalRunawayError` if any row
    diverges or fails to converge — same contract as the scalar solver.
    """
    _check_damping(damping)
    freq_ghz = np.atleast_2d(np.asarray(freq_ghz, dtype=float))
    activity = np.atleast_2d(np.asarray(activity, dtype=float))
    powered_on = np.atleast_2d(np.asarray(powered_on, dtype=bool))
    if not (
        freq_ghz.shape == activity.shape == powered_on.shape
        and freq_ghz.shape[1] == network.num_cores
    ):
        raise ValueError("batch inputs must share shape (batch, num_cores)")
    if leakage_scale is not None:
        leakage_scale = np.atleast_2d(np.asarray(leakage_scale, dtype=float))
        if leakage_scale.shape != freq_ghz.shape:
            raise ValueError("leakage_scale must share shape (batch, num_cores)")
    return _solve(
        network, power_model, freq_ghz, activity, powered_on, leakage_scale,
        tol_k, max_iter, damping,
    )


def _check_damping(damping: float) -> None:
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")


def _solve(
    network,
    power_model,
    freq_ghz: np.ndarray,
    activity: np.ndarray,
    powered_on: np.ndarray,
    leakage_scale: np.ndarray | None,
    tol_k: float,
    max_iter: int,
    damping: float,
) -> tuple[np.ndarray, PowerBreakdown]:
    """The damped-Picard kernel over shape-checked ``(batch, n)`` inputs.

    Only what depends on the iterate is checked per pass (positive
    temperatures, non-negative power, a finite target); everything else
    is checked here once.  The working set — the unconverged rows'
    temperatures and hoisted power terms — is re-gathered only on a
    pass where some row converges.
    """
    for name, values in (
        ("freq_ghz", freq_ghz),
        ("activity", activity),
        ("leakage_scale", leakage_scale),
    ):
        if values is not None and not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    leakage = power_model.leakage
    scale = power_model.leakage_scale if leakage_scale is None else leakage_scale
    if (scale <= 0).any():
        raise ValueError("variation_scale must be positive")
    shape = freq_ghz.shape
    # PowerModel.evaluate's terms, stacked, with the iterate-free parts
    # hoisted: where(on, p_dyn, 0) and the left product of
    # (nominal * scale) * factor.
    dyn = np.where(powered_on, power_model.dynamic.power_w(freq_ghz, activity), 0.0)
    nominal_scaled = np.broadcast_to(leakage.nominal_w * scale, shape)
    gated_w = leakage.gated_w
    beta = leakage.beta_per_k
    fit_limit = leakage.fit_limit_k

    def leakage_w(temps, nominal, on):
        if (temps <= 0).any():
            raise ValueError("temperature must be positive kelvin")
        factor = np.exp(beta * (np.minimum(temps, fit_limit) - REFERENCE_TEMP_K))
        return np.where(on, nominal * factor, gated_w)

    obs = get_registry()
    obs.inc("thermal.coupled_solves", shape[0])
    temps = np.full(shape, network.config.ambient_k)
    active = np.arange(shape[0])
    work_t, work_dyn, work_nominal, work_on = temps, dyn, nominal_scaled, powered_on
    iterations = 0
    for halving in range(DAMPING_HALVINGS + 1):
        if halving:
            # Only the cycling rows continue; converged rows stay frozen.
            damping *= 0.5
            tol_k *= 0.5
            obs.inc("thermal.coupled_damping_halvings", active.size)
        for _ in range(max_iter):
            total = work_dyn + leakage_w(work_t, work_nominal, work_on)
            if (total < 0).any():
                raise ValueError("core powers must be non-negative")
            obs.inc("thermal.steady_solves", active.size)
            target = network.steady_state_unchecked(total)
            if not np.isfinite(target).all():
                raise ThermalRunawayError(
                    "leakage-temperature iteration diverged (thermal runaway)"
                )
            new_t = work_t + damping * (target - work_t)
            delta = np.abs(new_t - work_t).max(axis=1)
            work_t = new_t
            iterations += active.size
            going = delta >= tol_k
            if not going.all():
                temps[active[~going]] = work_t[~going]
                active = active[going]
                work_t = work_t[going]
                work_dyn = work_dyn[going]
                work_nominal = work_nominal[going]
                work_on = work_on[going]
            if active.size == 0:
                obs.inc("thermal.coupled_iterations", iterations)
                return temps, PowerBreakdown(
                    dynamic_w=dyn,
                    leakage_w=leakage_w(temps, nominal_scaled, powered_on),
                )
    raise ThermalRunawayError(
        f"no convergence within {max_iter} iterations and "
        f"{DAMPING_HALVINGS} damping halvings "
        f"({active.size} of {shape[0]} rows unconverged)"
    )
