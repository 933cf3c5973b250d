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
"""

from __future__ import annotations

import numpy as np

from repro.obs import get_registry
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
    raises :class:`ThermalRunawayError`.

    Returns ``(core_temps_k, power_breakdown)``.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    obs = get_registry()
    obs.inc("thermal.coupled_solves")
    temps = np.full(network.num_cores, network.config.ambient_k)
    delta = np.inf
    iterations = 0
    for halving in range(DAMPING_HALVINGS + 1):
        if halving:
            # Out of iterations without diverging: a limit cycle.
            damping *= 0.5
            tol_k *= 0.5
            obs.inc("thermal.coupled_damping_halvings")
        for _ in range(max_iter):
            breakdown = power_model.evaluate(freq_ghz, activity, temps, powered_on)
            target = network.steady_state(breakdown.total_w)
            if not np.isfinite(target).all():
                raise ThermalRunawayError(
                    "leakage-temperature iteration diverged (thermal runaway)"
                )
            new_temps = temps + damping * (target - temps)
            delta = float(np.abs(new_temps - temps).max())
            temps = new_temps
            iterations += 1
            if delta < tol_k:
                obs.inc("thermal.coupled_iterations", iterations)
                return temps, power_model.evaluate(
                    freq_ghz, activity, temps, powered_on
                )
    raise ThermalRunawayError(
        f"no convergence within {max_iter} iterations and "
        f"{DAMPING_HALVINGS} damping halvings (last delta {delta:.3f} K)"
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
    still-unconverged rows with one vectorized power evaluation and one
    multi-RHS triangular solve against the shared Cholesky factor
    (:meth:`~repro.thermal.rcnet.ThermalRCNetwork.steady_state_batch`).
    Rows freeze as they converge, so late stragglers don't re-solve the
    finished ones.

    ``leakage_scale`` optionally carries per-row leakage multipliers
    (``(batch, num_cores)``) for batches whose rows are different chips;
    it is forwarded to :meth:`~repro.power.model.PowerModel.evaluate_batch`
    row-aligned with the other inputs.

    Returns ``(core_temps_k, power_breakdown)`` with ``(batch,
    num_cores)`` arrays.  Raises :class:`ThermalRunawayError` if any row
    diverges or fails to converge — same contract as the scalar solver.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    freq_ghz = np.atleast_2d(np.asarray(freq_ghz, dtype=float))
    activity = np.atleast_2d(np.asarray(activity, dtype=float))
    powered_on = np.atleast_2d(np.asarray(powered_on, dtype=bool))
    batch = freq_ghz.shape[0]
    if not (
        freq_ghz.shape == activity.shape == powered_on.shape
        and freq_ghz.shape[1] == network.num_cores
    ):
        raise ValueError("batch inputs must share shape (batch, num_cores)")
    if leakage_scale is not None:
        leakage_scale = np.atleast_2d(np.asarray(leakage_scale, dtype=float))
        if leakage_scale.shape != freq_ghz.shape:
            raise ValueError("leakage_scale must share shape (batch, num_cores)")
    obs = get_registry()
    obs.inc("thermal.coupled_solves", batch)
    temps = np.full((batch, network.num_cores), network.config.ambient_k)
    active = np.arange(batch)
    iterations = np.zeros(batch, dtype=int)
    for halving in range(DAMPING_HALVINGS + 1):
        if halving:
            # Only the cycling rows continue; converged rows stay frozen.
            damping *= 0.5
            tol_k *= 0.5
            obs.inc("thermal.coupled_damping_halvings", active.size)
        for _ in range(max_iter):
            breakdown = power_model.evaluate_batch(
                freq_ghz[active],
                activity[active],
                temps[active],
                powered_on[active],
                leakage_scale=(
                    None if leakage_scale is None else leakage_scale[active]
                ),
            )
            target = network.steady_state_batch(breakdown.total_w)
            if not np.isfinite(target).all():
                raise ThermalRunawayError(
                    "leakage-temperature iteration diverged (thermal runaway)"
                )
            new_temps = temps[active] + damping * (target - temps[active])
            delta = np.abs(new_temps - temps[active]).max(axis=1)
            temps[active] = new_temps
            iterations[active] += 1
            active = active[delta >= tol_k]
            if active.size == 0:
                obs.inc("thermal.coupled_iterations", int(iterations.sum()))
                return temps, power_model.evaluate_batch(
                    freq_ghz, activity, temps, powered_on,
                    leakage_scale=leakage_scale,
                )
    raise ThermalRunawayError(
        f"no convergence within {max_iter} iterations and "
        f"{DAMPING_HALVINGS} damping halvings "
        f"({active.size} of {batch} rows unconverged)"
    )
