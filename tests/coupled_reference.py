"""Reference damped-Picard loops for the coupled steady state.

These are the two loops ``repro.thermal.coupled`` ran before its
solvers became one batch kernel: every pass evaluates the full power
model (:meth:`PowerModel.evaluate`, or its stacked form
:func:`reference_evaluate_batch`, with all their per-call checks) and
solves through ``scipy.linalg.cho_solve``.
``tests/test_thermal_coupled.py`` holds the kernel to these bit for
bit, counters included.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from repro.obs import get_registry
from repro.power.model import PowerBreakdown
from repro.thermal.coupled import DAMPING_HALVINGS, ThermalRunawayError
from repro.thermal.rcnet import ThermalRCNetwork


def reference_evaluate_batch(
    power_model, freq_ghz, activity, temp_k, powered_on, leakage_scale=None
) -> PowerBreakdown:
    """``PowerModel.evaluate`` over ``(batch, num_cores)`` rows.

    ``leakage_scale`` replaces the model's per-core multipliers row by
    row when the rows are different chips.
    """
    n = power_model.num_cores
    stacked = []
    for name, values in (
        ("freq_ghz", freq_ghz), ("activity", activity), ("temp_k", temp_k)
    ):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != n:
            raise ValueError(
                f"{name} must have shape (batch, {n}), got {values.shape}"
            )
        stacked.append(values)
    freq_ghz, activity, temp_k = stacked
    powered_on = np.asarray(powered_on, dtype=bool)
    if powered_on.shape != freq_ghz.shape:
        raise ValueError("powered_on must match the batch shape")
    if leakage_scale is None:
        leakage_scale = power_model.leakage_scale
    else:
        leakage_scale = np.asarray(leakage_scale, dtype=float)
        if leakage_scale.shape != freq_ghz.shape:
            raise ValueError("leakage_scale must match the batch shape")
    dynamic = np.where(
        powered_on, power_model.dynamic.power_w(freq_ghz, activity), 0.0
    )
    leak = power_model.leakage.power_w(temp_k, leakage_scale, powered_on)
    return PowerBreakdown(dynamic_w=dynamic, leakage_w=np.asarray(leak))


def reference_steady_state_batch(network, core_power_w: np.ndarray) -> np.ndarray:
    """``ThermalRCNetwork.steady_state_batch`` through ``cho_solve``.

    Networks that are not a :class:`ThermalRCNetwork` (the test fakes)
    answer through their own ``steady_state_batch``.
    """
    if not isinstance(network, ThermalRCNetwork):
        return network.steady_state_batch(core_power_w)
    core_power_w = np.asarray(core_power_w, dtype=float)
    if (core_power_w < 0).any():
        raise ValueError("core powers must be non-negative")
    batch = core_power_w.shape[0]
    get_registry().inc("thermal.steady_solves", batch)
    rhs = np.empty((network.num_nodes, batch))
    rhs[:] = network._entry.node_power_base[:, None]
    rhs[: network.num_cores, :] = core_power_w.T
    rises = linalg.cho_solve(network._system_cho, rhs, check_finite=False)
    return network.config.ambient_k + rises[: network.num_cores, :].T


def reference_solve(
    network,
    power_model,
    freq_ghz,
    activity,
    powered_on,
    tol_k=0.05,
    max_iter=400,
    damping=0.6,
):
    """The scalar damped-Picard loop, one power evaluation per pass."""
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    obs = get_registry()
    obs.inc("thermal.coupled_solves")
    temps = np.full(network.num_cores, network.config.ambient_k)
    delta = np.inf
    iterations = 0
    for halving in range(DAMPING_HALVINGS + 1):
        if halving:
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


def reference_solve_batch(
    network,
    power_model,
    freq_ghz,
    activity,
    powered_on,
    tol_k=0.05,
    max_iter=400,
    damping=0.6,
    leakage_scale=None,
):
    """The stacked damped-Picard loop, re-gathering every pass."""
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    freq_ghz = np.atleast_2d(np.asarray(freq_ghz, dtype=float))
    activity = np.atleast_2d(np.asarray(activity, dtype=float))
    powered_on = np.atleast_2d(np.asarray(powered_on, dtype=bool))
    batch = freq_ghz.shape[0]
    if leakage_scale is not None:
        leakage_scale = np.atleast_2d(np.asarray(leakage_scale, dtype=float))
    obs = get_registry()
    obs.inc("thermal.coupled_solves", batch)
    temps = np.full((batch, network.num_cores), network.config.ambient_k)
    active = np.arange(batch)
    iterations = np.zeros(batch, dtype=int)
    for halving in range(DAMPING_HALVINGS + 1):
        if halving:
            damping *= 0.5
            tol_k *= 0.5
            obs.inc("thermal.coupled_damping_halvings", active.size)
        for _ in range(max_iter):
            breakdown = reference_evaluate_batch(
                power_model,
                freq_ghz[active],
                activity[active],
                temps[active],
                powered_on[active],
                leakage_scale=(
                    None if leakage_scale is None else leakage_scale[active]
                ),
            )
            target = reference_steady_state_batch(network, breakdown.total_w)
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
                return temps, reference_evaluate_batch(
                    power_model, freq_ghz, activity, temps, powered_on,
                    leakage_scale=leakage_scale,
                )
    raise ThermalRunawayError(
        f"no convergence within {max_iter} iterations and "
        f"{DAMPING_HALVINGS} damping halvings "
        f"({active.size} of {batch} rows unconverged)"
    )
