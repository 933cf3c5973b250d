"""Exact transient solution via the matrix exponential.

For piecewise-constant power the RC network's transient has the closed
form ``T(t) = T_ss + expm(-C^-1 A t) (T(0) - T_ss)``.  This integrator
is the reference the backward-Euler ``TransientIntegrator`` is
validated against (``tests/test_thermal_exact.py``).
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from repro.thermal.rcnet import ThermalRCNetwork
from repro.util.validation import check_positive


class ExactIntegrator:
    """Matrix-exponential propagator for one fixed step size.

    Parameters
    ----------
    network:
        The RC network.
    dt_s:
        Step length; the propagator ``expm(-C^-1 A dt)`` is computed
        once at construction.
    """

    def __init__(self, network: ThermalRCNetwork, dt_s: float):
        self.network = network
        self.dt_s = check_positive("dt_s", dt_s)
        c_inv_a = network._system / network.capacitance[:, None]
        self._propagator = linalg.expm(-c_inv_a * self.dt_s)
        self._ambient = network.config.ambient_k

    def steady_state_all_nodes(self, core_power_w: np.ndarray) -> np.ndarray:
        """All-nodes steady state for a power vector."""
        return self.network.steady_state_all_nodes(core_power_w)

    def step(
        self, temps_all_nodes: np.ndarray, core_power_w: np.ndarray
    ) -> np.ndarray:
        """Advance exactly one ``dt`` under constant power."""
        temps_all_nodes = np.asarray(temps_all_nodes, dtype=float)
        if temps_all_nodes.shape != (self.network.num_nodes,):
            raise ValueError("temps_all_nodes has wrong shape")
        target = self.steady_state_all_nodes(core_power_w)
        return target + self._propagator @ (temps_all_nodes - target)

    def run(
        self,
        temps_all_nodes: np.ndarray,
        core_power_w: np.ndarray,
        num_steps: int,
    ) -> np.ndarray:
        """Advance ``num_steps`` under constant power.

        With constant power this costs a single matrix power, but the
        loop keeps semantics identical to the Euler integrator's ``run``.
        """
        if num_steps < 0:
            raise ValueError("num_steps must be >= 0")
        temps = np.asarray(temps_all_nodes, dtype=float).copy()
        for _ in range(num_steps):
            temps = self.step(temps, core_power_w)
        return temps

    def core_temperatures(self, temps_all_nodes: np.ndarray) -> np.ndarray:
        """Extract junction temperatures."""
        return np.asarray(temps_all_nodes)[: self.network.num_cores]
