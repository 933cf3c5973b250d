"""Combined per-core power model (Eq. 2 of the paper).

``p_i = p_dyn(thread, f) + p_leak(variation, T)`` for powered-on cores,
gated leakage otherwise.  This is the single point where the thermal
simulator obtains its power inputs, and where the leakage/temperature
feedback loop closes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import LeakageModel


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-core power split into its components (all watts, per core)."""

    dynamic_w: np.ndarray
    leakage_w: np.ndarray

    @property
    def total_w(self) -> np.ndarray:
        """Total per-core power."""
        return self.dynamic_w + self.leakage_w

    @property
    def chip_total_w(self) -> float:
        """Whole-chip power."""
        return float(self.total_w.sum())


class PowerModel:
    """Chip-level power evaluation for a mapping state.

    Parameters
    ----------
    dynamic:
        Dynamic power model (shared by all cores).
    leakage:
        Leakage model (shared by all cores).
    leakage_scale:
        Per-core manufacturing leakage multipliers
        (:attr:`repro.variation.Chip.leakage_scale`).
    """

    def __init__(
        self,
        dynamic: DynamicPowerModel,
        leakage: LeakageModel,
        leakage_scale: np.ndarray,
    ):
        leakage_scale = np.asarray(leakage_scale, dtype=float)
        if leakage_scale.ndim != 1 or (leakage_scale <= 0).any():
            raise ValueError("leakage_scale must be a positive 1-D array")
        self.dynamic = dynamic
        self.leakage = leakage
        self.leakage_scale = leakage_scale
        self.num_cores = leakage_scale.shape[0]

    @classmethod
    def for_chip(cls, chip, dynamic=None, leakage=None) -> "PowerModel":
        """Build a power model for a :class:`repro.variation.Chip`.

        Shares the chip's Vdd and subthreshold parameters so the power
        and variation models stay mutually consistent.
        """
        params = chip.params
        if dynamic is None:
            dynamic = DynamicPowerModel(vdd=params.vdd)
        if leakage is None:
            leakage = LeakageModel(
                vth_nominal=params.vth_nominal,
                subthreshold_slope=params.subthreshold_slope,
            )
        return cls(dynamic, leakage, chip.leakage_scale)

    def evaluate(
        self,
        freq_ghz: np.ndarray,
        activity: np.ndarray,
        temp_k: np.ndarray,
        powered_on: np.ndarray,
    ) -> PowerBreakdown:
        """Per-core power for one chip state.

        Parameters
        ----------
        freq_ghz, activity, temp_k, powered_on:
            Flat per-core arrays: operating frequency, workload activity
            factor (0 for unmapped cores), junction temperature, and
            power state (``True`` = on).  Frequency and activity of
            powered-off cores are ignored.
        """
        freq_ghz = self._flat("freq_ghz", freq_ghz)
        activity = self._flat("activity", activity)
        temp_k = self._flat("temp_k", temp_k)
        powered_on = np.asarray(powered_on, dtype=bool)
        if powered_on.shape != (self.num_cores,):
            raise ValueError("powered_on must match num_cores")
        dynamic = np.where(
            powered_on, self.dynamic.power_w(freq_ghz, activity), 0.0
        )
        leak = self.leakage.power_w(temp_k, self.leakage_scale, powered_on)
        return PowerBreakdown(dynamic_w=dynamic, leakage_w=np.asarray(leak))

    def _flat(self, name: str, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_cores,):
            raise ValueError(
                f"{name} must have shape ({self.num_cores},), got {values.shape}"
            )
        return values
