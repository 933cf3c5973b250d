"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.constants import T_SAFE_KELVIN
from repro.util.validation import check_fraction, check_positive

#: What a field must hold: a real number unless listed in ``_KINDS``.
_NUMBER = ((int, float, np.integer, np.floating), "a number")
_KINDS = {
    "seed": ((int, np.integer), "an int"),
    "delta_candidates": ((bool, np.bool_), "true or false"),
}


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the accelerated-aging lifetime simulation.

    Parameters
    ----------
    lifetime_years:
        Total simulated lifetime (the paper evaluates 10 years).
    epoch_years:
        Length of one aging epoch (the paper uses 3-6 months; 0.5 keeps
        20 epochs per lifetime).
    dark_fraction_min:
        The platform's dark-silicon floor: at least this fraction of
        cores stays power-gated (the paper evaluates 0.25 and 0.50).
    window_s:
        Length of the fine-grained transient window simulated per epoch.
    control_dt_s:
        DTM control interval (and transient step) inside the window.
    load_factor:
        Fraction of the powered-on budget filled with threads (1.0 =
        every allowed core gets a thread).
    tsafe_k:
        Thermal emergency threshold.
    duty_scale:
        Multiplier applied when upscaling window duty cycles to the
        epoch (models the fraction of the epoch the workload set is
        actually resident; 1.0 = continuously loaded).
    settle_duty_fraction:
        Duty share charged to the *source* core of every settle-phase
        DTM migration.  Application arrivals recur throughout an epoch
        (minutes apart, Section VI), so a placement that DTM has to
        undo is re-attempted many times over the epoch — the vacated
        core keeps hosting fresh threads for a fraction of the time.
        Policies that rely on DTM to fix bad placements pay for it in
        aging, as the paper's Section II analysis describes.
    seed:
        Root seed for workload draws.
    delta_candidates:
        Evaluate Algorithm 1 candidate placements incrementally
        (:mod:`repro.core.delta_eval`): one base thermal solve per
        round plus per-candidate rank-1 updates.  The thermal
        reconstruction linearizes the off-column leakage response (millikelvin-scale deviation, asserted in
        tests), so mapping decisions can in principle differ from the
        dense path near exact ties.  ``False`` (CLI
        ``--no-delta-candidates``) restores the dense per-candidate
        evaluation exactly.
    """

    lifetime_years: float = 10.0
    epoch_years: float = 0.5
    dark_fraction_min: float = 0.5
    window_s: float = 30.0
    control_dt_s: float = 1.0
    load_factor: float = 1.0
    tsafe_k: float = T_SAFE_KELVIN
    duty_scale: float = 1.0
    settle_duty_fraction: float = 0.3
    seed: int = 0
    delta_candidates: bool = True

    def __post_init__(self) -> None:
        # ``float()`` in the range checks below would accept "0.5" or
        # True, and the run would fail on arithmetic far from the cause.
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            types, kind = _KINDS.get(name, _NUMBER)
            if not isinstance(value, types) or (
                isinstance(value, bool) and name != "delta_candidates"
            ):
                raise ValueError(f"{name} must be {kind}, got {value!r}")
        check_positive("lifetime_years", self.lifetime_years)
        check_positive("epoch_years", self.epoch_years)
        check_fraction("dark_fraction_min", self.dark_fraction_min)
        check_positive("window_s", self.window_s)
        check_positive("control_dt_s", self.control_dt_s)
        if self.control_dt_s > self.window_s:
            raise ValueError("control_dt_s must not exceed window_s")
        if not 0.0 < self.load_factor <= 1.0:
            raise ValueError("load_factor must lie in (0, 1]")
        check_positive("tsafe_k", self.tsafe_k)
        if not 0.0 < self.duty_scale <= 1.0:
            raise ValueError("duty_scale must lie in (0, 1]")
        if not 0.0 <= self.settle_duty_fraction <= 1.0:
            raise ValueError("settle_duty_fraction must lie in [0, 1]")

    @property
    def num_epochs(self) -> int:
        """Number of whole epochs in the lifetime."""
        return int(round(self.lifetime_years / self.epoch_years))

    @property
    def steps_per_window(self) -> int:
        """Control steps in the fine-grained window."""
        return int(round(self.window_s / self.control_dt_s))
