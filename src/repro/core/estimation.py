"""The online health-estimation flow of Fig. 5.

Couples the lightweight thermal predictor (step 2 of Section IV-B) with
the 3D-aging-table walk (steps 1 and 3): for a candidate chip state,
predict the per-core temperatures, derive per-core duty cycles under a
configurable assumption, and walk the table to the estimated next-epoch
health map.  Both primitives the paper's overhead discussion times —
``predictTemperature`` and ``estimateNextHealth`` — live here.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.aging.tables import AgingTable
from repro.aging.walk import WalkEngine
from repro.thermal.predictor import ThermalPredictor


class DutyCycleAssumption(enum.Enum):
    """How the candidate evaluation fills in unknown duty cycles.

    The paper (Section IV-C): "The duty cycle can be set with either a
    generic (i.e., 50 %), known (estimated from offline data by an
    available netlist), or worst-case (85-100 %)".
    """

    GENERIC = "generic"
    KNOWN = "known"
    WORST_CASE = "worst_case"


#: Duty value used under the GENERIC assumption.
GENERIC_DUTY = 0.5

#: Duty value used under the WORST_CASE assumption (middle of 85-100 %).
WORST_CASE_DUTY = 0.925


class OnlineHealthEstimator:
    """Run-time health estimation for candidate chip states.

    Parameters
    ----------
    predictor:
        The superposition thermal predictor (learned offline).
    table:
        The design's 3D aging table (generated offline).
    duty_assumption:
        Which duty-cycle policy candidate evaluation uses.
    """

    def __init__(
        self,
        predictor: ThermalPredictor,
        table: AgingTable,
        duty_assumption: DutyCycleAssumption = DutyCycleAssumption.KNOWN,
    ):
        self.predictor = predictor
        self.table = table
        self.duty_assumption = duty_assumption

    @property
    def num_cores(self) -> int:
        """Core count of the modeled chip."""
        return self.predictor.num_cores

    def resolve_duties(self, known_duties: np.ndarray) -> np.ndarray:
        """Apply the duty-cycle assumption to a per-core duty vector.

        ``known_duties`` carries the trace-derived duties (zero for
        idle/dark cores); GENERIC and WORST_CASE replace the non-zero
        entries with their fixed levels.
        """
        known_duties = np.asarray(known_duties, dtype=float)
        if self.duty_assumption is DutyCycleAssumption.KNOWN:
            return known_duties
        level = (
            GENERIC_DUTY
            if self.duty_assumption is DutyCycleAssumption.GENERIC
            else WORST_CASE_DUTY
        )
        return np.where(known_duties > 0, level, 0.0)

    def predict_temperature(
        self,
        freq_ghz: np.ndarray,
        activity: np.ndarray,
        powered_on: np.ndarray,
        current_temps_k: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-core temperature prediction (the 25 us primitive)."""
        return self.predictor.predict(
            freq_ghz, activity, powered_on, initial_temps_k=current_temps_k
        )

    def predict_temperature_batch(
        self,
        freq_ghz: np.ndarray,
        activity: np.ndarray,
        powered_on: np.ndarray,
        current_temps_k: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched variant scoring many candidates at once."""
        return self.predictor.predict_batch(
            freq_ghz, activity, powered_on, initial_temps_k=current_temps_k
        )

    def estimate_next_health(
        self,
        temps_k: np.ndarray,
        duties: np.ndarray,
        current_health: np.ndarray,
        epoch_years: float,
    ) -> np.ndarray:
        """Next-epoch health map (the 10 us primitive).

        Accepts flat per-core vectors or ``(batch, num_cores)`` matrices
        (every batch row shares ``current_health``).
        """
        temps_k = np.asarray(temps_k, dtype=float)
        duties = self.resolve_duties(duties)
        current_health = np.asarray(current_health, dtype=float)
        if temps_k.ndim == 1:
            return WalkEngine(self.table).next_health(
                temps_k, duties, current_health, epoch_years
            )
        batch, n = temps_k.shape
        flat_health = np.broadcast_to(current_health, (batch, n)).reshape(-1)
        out = WalkEngine(self.table).next_health(
            temps_k.reshape(-1), duties.reshape(-1), flat_health, epoch_years,
        )
        return out.reshape(batch, n)

    def estimate_next_health_rows(
        self,
        temps_k: np.ndarray,
        duties: np.ndarray,
        health_rows: np.ndarray,
        epoch_years: float,
    ) -> np.ndarray:
        """Batched next-health where each row carries its *own* health.

        The cross-lane batched mapper stacks candidate rows from several
        chips into one matrix; unlike :meth:`estimate_next_health` the
        rows no longer share a current-health vector, so the caller
        passes a matching ``(batch, num_cores)`` ``health_rows`` matrix.
        The table walk is per-element, so one flattened call returns the
        exact values ``batch`` separate calls would.
        """
        temps_k = np.asarray(temps_k, dtype=float)
        duties = self.resolve_duties(duties)
        health_rows = np.asarray(health_rows, dtype=float)
        if temps_k.ndim != 2 or temps_k.shape != health_rows.shape:
            raise ValueError(
                "temps_k and health_rows must be matching "
                "(batch, num_cores) matrices"
            )
        batch, n = temps_k.shape
        out = WalkEngine(self.table).next_health(
            temps_k.reshape(-1),
            duties.reshape(-1),
            health_rows.reshape(-1),
            epoch_years,
        )
        return out.reshape(batch, n)
