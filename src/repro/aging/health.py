"""Mutable per-chip health state across aging epochs.

Health of core ``i`` at time ``t`` is ``fmax(i, t) / fmax(i, init)``
(paper, Section I-A).  The state advances once per aging epoch using the
table walk of Section IV-B: re-index each core by its current health
under the epoch's (temperature, duty) conditions, then move the epoch
length along the age axis.
"""

from __future__ import annotations

import numpy as np

from repro.aging.tables import AgingTable
from repro.aging.walk import WalkEngine


class HealthState:
    """Tracks per-core health and derived safe frequencies for one chip.

    Parameters
    ----------
    table:
        The design's 3D aging table.
    fmax_init_ghz:
        Per-core time-zero maximum frequencies (variation-dependent).
    """

    def __init__(self, table: AgingTable, fmax_init_ghz: np.ndarray):
        fmax_init_ghz = np.asarray(fmax_init_ghz, dtype=float)
        if fmax_init_ghz.ndim != 1 or (fmax_init_ghz <= 0).any():
            raise ValueError("fmax_init_ghz must be a positive 1-D array")
        self.table = table
        self.fmax_init_ghz = fmax_init_ghz.copy()
        self.num_cores = fmax_init_ghz.shape[0]
        self._health = np.ones(self.num_cores)
        self._elapsed_years = 0.0

    @property
    def health(self) -> np.ndarray:
        """Current per-core health map, each entry in (0, 1] (copy)."""
        return self._health.copy()

    @property
    def elapsed_years(self) -> float:
        """Calendar time accumulated through :meth:`advance` calls."""
        return self._elapsed_years

    @property
    def fmax_ghz(self) -> np.ndarray:
        """Current per-core maximum safe frequency."""
        return self.fmax_init_ghz * self._health

    def estimate_next(
        self, temps_k: np.ndarray, duties: np.ndarray, epoch_years: float
    ) -> np.ndarray:
        """Non-mutating preview of health after one more epoch.

        This is the candidate-evaluation primitive of Algorithm 1; it
        never touches the stored state.
        """
        return WalkEngine(self.table).next_health(
            self._flat("temps_k", temps_k),
            self._flat("duties", duties),
            self._health,
            epoch_years,
        )

    def advance(
        self, temps_k: np.ndarray, duties: np.ndarray, epoch_years: float
    ) -> np.ndarray:
        """Commit one aging epoch; returns the new health map (copy).

        ``temps_k`` should be the epoch's worst-case (or suitably
        conservative) per-core temperatures and ``duties`` the per-core
        duty cycles, both upscaled from the fine-grained simulation
        window as in Fig. 4.
        """
        if epoch_years < 0:
            raise ValueError("epoch_years must be non-negative")
        self._health = self.estimate_next(temps_k, duties, epoch_years)
        self._elapsed_years += epoch_years
        return self.health

    def _flat(self, name: str, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_cores,):
            raise ValueError(
                f"{name} must have shape ({self.num_cores},), got {values.shape}"
            )
        return values


def advance_batch(
    states: list[HealthState],
    temps_k: np.ndarray,
    duties: np.ndarray,
    epoch_years: float,
) -> None:
    """Commit one aging epoch to many chips with one table walk.

    ``states`` must share one :class:`~repro.aging.tables.AgingTable`
    object and one core count; ``temps_k``/``duties`` are
    ``(len(states), num_cores)``, row ``b`` belonging to ``states[b]``.
    The rows are flattened to one ``(chips * cores,)`` gather through
    ``table.next_health`` — the table walk is elementwise (per-element
    grid lookups plus an elementwise corner reduce), so each row's
    result is bit-identical to that state's own :meth:`HealthState.advance`.
    """
    if not states:
        return
    if epoch_years < 0:
        raise ValueError("epoch_years must be non-negative")
    table = states[0].table
    num_cores = states[0].num_cores
    for state in states:
        if state.table is not table:
            raise ValueError("all states must share one aging table")
        if state.num_cores != num_cores:
            raise ValueError("all states must share one core count")
    temps_k = np.asarray(temps_k, dtype=float)
    duties = np.asarray(duties, dtype=float)
    expected = (len(states), num_cores)
    if temps_k.shape != expected or duties.shape != expected:
        raise ValueError(
            f"temps_k and duties must have shape {expected}, got "
            f"{temps_k.shape} and {duties.shape}"
        )
    healths = np.concatenate([state._health for state in states])
    out = WalkEngine(table).next_health(
        temps_k.reshape(-1), duties.reshape(-1), healths, epoch_years
    ).reshape(expected)
    for b, state in enumerate(states):
        state._health = out[b].copy()
        state._elapsed_years += epoch_years
