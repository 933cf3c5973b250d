"""NBTI aging: device model, core-level estimation, 3D tables, health.

The flow mirrors Fig. 5 of the paper:

1. :mod:`nbti` — the reaction-diffusion long-term ΔVth model (Eq. 7),
2. :mod:`estimator` — per-core aging over the synthesized critical paths
   (Eq. 8), combining element duty cycles with core-level duty,
3. :mod:`tables` — offline-generated 3D aging tables
   (temperature x duty cycle x age -> relative fmax) with interpolation
   and the inverse "equivalent age" lookup Algorithm 1 walks at run time,
4. :mod:`health` — per-chip mutable health state across aging epochs.
"""

from repro.aging.nbti import NBTIModel
from repro.aging.estimator import CoreAgingEstimator
from repro.aging.tables import AgingTable, build_aging_table
from repro.aging.health import HealthState
from repro.aging.monitors import AgingSensor

__all__ = [
    "AgingSensor",
    "AgingTable",
    "CoreAgingEstimator",
    "HealthState",
    "NBTIModel",
    "build_aging_table",
]
