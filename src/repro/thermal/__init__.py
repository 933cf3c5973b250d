"""Compact thermal model of the manycore die (HotSpot-style RC network).

Three layers of nodes — per-core silicon junction, per-core heat-spreader
patch, and one lumped heat sink coupled to ambient — reproduce the
phenomena the paper's management layer exploits: lateral heat spreading
(dark neighbors cool hot cores), slow sink time constants, and the
leakage-temperature positive feedback.

Two solvers are exposed:

* the ground-truth :class:`ThermalRCNetwork` with exact steady-state and
  backward-Euler transient solutions, used by the lifetime simulator, and
* the lightweight :class:`ThermalPredictor` (superposition of per-core
  influence kernels plus one leakage-correction pass, per the paper's
  [27]) used online inside Algorithm 1 where thousands of candidate
  mappings must be scored per decision.
"""

from repro.thermal.cache import (
    ThermalComputeCache,
    clear_thermal_cache,
    get_thermal_cache,
    warm_thermal_cache,
)
from repro.thermal.config import ThermalConfig
from repro.thermal.rcnet import ThermalRCNetwork, TransientIntegrator
from repro.thermal.coupled import (
    solve_coupled_steady_state,
    solve_coupled_steady_state_batch,
)
from repro.thermal.predictor import ThermalPredictor
from repro.thermal.sensors import ThermalSensor

__all__ = [
    "ThermalComputeCache",
    "ThermalConfig",
    "ThermalPredictor",
    "ThermalRCNetwork",
    "ThermalSensor",
    "TransientIntegrator",
    "clear_thermal_cache",
    "get_thermal_cache",
    "solve_coupled_steady_state",
    "solve_coupled_steady_state_batch",
    "warm_thermal_cache",
]
