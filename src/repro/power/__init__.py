"""Power models: dynamic power, temperature-dependent leakage, gating.

Implements Eq. 2 of the paper: per-core power is dynamic power (frequency-
and activity-dependent) plus variation-scaled subthreshold leakage with an
exponential temperature dependence through the thermal voltage
``V_T = kT/q``.  Power-gated ("dark") cores retain only a small residual
gating leakage (0.019 W in the paper's setup vs 1.18 W nominal).
"""

from repro.power.dynamic import DynamicPowerModel
from repro.power.dvfs import FrequencyLadder
from repro.power.leakage import LeakageModel
from repro.power.model import PowerModel, PowerBreakdown

__all__ = [
    "DynamicPowerModel",
    "FrequencyLadder",
    "LeakageModel",
    "PowerBreakdown",
    "PowerModel",
]
