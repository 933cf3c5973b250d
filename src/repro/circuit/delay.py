"""Alpha-power-law delay under threshold-voltage shift.

Gate delay follows Sakurai-Newton:  ``D ~ Vdd / (Vdd - Vth)^alpha`` with
``alpha ~ 1.3`` at short-channel nodes.  An NBTI shift ``dVth`` therefore
multiplies the un-aged delay by

    ``((Vdd - Vth0) / (Vdd - Vth0 - dVth))^alpha``

which is the ``D(le) + dD(le, d, T, y)`` decomposition of Eq. 8 in
multiplicative form.  Path delay is the sum over the path's logic
elements.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

#: Velocity-saturation index of the alpha-power law at scaled nodes.
DEFAULT_ALPHA = 1.3


def alpha_power_delay_factor(
    delta_vth: np.ndarray,
    vdd: float = 1.13,
    vth_nominal: float = 0.32,
    alpha: float = DEFAULT_ALPHA,
):
    """Delay multiplier for a threshold shift ``delta_vth`` (broadcasts).

    Returns 1.0 at zero shift and grows monotonically; raises if the
    shift consumes the entire overdrive (the device no longer switches).
    """
    check_positive("vdd", vdd)
    check_positive("vth_nominal", vth_nominal)
    check_positive("alpha", alpha)
    delta_vth = np.asarray(delta_vth, dtype=float)
    if (delta_vth < 0).any():
        raise ValueError("delta_vth must be non-negative")
    overdrive = vdd - vth_nominal
    if overdrive <= 0:
        raise ValueError("vdd must exceed vth_nominal")
    remaining = overdrive - delta_vth
    if (remaining <= 0).any():
        raise ValueError(
            "delta_vth exhausts the gate overdrive; device would not switch"
        )
    factor = (overdrive / remaining) ** alpha
    return float(factor) if factor.ndim == 0 else factor
