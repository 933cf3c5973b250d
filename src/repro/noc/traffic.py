"""Application traffic: who talks to whom, and how much.

Threads of one application exchange data; threads of different
applications do not (shared-nothing mixes).  Within an application the
pattern is all-to-all at the profile's ``comm_intensity`` (GB/s per
ordered pair, scaled by operating frequency) — a deliberate
simplification that preserves what the mapping cost cares about: total
intra-application traffic and its spatial footprint.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.state import ChipState
from repro.workload.profiles import PARSEC_PROFILES


def traffic_matrix(state: ChipState, nominal_ghz: float = 3.0) -> np.ndarray:
    """Core-to-core traffic (GB/s) implied by the current mapping.

    Unmapped threads contribute nothing.  Rates scale with the mean of
    the two endpoints' operating frequencies relative to ``nominal_ghz``
    (communication tracks execution speed).
    """
    if nominal_ghz <= 0:
        raise ValueError("nominal_ghz must be positive")
    n = state.num_cores
    traffic = np.zeros((n, n))
    assignment = state.assignment_view
    mapped = np.flatnonzero(assignment >= 0)
    names = [state.threads[index].app_name for index in assignment[mapped].tolist()]
    codes: dict[str, int] = {}
    app = np.array([codes.setdefault(name, len(codes)) for name in names], dtype=int)
    intensity = np.array([_intensity_of(state, name) for name in codes], dtype=float)[app]

    # Every mapped pair at once, each entry the per-pair expression
    # ``intensity * (0.5 * (f_a + f_b) / nominal)``; pairs across
    # applications and a core with itself stay exactly 0.0.
    f = state.freq_view[mapped]
    rate = intensity[:, None] * (0.5 * (f[:, None] + f[None, :]) / nominal_ghz)
    talks = app[:, None] == app[None, :]
    np.fill_diagonal(talks, False)
    traffic[np.ix_(mapped, mapped)] = np.where(talks, rate, 0.0)
    return traffic


def _intensity_of(state: ChipState, app_name: str) -> float:
    """Communication intensity of an application, from its threads.

    ThreadSpec does not carry the profile object, so the intensity is
    resolved from the profile registry via the app name (format
    ``"<profile>#<instance>"``); unknown names fall back to a small
    default so synthetic test threads still work.
    """
    base = app_name.split("#", 1)[0]
    profile = PARSEC_PROFILES.get(base)
    return profile.comm_intensity if profile is not None else 0.1
