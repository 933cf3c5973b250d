"""Reference traffic matrix: the per-pair loop ``repro.noc.traffic``
ran before it built its rates as one masked array.
``tests/test_noc_traffic_metrics.py`` holds
:func:`~repro.noc.traffic.traffic_matrix` to it bit for bit.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.noc.traffic import _intensity_of


def reference_traffic_matrix(state, nominal_ghz: float = 3.0) -> np.ndarray:
    n = state.num_cores
    traffic = np.zeros((n, n))
    by_app: dict[str, list[int]] = defaultdict(list)
    assignment = state.assignment
    for core in np.flatnonzero(assignment >= 0):
        thread = state.threads[assignment[core]]
        by_app[thread.app_name].append(int(core))
    freq = state.freq_ghz
    for app_name, cores in by_app.items():
        if len(cores) < 2:
            continue
        intensity = _intensity_of(state, app_name)
        for a in cores:
            for b in cores:
                if a == b:
                    continue
                speed = 0.5 * (freq[a] + freq[b]) / nominal_ghz
                traffic[a, b] += intensity * speed
    return traffic
