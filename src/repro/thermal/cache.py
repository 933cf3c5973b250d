"""Process-level thermal compute cache (the offline/online split, scaled).

A campaign re-derives bit-identical thermal state over and over: every
``(policy, chip)`` pair builds the same RC network from the same
floorplan geometry and :class:`~repro.thermal.config.ThermalConfig`,
re-factorizes the same SPD system, re-probes the same influence kernel,
and every epoch re-factorizes the same backward-Euler step matrix.  None
of that depends on per-chip variation — only on (floorplan signature,
thermal config, dt) — so the paper's evaluation shape (25 chips x 2 dark
levels x 2 policies x 20 epochs) needs O(1) factorizations, not
O(chips x policies x epochs).

This module holds that shared state in a process-global
:class:`ThermalComputeCache`:

* the system matrix, its Cholesky factor, and the node capacitances,
* per-``dt`` step factorizations ``(C/dt + A)``,
* the steady-state influence matrix ``K`` (the learned kernel of [27]),
* the zero-power baseline (ambient plus any constant uncore heat).

Cached arrays are returned *shared* and are marked read-only; every
consumer (:class:`~repro.thermal.rcnet.ThermalRCNetwork`,
:class:`~repro.thermal.rcnet.TransientIntegrator`,
:meth:`~repro.thermal.predictor.ThermalPredictor.learn`) treats them as
immutable.  Because a hit returns the very arrays a miss computed, cached
and uncached runs are bit-identical.

Observability: a miss performs the real work and counts it through the
usual ``thermal.*`` counters (``thermal.factorizations``,
``thermal.steady_solves``); a hit increments ``thermal.cache_hits``
instead.  A multi-epoch campaign therefore shows a flat
``thermal.factorizations`` count and a growing ``thermal.cache_hits``
count — the reuse is regression-testable (see
``tests/test_thermal_cache.py``).

The cache is always on and unbounded.  The key set stays small without
eviction: :class:`~repro.sim.context.ChipContext` always builds
``ThermalRCNetwork(floorplan)`` with the default ``ThermalConfig``, so a
process holds one entry per distinct floorplan geometry, and each entry
one step factorization per ``dt``.  :func:`clear_thermal_cache` empties
it (the next build then recomputes, which is how the tests get an
uncached oracle).  Each spawn worker process has its own cache;
``run_campaign`` warms worker caches from its pool initializer so no
job pays the first-miss cost.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs import get_registry


def floorplan_signature(floorplan) -> tuple:
    """Hashable identity of a floorplan's thermal-relevant geometry.

    Two floorplans with equal signatures produce bit-identical RC
    networks: the network depends only on the mesh shape and tile
    dimensions, never on which :class:`~repro.floorplan.Floorplan`
    instance carries them.
    """
    core = floorplan.core
    return (floorplan.rows, floorplan.cols, core.width_mm, core.height_mm)


class ThermalEntry:
    """All cacheable compute for one (floorplan, config) pair.

    The base fields (``system``, ``system_cho``, ``capacitance``,
    ``node_power_base``) are filled at construction; the step
    factorizations, influence matrix, and zero-power baseline are
    attached lazily by their first consumer (under the cache lock).
    """

    __slots__ = (
        "num_cores",
        "num_nodes",
        "system",
        "system_cho",
        "capacitance",
        "node_power_base",
        "step_factors",
        "influence",
        "baseline_rise",
    )

    def __init__(self, num_cores, num_nodes, system, system_cho, capacitance,
                 node_power_base):
        self.num_cores = num_cores
        self.num_nodes = num_nodes
        self.system = system
        self.system_cho = system_cho
        self.capacitance = capacitance
        self.node_power_base = node_power_base
        #: dt_s -> (cho_factor of (C/dt + A), C/dt vector)
        self.step_factors: dict = {}
        #: (num_cores, num_cores) steady-state kernel, lazily probed.
        self.influence = None
        #: All-cores zero-power temperature rise, lazily solved.
        self.baseline_rise = None


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only (cached arrays are shared, not owned)."""
    array.flags.writeable = False
    return array


class ThermalComputeCache:
    """Cache of :class:`ThermalEntry` keyed by (floorplan, config)."""

    def __init__(self):
        self._entries: dict = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def entry(self, floorplan, config, builder) -> ThermalEntry:
        """Return the entry for (floorplan, config), building on miss.

        ``builder()`` must return a fully-populated
        :class:`ThermalEntry`; it runs outside the lock (matrix
        assembly and factorization dominate, and entries for the same
        key are interchangeable, so a rare duplicate build is harmless
        and the first stored entry wins).
        """
        key = (floorplan_signature(floorplan), config)
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                get_registry().inc("thermal.cache_hits")
                return found
        entry = builder()
        for name in ("system", "capacitance", "node_power_base"):
            _freeze(getattr(entry, name))
        with self._lock:
            return self._entries.setdefault(key, entry)

    def step_factor(self, entry: ThermalEntry, dt_s: float, builder):
        """Per-``dt`` step factorization, building on miss.

        Keyed inside the entry, so the campaign's single ``control_dt_s``
        costs one factorization for the whole population.
        """
        with self._lock:
            found = entry.step_factors.get(dt_s)
        if found is not None:
            get_registry().inc("thermal.cache_hits")
            return found
        cho, c_over_dt = builder()
        _freeze(c_over_dt)
        with self._lock:
            return entry.step_factors.setdefault(dt_s, (cho, c_over_dt))

    def lazy_field(self, entry: ThermalEntry, name: str, builder) -> np.ndarray:
        """Lazily-computed per-entry array (``influence``/``baseline_rise``)."""
        with self._lock:
            found = getattr(entry, name)
        if found is not None:
            get_registry().inc("thermal.cache_hits")
            return found
        value = _freeze(builder())
        with self._lock:
            if getattr(entry, name) is None:
                setattr(entry, name, value)
            return getattr(entry, name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()


_CACHE = ThermalComputeCache()


def get_thermal_cache() -> ThermalComputeCache:
    """The process-global cache every thermal consumer shares."""
    return _CACHE


def clear_thermal_cache() -> None:
    """Empty the global cache (e.g. between benchmark phases)."""
    _CACHE.clear()


def warm_thermal_cache(floorplan, config=None, dt_s=None) -> None:
    """Populate the cache for one (floorplan, config[, dt]) key, silently.

    Runs the network build, influence probe, zero-power baseline, and —
    when ``dt_s`` is given — the step factorization, with the obs
    registry suppressed, so warming records neither factorizations nor
    hits.  ``run_campaign`` calls this in the parent *and* in every pool
    worker's initializer: jobs then see an identical warm cache wherever
    they run, which keeps serial and parallel counter aggregates equal.
    """
    from repro.obs import use_registry
    from repro.thermal.rcnet import ThermalRCNetwork, TransientIntegrator

    with use_registry(None):
        network = ThermalRCNetwork(floorplan, config)
        network.influence_matrix()
        network.zero_power_baseline()
        if dt_s is not None:
            TransientIntegrator(network, dt_s)
