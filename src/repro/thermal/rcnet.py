"""The compact RC thermal network: construction and solvers.

Node layout for an ``N``-core floorplan (``2N + 1`` nodes total):

* ``0 .. N-1`` — silicon junction node of each core (power injects here),
* ``N .. 2N-1`` — the spreader patch under each core,
* ``2N`` — the lumped heat sink, coupled to ambient.

The network is described by a symmetric conductance Laplacian ``A`` plus a
diagonal ambient coupling, so steady state solves
``(A + diag(g_amb)) * (T - T_amb) = P_nodes`` and the transient follows
``C dT/dt = P - (A + diag(g_amb)) (T - T_amb)`` integrated with backward
Euler (unconditionally stable, so DTM-scale steps are safe).

The expensive derived state — the system Cholesky, per-``dt`` step
factorizations, the influence kernel, and the zero-power baseline —
depends only on (floorplan geometry, :class:`ThermalConfig`), so it is
shared process-wide through :mod:`repro.thermal.cache`: constructing the
thousandth network of a campaign reuses the first one's factorizations
bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg
from scipy.linalg.lapack import dpotrs as _potrs

from repro.floorplan import Floorplan
from repro.obs import get_registry
from repro.thermal.cache import ThermalEntry, get_thermal_cache
from repro.thermal.config import ThermalConfig
from repro.util.validation import check_positive


class ThermalRCNetwork:
    """Ground-truth thermal model for one chip.

    Parameters
    ----------
    floorplan:
        Core layout (provides tile geometry and adjacency).
    config:
        Material and package parameters.
    """

    def __init__(self, floorplan: Floorplan, config: ThermalConfig | None = None):
        self.floorplan = floorplan
        self.config = config if config is not None else ThermalConfig()
        self.num_cores = floorplan.num_cores
        self.num_nodes = 2 * self.num_cores + 1
        self._entry = get_thermal_cache().entry(
            floorplan, self.config, self._build_entry
        )

    # ------------------------------------------------------------------
    # network construction
    # ------------------------------------------------------------------
    def _build_entry(self) -> ThermalEntry:
        """Assemble and factorize the network (the cache-miss path)."""
        cfg = self.config
        n = self.num_cores
        core = self.floorplan.core
        area_m2 = core.area_m2
        width_m = core.width_mm * 1e-3
        height_m = core.height_mm * 1e-3

        # Vertical path core -> spreader: die conduction in series with TIM.
        r_die = cfg.die_thickness_m / (cfg.silicon_conductivity * area_m2)
        r_tim = cfg.tim_resistance_km2_per_w / area_m2
        g_vertical = 1.0 / (r_die + r_tim)

        # Lateral conduction between adjacent tiles, within die and spreader.
        # Cross-section = shared edge length x layer thickness; distance =
        # center-to-center pitch along the respective axis.
        def lateral_g(conductivity: float, thickness: float) -> tuple[float, float]:
            g_x = conductivity * (height_m * thickness) / width_m
            g_y = conductivity * (width_m * thickness) / height_m
            return g_x, g_y

        g_die_x, g_die_y = lateral_g(cfg.silicon_conductivity, cfg.die_thickness_m)
        g_sp_x, g_sp_y = lateral_g(cfg.copper_conductivity, cfg.spreader_thickness_m)

        g_sp_sink = 1.0 / cfg.spreader_to_sink_r_kw
        g_sink_amb = 1.0 / cfg.sink_to_ambient_r_kw

        laplacian = np.zeros((self.num_nodes, self.num_nodes))

        def couple(i: int, j: int, g: float) -> None:
            laplacian[i, i] += g
            laplacian[j, j] += g
            laplacian[i, j] -= g
            laplacian[j, i] -= g

        sink = 2 * n
        for i in range(n):
            couple(i, n + i, g_vertical)
            couple(n + i, sink, g_sp_sink)
        for i, j in self.floorplan.iter_edges():
            row_i, _ = self.floorplan.position(i)
            row_j, _ = self.floorplan.position(j)
            horizontal = row_i == row_j
            couple(i, j, g_die_x if horizontal else g_die_y)
            couple(n + i, n + j, g_sp_x if horizontal else g_sp_y)

        g_ambient = np.zeros(self.num_nodes)
        g_ambient[sink] = g_sink_amb

        system = laplacian + np.diag(g_ambient)
        # Cholesky of the SPD system matrix: reused by every steady-state
        # solve and by the influence-matrix computation.
        system_cho = linalg.cho_factor(system)
        get_registry().inc("thermal.factorizations")

        capacitance = np.empty(self.num_nodes)
        capacitance[:n] = cfg.silicon_volumetric_heat * area_m2 * cfg.die_thickness_m
        capacitance[n : 2 * n] = (
            cfg.copper_volumetric_heat * area_m2 * cfg.spreader_thickness_m
        )
        capacitance[sink] = cfg.sink_heat_capacity_j_per_k

        # Constant part of the node-power vector: uncore heat (shared
        # L2/NoC) enters the spreader layer uniformly — no per-core
        # structure, just a hotter baseline.
        node_power_base = np.zeros(self.num_nodes)
        if cfg.uncore_power_w > 0:
            node_power_base[n : 2 * n] = cfg.uncore_power_w / n

        return ThermalEntry(
            num_cores=n,
            num_nodes=self.num_nodes,
            system=system,
            system_cho=system_cho,
            capacitance=capacitance,
            node_power_base=node_power_base,
        )

    # ------------------------------------------------------------------
    # cached views
    # ------------------------------------------------------------------
    @property
    def _system(self) -> np.ndarray:
        return self._entry.system

    @property
    def _system_cho(self):
        return self._entry.system_cho

    @property
    def capacitance(self) -> np.ndarray:
        """Per-node heat capacities (J/K); shared and read-only."""
        return self._entry.capacitance

    # ------------------------------------------------------------------
    # solvers
    # ------------------------------------------------------------------
    def _check_core_power(self, core_power_w: np.ndarray) -> np.ndarray:
        core_power_w = np.asarray(core_power_w, dtype=float)
        if core_power_w.shape != (self.num_cores,):
            raise ValueError(
                f"core_power_w must have shape ({self.num_cores},), "
                f"got {core_power_w.shape}"
            )
        if (core_power_w < 0).any():
            raise ValueError("core powers must be non-negative")
        return core_power_w

    def _node_power_into(
        self, core_power_w: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Fill ``out`` with the all-nodes power vector (no allocation)."""
        core_power_w = self._check_core_power(core_power_w)
        np.copyto(out, self._entry.node_power_base)
        out[: self.num_cores] = core_power_w
        return out

    def _node_power(self, core_power_w: np.ndarray) -> np.ndarray:
        return self._node_power_into(core_power_w, np.empty(self.num_nodes))

    def steady_state(self, core_power_w: np.ndarray) -> np.ndarray:
        """Steady-state core junction temperatures (K) for fixed powers."""
        get_registry().inc("thermal.steady_solves")
        rise = linalg.cho_solve(self._system_cho, self._node_power(core_power_w))
        return self.config.ambient_k + rise[: self.num_cores]

    def steady_state_all_nodes(self, core_power_w: np.ndarray) -> np.ndarray:
        """Steady-state temperatures of every node (cores, spreader, sink)."""
        get_registry().inc("thermal.steady_solves")
        rise = linalg.cho_solve(self._system_cho, self._node_power(core_power_w))
        return self.config.ambient_k + rise

    def steady_state_batch(self, core_power_w: np.ndarray) -> np.ndarray:
        """Steady-state core temperatures for many power vectors at once.

        ``core_power_w`` is ``(batch, num_cores)``; one stacked-RHS
        triangular solve replaces ``batch`` sequential solves (the same
        factorization serves them all).  Returns the matching
        ``(batch, num_cores)`` temperature matrix.
        """
        core_power_w = np.asarray(core_power_w, dtype=float)
        if core_power_w.ndim != 2 or core_power_w.shape[1] != self.num_cores:
            raise ValueError(
                f"core_power_w must have shape (batch, {self.num_cores}), "
                f"got {core_power_w.shape}"
            )
        if (core_power_w < 0).any():
            raise ValueError("core powers must be non-negative")
        get_registry().inc("thermal.steady_solves", core_power_w.shape[0])
        return self.steady_state_unchecked(core_power_w)

    def steady_state_unchecked(self, core_power_w: np.ndarray) -> np.ndarray:
        """:meth:`steady_state_batch` for trusted input, without counting.

        The coupled solvers' per-pass solve: the caller guarantees a
        finite, non-negative ``(batch, num_cores)`` float matrix and
        counts ``thermal.steady_solves`` itself.  LAPACK ``potrs`` runs
        on the cached factor with a Fortran-order RHS it may overwrite
        — the routine ``scipy.linalg.cho_solve`` dispatches to, minus
        its argument checks and layout copy, so the bits are the same.
        """
        n = self.num_cores
        rhs = np.empty((self.num_nodes, core_power_w.shape[0]), order="F")
        rhs[n:] = self._entry.node_power_base[n:, None]
        rhs[:n] = core_power_w.T
        factor, lower = self._system_cho
        rises, info = _potrs(factor, rhs, lower=lower, overwrite_b=True)
        if info:
            raise ValueError(f"LAPACK potrs failed (info={info})")
        return self.config.ambient_k + rises[:n].T

    def influence_matrix(self) -> np.ndarray:
        """``(num_cores, num_cores)`` steady-state influence matrix ``K``.

        ``T_cores = T_amb + K @ p_cores`` exactly (for this linear
        network).  Column ``j`` is the temperature-rise fingerprint of
        1 W injected at core ``j`` — the "spatial thermal profile" the
        online predictor of [27] superposes.  Probed once per cache
        entry and shared (read-only) afterwards.
        """
        return get_thermal_cache().lazy_field(
            self._entry, "influence", self._probe_influence
        )

    def _probe_influence(self) -> np.ndarray:
        unit = np.zeros((self.num_nodes, self.num_cores))
        unit[: self.num_cores, :] = np.eye(self.num_cores)
        rises = linalg.cho_solve(self._system_cho, unit)
        return rises[: self.num_cores, :]

    def zero_power_baseline(self) -> np.ndarray:
        """Steady-state core temperatures with every core at zero power.

        Ambient for a plain network; hotter when constant uncore heat
        shifts the whole operating point.  This is the predictor's
        zero-power operating point, solved once per cache entry.
        """
        rise = get_thermal_cache().lazy_field(
            self._entry, "baseline_rise", self._solve_baseline_rise
        )
        return self.config.ambient_k + rise

    def _solve_baseline_rise(self) -> np.ndarray:
        get_registry().inc("thermal.steady_solves")
        rise = linalg.cho_solve(
            self._system_cho, self._node_power(np.zeros(self.num_cores))
        )
        return rise[: self.num_cores]

    def initial_temperatures(self) -> np.ndarray:
        """All-nodes temperature vector for a cold (ambient) start."""
        return np.full(self.num_nodes, self.config.ambient_k)

    def core_time_constant_s(self) -> float:
        """Rough junction-node time constant, for choosing step sizes."""
        i = 0
        return float(self.capacitance[i] / self._system[i, i])


class TransientIntegrator:
    """Backward-Euler integrator over the RC network with a fixed step.

    The step matrix ``(C/dt + A)`` is factorized once per (network
    geometry, ``dt``) — process-wide, through the thermal compute cache —
    so advancing the network costs one triangular solve per step
    regardless of how the power vector changes between steps.  The
    node-power and RHS scratch vectors are preallocated: stepping
    allocates only the returned temperature vector.
    """

    def __init__(self, network: ThermalRCNetwork, dt_s: float):
        self.network = network
        self.dt_s = check_positive("dt_s", dt_s)
        self._step_cho, self._c_over_dt = get_thermal_cache().step_factor(
            network._entry, self.dt_s, self._factorize_step
        )
        self._ambient = network.config.ambient_k
        self._p_buf = np.empty(network.num_nodes)
        self._rhs_buf = np.empty(network.num_nodes)

    def _factorize_step(self):
        network = self.network
        c_over_dt = network.capacitance / self.dt_s
        step_cho = linalg.cho_factor(network._system + np.diag(c_over_dt))
        get_registry().inc("thermal.factorizations")
        return step_cho, c_over_dt

    def _advance(self, temps_all_nodes: np.ndarray, p: np.ndarray) -> np.ndarray:
        """One backward-Euler step given a prepared node-power vector."""
        rhs = self._rhs_buf
        np.subtract(temps_all_nodes, self._ambient, out=rhs)
        rhs *= self._c_over_dt
        rhs += p
        new_rise = linalg.cho_solve(self._step_cho, rhs, check_finite=False)
        new_rise += self._ambient
        return new_rise

    def step(self, temps_all_nodes: np.ndarray, core_power_w: np.ndarray) -> np.ndarray:
        """Advance one ``dt`` and return the new all-nodes temperatures."""
        temps_all_nodes = np.asarray(temps_all_nodes, dtype=float)
        if temps_all_nodes.shape != (self.network.num_nodes,):
            raise ValueError("temps_all_nodes has wrong shape")
        get_registry().inc("thermal.transient_steps")
        p = self.network._node_power_into(core_power_w, self._p_buf)
        return self._advance(temps_all_nodes, p)

    def run(
        self,
        temps_all_nodes: np.ndarray,
        core_power_w: np.ndarray,
        num_steps: int,
    ) -> np.ndarray:
        """Advance ``num_steps`` with a constant power vector.

        The node-power vector is assembled once for the whole run — the
        power is constant across the loop, so only the triangular solve
        repeats.
        """
        if num_steps < 0:
            raise ValueError("num_steps must be >= 0")
        temps = np.asarray(temps_all_nodes, dtype=float).copy()
        if num_steps == 0:
            return temps
        p = self.network._node_power_into(core_power_w, self._p_buf)
        registry = get_registry()
        for _ in range(num_steps):
            registry.inc("thermal.transient_steps")
            temps = self._advance(temps, p)
        return temps

    def run_segment(
        self,
        temps_all_nodes: np.ndarray,
        num_steps: int,
        core_power_fn,
        on_step=None,
    ) -> tuple[np.ndarray, int]:
        """Advance up to ``num_steps`` with per-step power evaluation.

        ``core_power_fn(i, core_temps)`` supplies the per-core power for
        step ``i`` from the *pre-step* junction temperatures;
        ``on_step(i, core_temps)`` observes the *post-step* junction
        temperatures and may return ``True`` to stop the segment after
        that step.  The matvec sequence per step is exactly
        :meth:`step`'s, so temperatures are bit-identical to calling it
        in a loop; the power vector is trusted (no non-negativity
        validation) and ``thermal.transient_steps`` is incremented once
        by the number of steps actually executed.

        Returns ``(temps_all_nodes, steps_done)``.
        """
        if num_steps < 0:
            raise ValueError("num_steps must be >= 0")
        temps = np.asarray(temps_all_nodes, dtype=float)
        if temps.shape != (self.network.num_nodes,):
            raise ValueError("temps_all_nodes has wrong shape")
        n = self.network.num_cores
        p = self._p_buf
        base = self.network._entry.node_power_base
        done = 0
        for i in range(num_steps):
            core_power = core_power_fn(i, temps[:n])
            np.copyto(p, base)
            p[:n] = core_power
            temps = self._advance(temps, p)
            done += 1
            if on_step is not None and on_step(i, temps[:n]):
                break
        get_registry().inc("thermal.transient_steps", done)
        return temps, done

    def step_batch(
        self, temps_all_nodes: np.ndarray, node_power_w: np.ndarray
    ) -> np.ndarray:
        """Advance many chips one ``dt`` with a stacked-RHS solve.

        ``temps_all_nodes`` and ``node_power_w`` are both
        ``(num_nodes, batch)`` — one column per chip.  Each column goes
        through exactly :meth:`_advance`'s arithmetic (subtract ambient,
        scale by ``C/dt``, add power, one triangular solve, add ambient
        back), so every column is bit-identical to stepping that chip
        alone; the columns merely share the factorized solve.  The
        power columns are full node-power vectors (base already folded
        in) and are trusted, mirroring :meth:`run_segment`.

        Returns the new ``(num_nodes, batch)`` temperatures.
        """
        rhs = temps_all_nodes - self._ambient
        rhs *= self._c_over_dt[:, None]
        rhs += node_power_w
        new_rise = linalg.cho_solve(self._step_cho, rhs, check_finite=False)
        new_rise += self._ambient
        get_registry().inc("thermal.transient_steps", rhs.shape[1])
        return new_rise

    def core_temperatures(self, temps_all_nodes: np.ndarray) -> np.ndarray:
        """Extract the junction temperatures from an all-nodes vector."""
        return np.asarray(temps_all_nodes)[: self.network.num_cores]
