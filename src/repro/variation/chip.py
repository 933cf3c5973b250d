"""A fabricated chip instance: one realization of the variation model.

A :class:`Chip` is pure silicon — geometry plus the frozen outcome of the
manufacturing lottery (per-core initial maximum frequency and leakage
scale).  Mutable run-time state (aging, health, temperatures, power
states) lives in the simulator layers built on top.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.floorplan import Floorplan
from repro.util.constants import thermal_voltage
from repro.variation.correlation import (
    correlated_field_factor,
    draw_correlated_field,
)
from repro.variation.params import VariationParams

#: Reference junction temperature (K) at which the manufacturing-time
#: leakage spread is characterized (wafer test conditions, ~330 K).
LEAKAGE_REFERENCE_TEMP_K = 330.0


def _grid_point_coordinates(floorplan: Floorplan, grid_per_core: int) -> np.ndarray:
    """Coordinates (mm) of all variation grid points, core-major order.

    Grid points subdivide each tile into ``grid_per_core x grid_per_core``
    cells and sit at cell centers.  The returned array has shape
    ``(num_cores * grid_per_core**2, 2)``; points of core ``i`` occupy the
    contiguous slice ``[i * g*g, (i+1) * g*g)``.
    """
    core_w = floorplan.core.width_mm
    core_h = floorplan.core.height_mm
    g = grid_per_core
    # Offsets of a tile's grid points relative to its lower-left corner.
    local_x = (np.arange(g) + 0.5) * (core_w / g)
    local_y = (np.arange(g) + 0.5) * (core_h / g)
    local = np.column_stack(
        [np.tile(local_x, g), np.repeat(local_y, g)]
    )  # (g*g, 2), row-major over the tile
    corners = floorplan.centers_mm - np.array([core_w / 2, core_h / 2])
    return (corners[:, None, :] + local[None, :, :]).reshape(-1, 2)


def _critical_path_pattern(
    grid_per_core: int, num_points: int, rng: np.random.Generator
) -> np.ndarray:
    """Pick which of a tile's grid points the critical path traverses.

    The cores are homogeneous copies of one synthesized design, so the
    critical path occupies the same relative positions in every tile;
    the pattern is drawn once per *design*, not per chip.
    """
    return np.sort(rng.choice(grid_per_core**2, size=num_points, replace=False))


def _design_silicon(
    floorplan: Floorplan, params: VariationParams, design_rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """What every die of one design shares: the field factor and CP pattern.

    Returns the lower Cholesky factor of the Vth field's covariance over
    the design's grid points, and the critical-path pattern drawn from
    ``design_rng``.
    """
    points = _grid_point_coordinates(floorplan, params.grid_per_core)
    factor = correlated_field_factor(
        points, params.sigma, params.correlation_length_mm
    )
    pattern = _critical_path_pattern(
        params.grid_per_core, params.critical_path_points, design_rng
    )
    return factor, pattern


def _sample_theta(
    params: VariationParams, factor: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw one die's theta field over the design's ``factor``."""
    theta = draw_correlated_field(factor, params.mean, rng)
    # The Gaussian model has unbounded tails; clip at 4 sigma to keep
    # theta physical (positive Vth) without visibly distorting stats.
    return np.clip(
        theta, params.mean - 4 * params.sigma, params.mean + 4 * params.sigma
    )


class Chip:
    """One manufactured die: variation map plus derived fmax/leakage.

    Parameters
    ----------
    floorplan:
        Core layout.
    params:
        Variation-model parameters.
    theta:
        Flat ``(num_cores * grid_per_core**2,)`` process-parameter field
        (a multiplicative Vth factor, nominally 1.0).  Usually produced by
        :meth:`sample`; passing it explicitly supports golden-value tests.
    critical_path_pattern:
        Indices (within a tile's grid points) traversed by the critical
        path — the set ``S(CP, i)`` of Eq. 1, identical for every tile.
    chip_id:
        Free-form identifier used in reports ("chip-03" etc.).
    """

    def __init__(
        self,
        floorplan: Floorplan,
        params: VariationParams,
        theta: np.ndarray,
        critical_path_pattern: np.ndarray,
        chip_id: str = "chip-0",
    ):
        g2 = params.grid_per_core**2
        expected = floorplan.num_cores * g2
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (expected,):
            raise ValueError(
                f"theta must have shape ({expected},), got {theta.shape}"
            )
        if (theta <= 0).any():
            raise ValueError("theta values must be positive (Vth factors)")
        pattern = np.asarray(critical_path_pattern, dtype=int)
        if pattern.ndim != 1 or not (0 <= pattern.min() and pattern.max() < g2):
            raise ValueError("critical_path_pattern indices out of range")
        self.floorplan = floorplan
        self.params = params
        self.theta = theta
        self.critical_path_pattern = pattern
        self.chip_id = str(chip_id)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls,
        floorplan: Floorplan,
        params: VariationParams,
        rng: np.random.Generator,
        design_rng: np.random.Generator | None = None,
        chip_id: str = "chip-0",
    ) -> "Chip":
        """Manufacture one chip: sample the correlated Vth field.

        ``design_rng`` fixes the critical-path pattern; pass the same
        generator state for every chip of a population so all dies share
        one design (the default derives it deterministically from a
        fixed seed, independent of ``rng``).  Each call factors the
        design's covariance; :func:`~repro.variation.generate_population`
        factors it once for all its dies.
        """
        if design_rng is None:
            design_rng = np.random.default_rng(0xDE51)
        factor, pattern = _design_silicon(floorplan, params, design_rng)
        theta = _sample_theta(params, factor, rng)
        return cls(floorplan, params, theta, pattern, chip_id=chip_id)

    # ------------------------------------------------------------------
    # derived maps
    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        """Number of cores on the die."""
        return self.floorplan.num_cores

    @cached_property
    def theta_per_core(self) -> np.ndarray:
        """``(num_cores, grid_per_core**2)`` view of the theta field."""
        g2 = self.params.grid_per_core**2
        return self.theta.reshape(self.num_cores, g2)

    @cached_property
    def fmax_init_ghz(self) -> np.ndarray:
        """Per-core time-zero maximum safe frequency (Eq. 1), in GHz.

        ``f_i = alpha * min over S(CP, i) of (1 / theta)`` — the slowest
        (highest-Vth) grid point on the critical path limits the core.
        """
        cp_theta = self.theta_per_core[:, self.critical_path_pattern]
        return self.params.frequency_scale_ghz / cp_theta.max(axis=1)

    @cached_property
    def leakage_scale(self) -> np.ndarray:
        """Per-core manufacturing leakage multiplier (dimensionless).

        Averages the exponential Vth dependence of Eq. 2 over the core's
        grid points at the reference characterization temperature:
        ``mean over (u,v) of exp(-(theta-1) * Vth_nom / (n * V_T))``.
        A value of 1.0 means nominal leakage; low-Vth (fast) regions leak
        exponentially more.  The result is clamped to the population's
        ``leakage_scale_bounds`` — dies outside that band fail wafer-level
        power screening and never ship.
        """
        v_t = thermal_voltage(LEAKAGE_REFERENCE_TEMP_K)
        exponent = (
            -(self.theta_per_core - 1.0)
            * self.params.vth_nominal
            / (self.params.subthreshold_slope * v_t)
        )
        low, high = self.params.leakage_scale_bounds
        return np.clip(np.exp(exponent).mean(axis=1), low, high)

    def frequency_spread(self) -> float:
        """Chip-wide relative frequency spread ``(fmax - fmin) / fmax``.

        The paper quotes 30-35 % for its variation maps at 1.13 V.
        """
        f = self.fmax_init_ghz
        return float((f.max() - f.min()) / f.max())

    def __repr__(self) -> str:
        return (
            f"Chip({self.chip_id!r}, {self.floorplan.rows}x{self.floorplan.cols}, "
            f"fmax {self.fmax_init_ghz.min():.2f}-{self.fmax_init_ghz.max():.2f} GHz)"
        )
