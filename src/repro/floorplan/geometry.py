"""Per-core geometry: dimensions and derived quantities."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True)
class CoreGeometry:
    """Physical dimensions of a single core tile.

    Parameters
    ----------
    width_mm, height_mm:
        Tile dimensions in millimetres.  The paper's Alpha 21264 core at
        11 nm occupies 1.70 x 1.75 mm^2 (Fig. 2 caption).
    """

    width_mm: float = 1.70
    height_mm: float = 1.75

    def __post_init__(self) -> None:
        check_positive("width_mm", self.width_mm)
        check_positive("height_mm", self.height_mm)

    @property
    def area_mm2(self) -> float:
        """Tile area in mm^2."""
        return self.width_mm * self.height_mm

    @property
    def area_m2(self) -> float:
        """Tile area in m^2 (for thermal conductance calculations)."""
        return self.area_mm2 * 1e-6
