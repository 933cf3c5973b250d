"""Rectangular-mesh floorplan with geometry and adjacency queries.

Cores are indexed row-major: core ``i`` sits at row ``i // cols`` and
column ``i % cols``.  All coordinate arrays are cached because the
variation and thermal models query them repeatedly during chip
construction.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from repro.floorplan.geometry import CoreGeometry
from repro.util.validation import check_index


class Floorplan:
    """An ``rows x cols`` mesh of identical core tiles.

    Parameters
    ----------
    rows, cols:
        Mesh dimensions.  The paper uses 8x8.
    core:
        Tile geometry shared by all cores.
    """

    def __init__(self, rows: int, cols: int, core: CoreGeometry | None = None):
        if rows < 1 or cols < 1:
            raise ValueError(f"floorplan must be at least 1x1, got {rows}x{cols}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.core = core if core is not None else CoreGeometry()

    @property
    def num_cores(self) -> int:
        """Total number of core tiles."""
        return self.rows * self.cols

    @property
    def die_width_mm(self) -> float:
        """Die width (x extent) in mm."""
        return self.cols * self.core.width_mm

    @property
    def die_height_mm(self) -> float:
        """Die height (y extent) in mm."""
        return self.rows * self.core.height_mm

    # ------------------------------------------------------------------
    # index <-> position
    # ------------------------------------------------------------------
    def position(self, core_index: int) -> tuple[int, int]:
        """Return ``(row, col)`` of a core index."""
        check_index("core_index", core_index, self.num_cores)
        return divmod(int(core_index), self.cols)

    def index(self, row: int, col: int) -> int:
        """Return the core index at ``(row, col)``."""
        check_index("row", row, self.rows)
        check_index("col", col, self.cols)
        return int(row) * self.cols + int(col)

    @cached_property
    def centers_mm(self) -> np.ndarray:
        """``(num_cores, 2)`` array of tile-center coordinates (x, y) in mm."""
        rows, cols = np.divmod(np.arange(self.num_cores), self.cols)
        x = (cols + 0.5) * self.core.width_mm
        y = (rows + 0.5) * self.core.height_mm
        return np.column_stack([x, y])

    @cached_property
    def distance_matrix_mm(self) -> np.ndarray:
        """``(num_cores, num_cores)`` Euclidean center-to-center distances."""
        centers = self.centers_mm
        deltas = centers[:, None, :] - centers[None, :, :]
        return np.sqrt((deltas**2).sum(axis=2))

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def neighbors(self, core_index: int) -> list[int]:
        """Return the 4-connected mesh neighbors of a core, sorted."""
        row, col = self.position(core_index)
        out = []
        if row > 0:
            out.append(self.index(row - 1, col))
        if col > 0:
            out.append(self.index(row, col - 1))
        if col < self.cols - 1:
            out.append(self.index(row, col + 1))
        if row < self.rows - 1:
            out.append(self.index(row + 1, col))
        return out

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected mesh edge ``(i, j)`` with ``i < j`` once."""
        for i in range(self.num_cores):
            for j in self.neighbors(i):
                if i < j:
                    yield (i, j)

    def manhattan_distance(self, a: int, b: int) -> int:
        """Mesh (hop) distance between two cores."""
        ra, ca = self.position(a)
        rb, cb = self.position(b)
        return abs(ra - rb) + abs(ca - cb)

    def to_grid(self, values: np.ndarray) -> np.ndarray:
        """Reshape a flat per-core vector into the ``(rows, cols)`` grid."""
        values = np.asarray(values)
        if values.shape != (self.num_cores,):
            raise ValueError(
                f"expected a flat vector of {self.num_cores} values, "
                f"got shape {values.shape}"
            )
        return values.reshape(self.rows, self.cols)

    def __repr__(self) -> str:
        return (
            f"Floorplan({self.rows}x{self.cols}, "
            f"core={self.core.width_mm}x{self.core.height_mm}mm)"
        )


def paper_floorplan() -> Floorplan:
    """The 8x8 Alpha 21264 floorplan of the paper's experimental setup."""
    return Floorplan(8, 8, CoreGeometry(width_mm=1.70, height_mm=1.75))
