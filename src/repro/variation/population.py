"""Chip populations: many dies from one design.

The paper's evaluation spans 25 different chips so that results average
over the manufacturing lottery ("across a range of chips to account for
process variations").  All chips of a population share the floorplan,
variation parameters, and critical-path pattern (one design), but each
gets an independent correlated Vth field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.floorplan import Floorplan, paper_floorplan
from repro.util.rng import SeedSequenceFactory
from repro.variation.chip import Chip, _design_silicon, _sample_theta
from repro.variation.params import VariationParams


@dataclass
class ChipPopulation:
    """An ordered collection of chips manufactured from one design."""

    floorplan: Floorplan
    params: VariationParams
    chips: list[Chip] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.chips)

    def __iter__(self) -> Iterator[Chip]:
        return iter(self.chips)

    def __getitem__(self, index: int) -> Chip:
        return self.chips[index]

    def frequency_spreads(self) -> np.ndarray:
        """Per-chip relative frequency spread, for calibration checks."""
        return np.array([chip.frequency_spread() for chip in self.chips])

    def fmax_matrix_ghz(self) -> np.ndarray:
        """``(num_chips, num_cores)`` matrix of initial fmax values."""
        return np.array([chip.fmax_init_ghz for chip in self.chips])


def generate_population(
    num_chips: int,
    seed: int = 0,
    floorplan: Floorplan | None = None,
    params: VariationParams | None = None,
) -> ChipPopulation:
    """Manufacture ``num_chips`` dies deterministically from ``seed``.

    Chip ``i`` of a given seed is always identical, regardless of how
    many chips are requested, so comparison campaigns (Hayat vs VAA)
    see the exact same silicon.
    """
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    if floorplan is None:
        floorplan = paper_floorplan()
    if params is None:
        params = VariationParams()
    factory = SeedSequenceFactory(seed)
    # The field factor and the critical-path pattern belong to the design,
    # so they are computed once; each chip is one draw over the factor.
    factor, pattern = _design_silicon(floorplan, params, factory.rng("design"))
    chips = [
        Chip(
            floorplan,
            params,
            _sample_theta(params, factor, factory.rng("chip", index)),
            pattern,
            chip_id=f"chip-{index:02d}",
        )
        for index in range(num_chips)
    ]
    return ChipPopulation(floorplan=floorplan, params=params, chips=chips)
