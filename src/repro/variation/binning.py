"""Speed binning: the cherry-picking view of a chip population.

Raghunathan et al. [26] (the paper's variation-model source) exploit
process variations in dark-silicon CMPs by *selecting* which cores to
use — "cherry-picking".  At the population level the same physics shows
up as speed binning: chips sorted into frequency bins at test time.
These helpers classify a population the way a product line would, which
the examples use to study how Hayat's benefit varies across bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.variation.population import ChipPopulation


@dataclass(frozen=True)
class SpeedBin:
    """One bin: label, frequency floor, and member chip indices."""

    label: str
    floor_ghz: float
    chip_indices: tuple[int, ...]

    @property
    def count(self) -> int:
        """Number of chips in the bin."""
        return len(self.chip_indices)


def chip_grade_ghz(population: ChipPopulation, percentile: float = 50.0) -> np.ndarray:
    """Per-chip grading frequency: a percentile of the core fmax map.

    Binning by the median core (default) reflects sustained multi-core
    speed; ``percentile=100`` grades by the best core instead.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    fmax = population.fmax_matrix_ghz()
    return np.percentile(fmax, percentile, axis=1)


def bin_population(
    population: ChipPopulation,
    floors_ghz: list[float],
    percentile: float = 50.0,
) -> list[SpeedBin]:
    """Assign every chip to the highest bin whose floor it meets.

    ``floors_ghz`` must be strictly increasing; chips below the lowest
    floor land in an implicit reject bin (floor 0).  Returns bins
    highest-first, reject last.
    """
    floors = list(floors_ghz)
    if len(floors) < 1 or any(b <= a for a, b in zip(floors, floors[1:])):
        raise ValueError("floors_ghz must be non-empty and strictly increasing")
    grades = chip_grade_ghz(population, percentile)
    members: dict[float, list[int]] = {floor: [] for floor in floors}
    reject: list[int] = []
    for index, grade in enumerate(grades):
        eligible = [floor for floor in floors if grade >= floor]
        if eligible:
            members[max(eligible)].append(index)
        else:
            reject.append(index)
    bins = [
        SpeedBin(
            label=f">= {floor:.2f} GHz",
            floor_ghz=floor,
            chip_indices=tuple(members[floor]),
        )
        for floor in sorted(floors, reverse=True)
    ]
    bins.append(SpeedBin(label="reject", floor_ghz=0.0, chip_indices=tuple(reject)))
    return bins
