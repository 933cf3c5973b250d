"""Parameter sweeps over campaigns.

The paper evaluates two dark-silicon floors; downstream users usually
want the whole curve.  :func:`sweep_dark_fractions` runs one campaign
per floor over shared silicon and collects the normalized metrics into
arrays ready for plotting or tabulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.aging.tables import AgingTable, default_aging_table
from repro.sim.campaign import CampaignResult, run_campaign
from repro.sim.config import SimulationConfig
from repro.variation.population import ChipPopulation, generate_population


@dataclass
class SweepResult:
    """Metrics per swept dark floor (rows align with ``fractions``).

    ``fractions`` must be unique: ``campaigns`` is keyed by float, so a
    duplicate floor could only alias one campaign while ``metric``
    emitted its row twice — silent double counting.  The constructor
    rejects duplicates; :func:`sweep_dark_fractions` deduplicates its
    input (order preserved) before building one.
    """

    fractions: list[float]
    campaigns: dict[float, CampaignResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.fractions)) != len(self.fractions):
            raise ValueError(
                f"duplicate dark fractions in {self.fractions!r}; each "
                "floor maps to exactly one campaign"
            )

    def metric(self, name: str, baseline: str, policy: str) -> np.ndarray:
        """Mean normalized metric per floor.

        ``name`` is one of ``dtm``, ``temp``, ``chip_aging``,
        ``avg_aging``.  Floors whose baseline produced no events yield
        NaN for ``dtm``.
        """
        getters = {
            "dtm": lambda c: c.normalized_dtm_events(baseline, policy),
            "temp": lambda c: c.normalized_temp_rise(baseline, policy),
            "chip_aging": lambda c: c.normalized_chip_fmax_aging(
                baseline, policy
            ),
            "avg_aging": lambda c: c.normalized_avg_fmax_aging(baseline, policy),
        }
        try:
            getter = getters[name]
        except KeyError:
            raise ValueError(
                f"unknown metric {name!r}; choose from {sorted(getters)}"
            ) from None
        out = []
        for fraction in self.fractions:
            campaign = self.campaigns.get(fraction)
            if campaign is None:
                raise ValueError(
                    f"no campaign recorded for dark fraction {fraction!r}; "
                    f"recorded floors: {sorted(self.campaigns)}"
                )
            values = getter(campaign)
            out.append(float(values.mean()) if values.size else float("nan"))
        return np.array(out)


def sweep_dark_fractions(
    policies,
    fractions,
    num_chips: int = 3,
    config: SimulationConfig | None = None,
    population: ChipPopulation | None = None,
    table: AgingTable | None = None,
    population_seed: int = 42,
    progress=None,
    workers: int = 1,
    dtm=None,
    mix_factory=None,
    retries: int = 0,
    job_timeout_s: float | None = None,
    allow_partial: bool = False,
    checkpoint=None,
    batch_size: int = 1,
) -> SweepResult:
    """Run one campaign per dark floor over shared silicon.

    ``policies`` is re-used across floors (policy objects must be
    stateless between runs, which all built-ins are).  The execution
    knobs — ``workers``, ``dtm``, ``mix_factory``, ``batch_size``, and
    the supervision set (``retries``, ``job_timeout_s``,
    ``allow_partial``, ``checkpoint``) — are forwarded verbatim to
    every :func:`run_campaign`, so a custom DTM policy or a
    checkpointed, fault-tolerant run behaves identically per floor.
    One checkpoint file serves the whole sweep: each floor's jobs are
    keyed by their own dark fraction and config digest.

    Repeated fractions are deduplicated with order preserved: each
    distinct floor runs exactly one campaign and contributes exactly
    one row to :meth:`SweepResult.metric`.
    """
    fractions = list(dict.fromkeys(float(f) for f in fractions))
    if not fractions:
        raise ValueError("need at least one dark fraction")
    if population is None:
        population = generate_population(num_chips, seed=population_seed)
    if table is None:
        table = default_aging_table()
    base_config = config if config is not None else SimulationConfig()

    result = SweepResult(fractions=fractions)
    for fraction in fractions:
        cfg = replace(base_config, dark_fraction_min=fraction)
        result.campaigns[fraction] = run_campaign(
            policies,
            config=cfg,
            population=population,
            table=table,
            progress=progress,
            workers=workers,
            dtm=dtm,
            mix_factory=mix_factory,
            retries=retries,
            job_timeout_s=job_timeout_s,
            allow_partial=allow_partial,
            checkpoint=checkpoint,
            batch_size=batch_size,
        )
    return result
