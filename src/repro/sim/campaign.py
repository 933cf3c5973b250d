"""Campaigns: populations of chips under competing policies.

The paper's evaluation shape: 25 chips x {25 %, 50 %} dark silicon x
{VAA, Hayat}, every (chip, dark-level) pair seeing identical silicon and
identical workload draws for both policies, normalized per chip to the
baseline (Figs. 7-10).

Campaigns are fault tolerant: every job runs under the
:mod:`repro.sim.supervisor` (bounded retries, optional per-job
timeouts, structured :class:`~repro.sim.supervisor.JobFailure` records)
and can stream completed jobs to a
:class:`~repro.sim.checkpoint.CampaignCheckpoint` so an interrupted
paper-scale run resumes instead of restarting.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.aging.tables import AgingTable, default_aging_table
from repro.obs import get_registry
from repro.sim.checkpoint import CampaignCheckpoint, campaign_digest
from repro.sim.config import SimulationConfig
from repro.sim.results import LifetimeResult
from repro.sim.supervisor import (
    CampaignJobError,
    JobFailure,
    run_supervised_jobs,
)
from repro.thermal.cache import floorplan_signature
from repro.util.constants import AMBIENT_KELVIN
from repro.variation.population import ChipPopulation, generate_population

__all__ = [
    "CampaignJobError",
    "CampaignResult",
    "JobFailure",
    "run_campaign",
]

#: Chips per dispatch unit that ``repro campaign``/``sweep`` and fleet
#: requests use unless told otherwise (the library default is 1).
DEFAULT_BATCH_SIZE = 32


@dataclass
class CampaignResult:
    """All lifetime results of one campaign, keyed for comparison.

    With ``allow_partial=True`` a failed job leaves an *empty* lifetime
    (zero epochs, same chip identity) in its slot plus a
    :class:`JobFailure` in :attr:`failures`, so the per-policy lists
    stay chip-aligned.  Every normalization below pairs results
    chip-for-chip and skips chips where either side has no epochs — a
    failed chip drops out of the comparison instead of poisoning the
    population mean with ``inf``/``nan``.
    """

    config: SimulationConfig
    #: results[policy_name][chip_index] -> LifetimeResult
    results: dict[str, list[LifetimeResult]] = field(default_factory=dict)
    #: Jobs that exhausted their retries (``allow_partial`` campaigns).
    failures: list[JobFailure] = field(default_factory=list)

    def policies(self) -> list[str]:
        """Policy names in insertion order."""
        return list(self.results)

    def _pairs(self, baseline: str, policy: str):
        """Chip-aligned (base, other) pairs where both sides completed."""
        for base, other in zip(self.results[baseline], self.results[policy]):
            if base.epochs and other.epochs:
                yield base, other

    def normalized_dtm_events(self, baseline: str, policy: str) -> np.ndarray:
        """Per-chip DTM events of ``policy`` / ``baseline`` (Fig. 7).

        Chips whose baseline count is zero are skipped (no events to
        normalize against).
        """
        out = []
        for base, other in self._pairs(baseline, policy):
            base_events = base.total_dtm_events()
            if base_events > 0:
                out.append(other.total_dtm_events() / base_events)
        return np.array(out)

    def normalized_temp_rise(self, baseline: str, policy: str) -> np.ndarray:
        """Per-chip mean temperature-over-ambient ratio (Fig. 8).

        Chips whose baseline rise is zero or negative are skipped (no
        meaningful rise to normalize against), like
        :meth:`normalized_dtm_events` skips event-free baselines.
        """
        out = []
        for base, other in self._pairs(baseline, policy):
            rise_base = base.mean_temp_rise_k(AMBIENT_KELVIN)
            if rise_base > 0.0:
                out.append(other.mean_temp_rise_k(AMBIENT_KELVIN) / rise_base)
        return np.array(out)

    def normalized_chip_fmax_aging(self, baseline: str, policy: str) -> np.ndarray:
        """Per-chip max-frequency aging-rate ratio (Fig. 9)."""
        out = []
        for base, other in self._pairs(baseline, policy):
            rate_base = base.chip_fmax_aging_rate()
            if rate_base > 1e-9:
                out.append(other.chip_fmax_aging_rate() / rate_base)
        return np.array(out)

    def normalized_avg_fmax_aging(self, baseline: str, policy: str) -> np.ndarray:
        """Per-chip average-frequency aging-rate ratio (Fig. 10)."""
        out = []
        for base, other in self._pairs(baseline, policy):
            rate_base = base.avg_fmax_aging_rate()
            if rate_base > 1e-9:
                out.append(other.avg_fmax_aging_rate() / rate_base)
        return np.array(out)

    def mean_avg_fmax_trajectory(self, policy: str) -> np.ndarray:
        """Population-mean average-frequency trajectory (Fig. 11 right).

        Empty (failed-job) lifetimes are skipped; with no completed
        lifetime at all the trajectory is empty.  Completed lifetimes
        with *differing* epoch counts cannot be averaged elementwise and
        raise ``ValueError`` instead of broadcasting garbage.
        """
        trajectories = [
            r.avg_fmax_trajectory_ghz() for r in self.results[policy] if r.epochs
        ]
        if not trajectories:
            return np.array([])
        lengths = {t.shape[0] for t in trajectories}
        if len(lengths) > 1:
            raise ValueError(
                f"cannot average trajectories of policy {policy!r}: "
                f"inhomogeneous epoch counts {sorted(lengths)}"
            )
        return np.mean(trajectories, axis=0)


def _distinct_floorplans(population) -> list:
    """One floorplan per distinct thermal signature in the population."""
    seen: dict = {}
    for chip in population:
        seen.setdefault(floorplan_signature(chip.floorplan), chip.floorplan)
    return list(seen.values())


def build_shared(
    config: SimulationConfig,
    table: AgingTable,
    population,
    *,
    dtm=None,
    mix_factory=None,
    isolate_metrics: bool = False,
) -> dict:
    """The campaign-invariant dict every supervised worker is seeded with.

    Factored out of :func:`run_campaign` so the fleet daemon
    (:mod:`repro.sim.fleet`) provisions its persistent worker pools with
    exactly the invariants a one-shot campaign would ship — same
    thermal-cache warm-up, same metrics-isolation contract.
    """
    registry = get_registry()
    return {
        "table": table,
        "config": config,
        "dtm": dtm,
        "mix_factory": mix_factory,
        "collect": registry.enabled,
        "tracing": registry.tracing,
        # Checkpointing stores per-job snapshots; retrying must discard
        # a failed attempt's partial metrics.  Both need job-isolated
        # registries even on the in-process host.
        "isolate_metrics": bool(isolate_metrics),
        "warm_floorplans": _distinct_floorplans(population),
    }


def run_campaign(
    policies,
    num_chips: int = 25,
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
) -> CampaignResult:
    """Run every policy over the same chip population.

    Parameters
    ----------
    policies:
        Iterable of policy objects (each with ``name`` and
        ``prepare_epoch``).
    num_chips:
        Population size when ``population`` is not supplied (paper: 25).
    config:
        Simulation configuration (shared by all runs).
    population, table:
        Pre-built silicon and aging table, for reuse across campaigns.
    progress:
        Optional callable ``(policy_name, chip_id)`` invoked once per
        job that completes with a result, in completion order, serial
        or pooled.  Pooled completions arrive in completion order, not
        submission order, so progress never stalls behind the slowest
        early job; jobs skipped by a checkpoint resume and jobs that
        exhaust their retries are not reported.
    workers:
        Process count.  Every (policy, chip) lifetime is independent,
        so results are bit-identical to the serial run; use this for
        paper-scale campaigns.  The shared table/config/knobs ship once
        per worker through the pool initializer (not once per job), and
        each worker's thermal compute cache is pre-warmed so no job pays
        a first-miss factorization.
    dtm, mix_factory:
        Forwarded to every :class:`LifetimeSimulator` (``None`` = the
        simulator's defaults).  With a worker pool both must pickle
        for the spawn workers; an unpicklable knob raises ``ValueError``
        up front instead of silently substituting the default.
    retries:
        Re-attempts granted to a job whose run raises (or whose worker
        dies or times out) before it counts as failed.  Retries run
        against the same shared invariants; after a timeout they run in
        a fresh worker.
    job_timeout_s:
        Per-job wall-clock deadline.  Timeouts need a preemptable
        worker, so setting this routes even ``workers=1`` campaigns
        through a one-process spawn pool (results stay bit-identical).
    allow_partial:
        When ``True`` a job that exhausts its retries degrades to an
        empty lifetime plus a :class:`JobFailure` in
        ``CampaignResult.failures`` instead of aborting the campaign.
        The default stays fail-fast: the first exhausted job raises
        :class:`CampaignJobError`.
    checkpoint:
        Path of a JSONL checkpoint stream (see
        :mod:`repro.sim.checkpoint`).  Completed jobs are appended as
        they finish; re-running with the same path skips them and
        replays their results and metric snapshots, making the final
        aggregates bit-identical to an uninterrupted run.  Failed jobs
        are never checkpointed, so a resume retries them.
    batch_size:
        Chips per dispatch unit for the batched population engine
        (:class:`~repro.sim.batch.BatchLifetimeSimulator`).  ``1``
        (the default) keeps the per-chip path; a larger int batches
        that many same-policy, same-floorplan chips per unit, whatever
        ``workers`` is (a pool with fewer units than workers leaves the
        rest idle).
        Checkpoints stay per-chip, so a resume may re-group survivors
        into different batches, and batch sizing is deliberately *not*
        part of the campaign digest.  Results equal the per-chip path
        bit for bit only when every mapping round takes one arithmetic
        route whatever the batch (``delta_options(min_dense_rows=0)``).
        By default the delta-candidate cost gate counts *stacked* rows,
        and BLAS may round a one-row product differently from the same
        row inside a larger one, so a chip's lifetime can depend on its
        batch mates: ROADMAP.md measured 5 of 96 lifetimes changing
        with one BLAS thread.

    Metrics: when the global :mod:`repro.obs` registry is enabled, every
    run records a ``campaign.run`` span plus the simulator/thermal
    counters; supervision adds ``campaign.retries``,
    ``campaign.job_failures`` and ``campaign.resumed_jobs``.  Parallel
    workers collect into per-job registries whose snapshots are merged
    back here, so the aggregate is identical to a serial run's.
    """
    config = config if config is not None else SimulationConfig()
    if population is None:
        population = generate_population(num_chips, seed=population_seed)
    if table is None:
        table = default_aging_table()
    if workers < 1:
        raise ValueError("workers must be >= 1")

    policies = list(policies)
    store = digest = None
    if checkpoint is not None:
        store = CampaignCheckpoint(checkpoint)
        digest = campaign_digest(config, population, table)
    shared = build_shared(
        config,
        table,
        population,
        dtm=dtm,
        mix_factory=mix_factory,
        isolate_metrics=store is not None or retries > 0 or allow_partial,
    )
    jobs = [(policy, chip) for policy in policies for chip in population]
    if workers > 1 or job_timeout_s is not None:
        for name, knob in (("dtm", dtm), ("mix_factory", mix_factory)):
            if knob is None:
                continue
            try:
                pickle.dumps(knob)
            except Exception as error:
                raise ValueError(
                    f"{name} must be picklable for parallel run_campaign "
                    f"(workers={workers}); got {knob!r} ({error}). "
                    "Use a module-level callable, or workers=1."
                ) from error
    flat, failures = run_supervised_jobs(
        jobs,
        shared,
        config=config,
        workers=workers,
        retries=retries,
        job_timeout_s=job_timeout_s,
        allow_partial=allow_partial,
        checkpoint=store,
        digest=digest,
        progress=progress,
        batch_size=batch_size,
    )
    campaign = CampaignResult(config=config, failures=failures)
    per_policy = len(population.chips)
    for index, policy in enumerate(policies):
        campaign.results[policy.name] = flat[
            index * per_policy : (index + 1) * per_policy
        ]
    return campaign
