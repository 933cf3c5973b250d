"""Batched population engine: bit-identity with the per-chip path.

Every test here pins the tentpole contract of
:class:`repro.sim.batch.BatchLifetimeSimulator`: batching is purely an
execution strategy — every ``LifetimeResult`` field, across batch sizes,
mixed floorplans, fallbacks, and checkpoint resumes, must equal the
per-chip path bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import VAAManager
from repro.cli import _build_parser
from repro.core import HayatManager
from repro.dtm.policy import DTMPolicy, DTMReport
from repro.floorplan import Floorplan
from repro.obs import MetricsRegistry, use_registry
from repro.sim import (
    BatchLifetimeSimulator,
    CampaignCheckpoint,
    CampaignJobError,
    ChipContext,
    LifetimeSimulator,
    SimulationConfig,
    run_campaign,
)
from repro.sim.export import result_to_dict
from repro.variation import generate_population
from repro.variation.population import ChipPopulation
from repro.workload.mix import random_mix
from repro.workload.traces import PhaseTrace
from tests.test_sim_checkpoint import InterruptedHayat
from tests.test_sim_window import StepwiseDTM


class InterruptedOnChip02(InterruptedHayat):
    crash_chip = "chip-02"


#: The ``batch_size`` a ``repro campaign`` run passes by default.
CLI_DEFAULT_BATCH_SIZE = _build_parser().parse_args(["campaign"]).batch_size


def small_config(**overrides) -> SimulationConfig:
    base = dict(
        lifetime_years=1.0, epoch_years=0.5, dark_fraction_min=0.5,
        window_s=5.0, seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def assert_results_identical(batched, reference) -> None:
    """Field-by-field equality of two LifetimeResult lists."""
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        assert got.chip_id == want.chip_id
        assert got.policy_name == want.policy_name
        assert got.dark_fraction_min == want.dark_fraction_min
        np.testing.assert_array_equal(got.fmax_init_ghz, want.fmax_init_ghz)
        assert len(got.epochs) == len(want.epochs)
        for eb, es in zip(got.epochs, want.epochs):
            for field in dataclasses.fields(eb):
                got_value = getattr(eb, field.name)
                want_value = getattr(es, field.name)
                if isinstance(got_value, np.ndarray):
                    assert np.array_equal(got_value, want_value), (
                        got.chip_id, eb.epoch_index, field.name,
                    )
                else:
                    assert got_value == want_value, (
                        got.chip_id, eb.epoch_index, field.name,
                    )


@pytest.fixture(scope="module")
def pieces(aging_table):
    return small_config(), generate_population(6, seed=11), aging_table


@pytest.fixture(scope="module")
def per_chip_reference(pieces):
    """Per-chip results for both policies, computed once."""
    cfg, population, table = pieces
    return run_campaign(
        [VAAManager(), HayatManager()],
        config=cfg, population=population, table=table,
    )


class TestEngineDirect:
    def test_matches_per_chip_simulator(self, pieces):
        cfg, population, table = pieces
        policy = HayatManager()
        ctxs = [
            ChipContext(chip, table, dark_fraction_min=cfg.dark_fraction_min)
            for chip in population
        ]
        batched = BatchLifetimeSimulator(cfg).run(ctxs, policy)
        solo = [
            LifetimeSimulator(cfg).run(
                ChipContext(
                    chip, table, dark_fraction_min=cfg.dark_fraction_min
                ),
                policy,
            )
            for chip in population
        ]
        assert_results_identical(batched, solo)

    def test_empty_input(self, pieces):
        cfg, _, _ = pieces
        assert BatchLifetimeSimulator(cfg).run([], HayatManager()) == []

    def test_single_chip_delegates(self, pieces):
        """A one-chip batch has nothing to stack: per-chip fallback,
        identical result."""
        cfg, population, table = pieces
        ctx = ChipContext(
            population[0], table, dark_fraction_min=cfg.dark_fraction_min
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            batched = BatchLifetimeSimulator(cfg).run([ctx], HayatManager())
        solo = LifetimeSimulator(cfg).run(
            ChipContext(
                population[0], table, dark_fraction_min=cfg.dark_fraction_min
            ),
            HayatManager(),
        )
        assert_results_identical(batched, [solo])
        assert registry.counter("sim.batch_fallbacks") == 1
        assert registry.counter("sim.batched_chips") == 0

    def test_unfused_config_falls_back(self, pieces):
        """A DTM policy without the fused-window contract cannot share a
        lockstep pass: every chip runs the step-by-step window solo."""
        cfg, population, table = pieces
        ctxs = [
            ChipContext(chip, table, dark_fraction_min=0.5)
            for chip in population.chips[:3]
        ]
        registry = MetricsRegistry()
        with use_registry(registry):
            batched = BatchLifetimeSimulator(
                cfg, dtm=StepwiseDTM(tsafe_k=cfg.tsafe_k)
            ).run(ctxs, HayatManager())
        solo = [
            LifetimeSimulator(cfg, dtm=StepwiseDTM(tsafe_k=cfg.tsafe_k)).run(
                ChipContext(chip, table, dark_fraction_min=0.5),
                HayatManager(),
            )
            for chip in population.chips[:3]
        ]
        assert_results_identical(batched, solo)
        assert registry.counter("sim.batch_fallbacks") == 1
        assert registry.counter("sim.fused_steps") == 0


class _AlwaysFiringDTM(DTMPolicy):
    """Reports a throttle on every pass and changes nothing, so the
    settle loop never goes quiet."""

    def enforce(self, state, temps_k, fmax_ghz):
        return DTMReport(throttles=1)


class TestSettleUnconverged:
    def test_counted_in_both_engines(self, pieces):
        cfg, population, table = pieces
        chips = population.chips[:3]

        def contexts():
            return [
                ChipContext(chip, table, dark_fraction_min=cfg.dark_fraction_min)
                for chip in chips
            ]

        per_chip = MetricsRegistry()
        with use_registry(per_chip):
            for ctx in contexts():
                LifetimeSimulator(cfg, dtm=_AlwaysFiringDTM()).run(
                    ctx, VAAManager()
                )
        batched = MetricsRegistry()
        with use_registry(batched):
            BatchLifetimeSimulator(cfg, dtm=_AlwaysFiringDTM()).run(
                contexts(), VAAManager()
            )
        assert batched.counter("sim.batched_chips") == len(chips)
        expected = len(chips) * cfg.num_epochs
        assert per_chip.counter("sim.settle_unconverged") == expected
        assert batched.counter("sim.settle_unconverged") == expected

    def test_quiet_settles_count_nothing(self, pieces):
        cfg, population, table = pieces
        ctxs = [
            ChipContext(chip, table, dark_fraction_min=cfg.dark_fraction_min)
            for chip in population.chips[:2]
        ]
        registry = MetricsRegistry()
        with use_registry(registry):
            BatchLifetimeSimulator(cfg).run(ctxs, VAAManager())
        assert registry.counter("sim.settle_rounds") > 0
        assert registry.counter("sim.settle_unconverged") == 0


class _OpaqueTrace(PhaseTrace):
    """A trace type the segment compiler cannot prove equivalent."""


def _sometimes_opaque_mix(epoch, num_threads, rng):
    """A random mix whose first application, on about half the
    (chip, epoch) draws, carries traces ``compile_segment`` rejects."""
    mix = random_mix(num_threads, rng)
    if rng.random() < 0.5:
        for thread in mix.applications[0].threads:
            thread.trace.__class__ = _OpaqueTrace
    return mix


class TestUncompilableTraces:
    @pytest.mark.parametrize("policy_cls", [VAAManager, HayatManager])
    def test_step_by_step_lanes_match_per_chip(self, pieces, policy_cls):
        """Windows whose traces cannot compile run the unfused step
        body, mixed with fused lanes in one lockstep pass, and both
        engines still agree bit for bit."""
        cfg, population, table = pieces
        chips = population.chips[:3]

        def contexts():
            return [
                ChipContext(chip, table, dark_fraction_min=cfg.dark_fraction_min)
                for chip in chips
            ]

        per_chip = MetricsRegistry()
        with use_registry(per_chip):
            solo = [
                LifetimeSimulator(cfg, mix_factory=_sometimes_opaque_mix).run(
                    ctx, policy_cls()
                )
                for ctx in contexts()
            ]
        batched = MetricsRegistry()
        with use_registry(batched):
            lockstep = BatchLifetimeSimulator(
                cfg, mix_factory=_sometimes_opaque_mix
            ).run(contexts(), policy_cls())
        assert_results_identical(lockstep, solo)
        assert batched.counter("sim.batched_chips") == len(chips)
        total_steps = len(chips) * cfg.num_epochs * cfg.steps_per_window
        fused = per_chip.counter("sim.fused_steps")
        assert 0 < fused < total_steps
        assert batched.counter("sim.fused_steps") == fused


class TestCampaignBatchSizes:
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_bit_identical_across_batch_sizes(
        self, pieces, per_chip_reference, batch_size
    ):
        """The acceptance matrix: sizes below, at, and far above the
        population (64 forms one partial batch per policy)."""
        cfg, population, table = pieces
        batched = run_campaign(
            [VAAManager(), HayatManager()],
            config=cfg, population=population, table=table,
            batch_size=batch_size,
        )
        for name in per_chip_reference.results:
            assert_results_identical(
                batched.results[name], per_chip_reference.results[name]
            )

    def test_auto_matches_no_batch(self, pieces, per_chip_reference):
        """The CLI's default batch size matches the per-chip path."""
        cfg, population, table = pieces
        default = run_campaign(
            [VAAManager(), HayatManager()],
            config=cfg, population=population, table=table,
            batch_size=CLI_DEFAULT_BATCH_SIZE,
        )
        for name in per_chip_reference.results:
            assert_results_identical(
                default.results[name], per_chip_reference.results[name]
            )

    def test_default_batch_size_ignores_workers(self, pieces):
        """Serial and pooled campaigns at the default batch size form the
        same units: equal stacked-solve counts and identical results."""
        cfg, population, table = pieces
        runs = []
        for workers in (1, 2):
            registry = MetricsRegistry()
            with use_registry(registry):
                campaign = run_campaign(
                    [VAAManager(), HayatManager()],
                    config=cfg, population=population, table=table,
                    batch_size=CLI_DEFAULT_BATCH_SIZE, workers=workers,
                )
            runs.append((campaign, registry))
        (serial, serial_registry), (pooled, pooled_registry) = runs
        assert serial_registry.counter("sim.batch_solves") > 0
        assert serial_registry.counter(
            "sim.batch_solves"
        ) == pooled_registry.counter("sim.batch_solves")
        for name in serial.results:
            assert_results_identical(pooled.results[name], serial.results[name])

    def test_counters_observed(self, pieces):
        """Batching is visible (sim.batched_chips, sim.batch_solves)
        while the physics counters stay additive-identical to the
        per-chip run."""
        cfg, population, table = pieces
        physics = (
            "sim.epochs", "sim.fused_steps", "sim.settle_rounds",
            "thermal.coupled_solves", "thermal.coupled_iterations",
            "thermal.transient_steps", "thermal.steady_solves",
            "sim.dtm_migrations", "sim.dtm_throttles", "sim.qos_violations",
            "sim.tsafe_violation_steps", "sim.segment_breaks",
            "sim.timeline_compiles", "sim.settle_unconverged",
        )
        plain_registry = MetricsRegistry()
        with use_registry(plain_registry):
            run_campaign(
                [VAAManager(), HayatManager()],
                config=cfg, population=population, table=table,
            )
        batch_registry = MetricsRegistry()
        with use_registry(batch_registry):
            run_campaign(
                [VAAManager(), HayatManager()],
                config=cfg, population=population, table=table,
                batch_size=3,
            )
        assert batch_registry.counter("sim.batched_chips") == 2 * len(population)
        assert batch_registry.counter("sim.batch_solves") > 0
        assert plain_registry.counter("sim.batched_chips") == 0
        for key in physics:
            assert plain_registry.counter(key) == batch_registry.counter(key), key

    def test_invalid_batch_size_rejected(self, pieces):
        cfg, population, table = pieces
        for bad in (0, -3, 2.5, True, "huge"):
            with pytest.raises(ValueError):
                run_campaign(
                    [HayatManager()],
                    config=cfg, population=population, table=table,
                    batch_size=bad,
                )


class TestMixedFloorplans:
    def test_partial_batches_per_floorplan_group(self, aging_table):
        """A population spanning two floorplans batches each signature
        group separately (partial batches included) and still matches
        the per-chip path exactly."""
        cfg = small_config()
        big = generate_population(3, seed=11)
        small = generate_population(2, seed=13, floorplan=Floorplan(4, 4))
        for chip in small:
            chip.chip_id = f"alt-{chip.chip_id}"
        population = ChipPopulation(
            floorplan=big.floorplan,
            params=big.params,
            chips=list(big.chips) + list(small.chips),
        )
        reference = run_campaign(
            [HayatManager()],
            config=cfg, population=population, table=aging_table,
        )
        batched = run_campaign(
            [HayatManager()],
            config=cfg, population=population, table=aging_table,
            batch_size=2,
        )
        assert_results_identical(
            batched.results["hayat"], reference.results["hayat"]
        )


class TestBatchedResume:
    def test_kill_mid_batched_campaign_then_resume(self, pieces, tmp_path):
        """A batched campaign dies on one chip: the batch demotes to
        singletons, the innocents checkpoint, and a batched resume with
        a *different* batch size reproduces the uninterrupted per-chip
        campaign bit for bit."""
        cfg, population, table = pieces
        population = ChipPopulation(
            floorplan=population.floorplan,
            params=population.params,
            chips=list(population.chips[:3]),
        )
        path = str(tmp_path / "campaign.jsonl")

        reference = run_campaign(
            [HayatManager()],
            config=cfg, population=population, table=table,
        )

        # Run 1: chip-02's unit crashes; fail-fast, but the batch
        # demotes to singletons first, so the innocent batch-mates
        # ordered before the culprit complete and checkpoint.
        with use_registry(MetricsRegistry()):
            with pytest.raises(CampaignJobError):
                run_campaign(
                    [InterruptedOnChip02()],
                    config=cfg, population=population, table=table,
                    checkpoint=path, batch_size=3,
                )
        assert len(CampaignCheckpoint(path)) == 2

        # Run 2: resume with the fault gone and a different batch size;
        # only the crashed chip still executes.
        registry = MetricsRegistry()
        with use_registry(registry):
            resumed = run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=table,
                checkpoint=path, batch_size=2,
            )
        assert registry.counter("campaign.resumed_jobs") == 2
        assert registry.counter("campaign.jobs_executed") == 1
        for a, b in zip(reference.results["hayat"], resumed.results["hayat"]):
            assert result_to_dict(a) == result_to_dict(b)
