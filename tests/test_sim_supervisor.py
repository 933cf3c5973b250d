"""Campaign supervision: retries, timeouts, partial results.

The injected-fault policies live at module level so they pickle into
spawn workers; cross-attempt state (fail once, then succeed) lives in
sentinel files because a retried job may run in a fresh process.
"""

import os
import time

import numpy as np
import pytest

from repro.core import HayatManager
from repro.obs import MetricsRegistry, use_registry
from repro.sim import (
    CampaignJobError,
    SimulationConfig,
    run_campaign,
)
from repro.variation import generate_population


def tiny_config(seed: int = 3) -> SimulationConfig:
    return SimulationConfig(
        lifetime_years=0.5, epoch_years=0.5, dark_fraction_min=0.5,
        window_s=3.0, seed=seed,
    )


class FlakyPolicy(HayatManager):
    """Raises on ``crash_chip`` until the sentinel file exists."""

    name = "flaky"

    def __init__(self, crash_chip: str, sentinel: str):
        super().__init__()
        self.crash_chip = crash_chip
        self.sentinel = sentinel

    def prepare_epoch(self, ctx, mix, epoch_years):
        if ctx.chip.chip_id == self.crash_chip:
            if not os.path.exists(self.sentinel):
                with open(self.sentinel, "w") as handle:
                    handle.write("armed\n")
                raise RuntimeError("injected fault")
        return super().prepare_epoch(ctx, mix, epoch_years)


class AlwaysCrashPolicy(HayatManager):
    """Raises on ``crash_chip`` every single attempt."""

    name = "crashy"

    def __init__(self, crash_chip: str):
        super().__init__()
        self.crash_chip = crash_chip

    def prepare_epoch(self, ctx, mix, epoch_years):
        if ctx.chip.chip_id == self.crash_chip:
            raise RuntimeError("injected permanent fault")
        return super().prepare_epoch(ctx, mix, epoch_years)


class HangPolicy(HayatManager):
    """Hangs on ``hang_chip`` until the sentinel file exists."""

    name = "hangy"

    def __init__(self, hang_chip: str, sentinel: str):
        super().__init__()
        self.hang_chip = hang_chip
        self.sentinel = sentinel

    def prepare_epoch(self, ctx, mix, epoch_years):
        if ctx.chip.chip_id == self.hang_chip:
            if not os.path.exists(self.sentinel):
                with open(self.sentinel, "w") as handle:
                    handle.write("armed\n")
                time.sleep(600.0)
        return super().prepare_epoch(ctx, mix, epoch_years)


class SlowPolicy(HayatManager):
    """Sleeps before every epoch decision (skews job durations)."""

    name = "slow"

    def __init__(self, delay_s: float):
        super().__init__()
        self.delay_s = delay_s

    def prepare_epoch(self, ctx, mix, epoch_years):
        time.sleep(self.delay_s)
        return super().prepare_epoch(ctx, mix, epoch_years)


class FastPolicy(HayatManager):
    name = "fast"


@pytest.fixture(scope="module")
def pieces(aging_table):
    return tiny_config(), generate_population(2, seed=23), aging_table


class TestSerialSupervision:
    def test_clean_campaign_with_every_knob_has_no_failures(
        self, pieces, tmp_path
    ):
        """Retries, partial results and checkpointing engaged on healthy
        policies: no failure is recorded and every result equals the
        plain serial run's."""
        from repro.baselines import VAAManager
        from repro.sim.export import result_to_dict

        cfg, population, table = pieces
        policies = [VAAManager(), HayatManager()]
        plain = run_campaign(
            policies, config=cfg, population=population, table=table,
        )
        supervised = run_campaign(
            policies, config=cfg, population=population, table=table,
            retries=2, allow_partial=True,
            checkpoint=str(tmp_path / "ckpt.jsonl"),
        )
        assert plain.failures == [] and supervised.failures == []
        for name, runs in plain.results.items():
            assert [result_to_dict(r) for r in runs] == [
                result_to_dict(r) for r in supervised.results[name]
            ]

    def test_retry_recovers_flaky_job(self, pieces, tmp_path):
        cfg, population, table = pieces
        sentinel = str(tmp_path / "armed")
        registry = MetricsRegistry()
        with use_registry(registry):
            campaign = run_campaign(
                [FlakyPolicy("chip-01", sentinel)],
                config=cfg, population=population, table=table,
                retries=1,
            )
        assert registry.counter("campaign.retries") == 1
        assert registry.counter("campaign.job_failures") == 0
        assert campaign.failures == []
        assert all(r.epochs for r in campaign.results["flaky"])

    def test_retried_job_matches_clean_run(self, pieces, tmp_path):
        """A retry runs against the same invariants: same result bits."""
        cfg, population, table = pieces
        clean = run_campaign(
            [HayatManager()], config=cfg, population=population, table=table,
        )
        flaky = run_campaign(
            [FlakyPolicy("chip-01", str(tmp_path / "armed"))],
            config=cfg, population=population, table=table, retries=2,
        )
        for a, b in zip(clean.results["hayat"], flaky.results["flaky"]):
            np.testing.assert_array_equal(
                a.health_trajectory(), b.health_trajectory()
            )

    def test_fail_fast_raises_after_exhaustion(self, pieces):
        cfg, population, table = pieces
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(CampaignJobError, match="injected permanent"):
                run_campaign(
                    [AlwaysCrashPolicy("chip-01")],
                    config=cfg, population=population, table=table,
                    retries=1,
                )
        assert registry.counter("campaign.retries") == 1
        assert registry.counter("campaign.job_failures") == 1

    def test_allow_partial_degrades_to_empty_result(self, pieces):
        cfg, population, table = pieces
        registry = MetricsRegistry()
        with use_registry(registry):
            campaign = run_campaign(
                [AlwaysCrashPolicy("chip-00")],
                config=cfg, population=population, table=table,
                retries=1, allow_partial=True,
            )
        assert len(campaign.failures) == 1
        failure = campaign.failures[0]
        assert failure.policy_name == "crashy"
        assert failure.chip_id == "chip-00"
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert "injected permanent fault" in failure.message
        assert registry.counter("campaign.job_failures") == 1
        # Slot alignment survives: the failed chip holds an empty
        # lifetime with the right identity, the other chip completed.
        degraded, completed = campaign.results["crashy"]
        assert degraded.chip_id == "chip-00" and degraded.epochs == []
        assert completed.chip_id == "chip-01" and completed.epochs

    def test_failed_attempt_metrics_are_discarded(self, pieces, tmp_path):
        """A retried job's counters count once, not once per attempt."""
        cfg, population, table = pieces
        clean_registry = MetricsRegistry()
        with use_registry(clean_registry):
            run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=table, retries=1,
            )
        flaky_registry = MetricsRegistry()
        with use_registry(flaky_registry):
            run_campaign(
                [FlakyPolicy("chip-01", str(tmp_path / "armed"))],
                config=cfg, population=population, table=table, retries=1,
            )
        clean = clean_registry.snapshot().counters
        flaky = flaky_registry.snapshot().counters
        for name in ("sim.epochs", "campaign.runs", "campaign.jobs_executed"):
            assert clean[name] == flaky[name], name

    def test_bad_retry_and_timeout_values_rejected(self, pieces):
        cfg, population, table = pieces
        with pytest.raises(ValueError, match="retries"):
            run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=table, retries=-1,
            )
        with pytest.raises(ValueError, match="job_timeout_s"):
            run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=table,
                job_timeout_s=0.0,
            )


class TestPooledSupervision:
    def test_pool_retry_recovers_crashed_worker_job(self, pieces, tmp_path):
        cfg, population, table = pieces
        sentinel = str(tmp_path / "armed")
        registry = MetricsRegistry()
        with use_registry(registry):
            campaign = run_campaign(
                [FlakyPolicy("chip-00", sentinel)],
                config=cfg, population=population, table=table,
                workers=2, retries=1,
            )
        assert registry.counter("campaign.retries") == 1
        assert campaign.failures == []
        assert all(r.epochs for r in campaign.results["flaky"])

    def test_timeout_kills_hung_worker_and_retries(self, pieces, tmp_path):
        """A hung job trips the deadline; the retry runs in a fresh
        worker (the sentinel disarms the hang) and the innocent
        concurrent job completes unscathed."""
        cfg, population, table = pieces
        sentinel = str(tmp_path / "armed")
        registry = MetricsRegistry()
        with use_registry(registry):
            campaign = run_campaign(
                [HangPolicy("chip-00", sentinel)],
                config=cfg, population=population, table=table,
                workers=2, retries=1, job_timeout_s=25.0,
            )
        assert registry.counter("campaign.retries") == 1
        assert registry.counter("campaign.job_failures") == 0
        assert campaign.failures == []
        assert all(r.epochs for r in campaign.results["hangy"])
        # The rescued campaign matches a clean serial run bit-for-bit.
        clean = run_campaign(
            [HayatManager()], config=cfg, population=population, table=table,
        )
        for a, b in zip(clean.results["hayat"], campaign.results["hangy"]):
            np.testing.assert_array_equal(
                a.health_trajectory(), b.health_trajectory()
            )

    def test_progress_reports_in_completion_order(self, pieces):
        """Progress must not stall behind the slowest early job: the
        fast job (submitted second) reports first."""
        cfg, population, table = pieces
        one_chip = generate_population(1, seed=23)
        calls = []
        campaign = run_campaign(
            [SlowPolicy(4.0), FastPolicy()],
            config=cfg, population=one_chip, table=table, workers=2,
            progress=lambda policy, chip: calls.append((policy, chip)),
        )
        assert calls == [("fast", "chip-00"), ("slow", "chip-00")]
        # Completion order must not scramble result association.
        assert campaign.policies() == ["slow", "fast"]
        slow, fast = campaign.results["slow"][0], campaign.results["fast"][0]
        assert slow.policy_name == "slow" and fast.policy_name == "fast"
        np.testing.assert_array_equal(
            slow.health_trajectory(), fast.health_trajectory()
        )


def _lifetime_bits(result) -> dict:
    """A result's full dict form, minus the policy name (the injected-
    fault policies run Hayat under another name)."""
    from repro.sim.export import result_to_dict

    data = result_to_dict(result)
    del data["policy_name"]
    return data


@pytest.fixture(scope="module")
def three_chips(pieces):
    """Three chips and their clean per-chip Hayat lifetimes."""
    cfg, _, table = pieces
    population = generate_population(3, seed=23)
    clean = run_campaign(
        [HayatManager()], config=cfg, population=population, table=table,
    )
    return population, clean.results["hayat"]


@pytest.mark.parametrize("workers", [1, 2], ids=["in_process", "spawn_pool"])
class TestFaultMatrix:
    """Each fault behaves the same on the in-process host and a spawn
    pool: one dispatch loop decides retry, demotion and exhaustion."""

    def test_retried_job_equals_clean_run(
        self, pieces, three_chips, tmp_path, workers
    ):
        cfg, _, table = pieces
        population, clean = three_chips
        registry = MetricsRegistry()
        with use_registry(registry):
            campaign = run_campaign(
                [FlakyPolicy("chip-01", str(tmp_path / "armed"))],
                config=cfg, population=population, table=table,
                workers=workers, retries=1,
            )
        assert registry.counter("campaign.retries") == 1
        assert campaign.failures == []
        assert [_lifetime_bits(r) for r in campaign.results["flaky"]] == [
            _lifetime_bits(r) for r in clean
        ]

    def test_exhausted_job_degrades_to_empty_lifetime(
        self, pieces, three_chips, workers
    ):
        cfg, _, table = pieces
        population, clean = three_chips
        reported = []
        campaign = run_campaign(
            [AlwaysCrashPolicy("chip-00")],
            config=cfg, population=population, table=table,
            workers=workers, retries=1, allow_partial=True,
            progress=lambda policy, chip: reported.append(chip),
        )
        (failure,) = campaign.failures
        assert (failure.chip_id, failure.kind, failure.attempts) == (
            "chip-00", "error", 2,
        )
        assert failure.message == "RuntimeError: injected permanent fault"
        degraded, *completed = campaign.results["crashy"]
        assert degraded.chip_id == "chip-00" and degraded.epochs == []
        assert [_lifetime_bits(r) for r in completed] == [
            _lifetime_bits(r) for r in clean[1:]
        ]
        # Progress reports each job that completed with a result, once.
        assert sorted(reported) == ["chip-01", "chip-02"]

    def test_poisoned_batch_demotes_and_spares_innocents(
        self, pieces, three_chips, workers
    ):
        cfg, _, table = pieces
        population, clean = three_chips
        registry = MetricsRegistry()
        with use_registry(registry):
            campaign = run_campaign(
                [AlwaysCrashPolicy("chip-01")],
                config=cfg, population=population, table=table,
                workers=workers, retries=1, allow_partial=True,
                batch_size=3,
            )
        assert registry.counter("campaign.batch_demotions") == 1
        (failure,) = campaign.failures
        # A demoted singleton gets one final attempt, so the culprit
        # reports what a never-batched run would (retries + 1) and only
        # the batch's own retry is charged.
        assert (failure.chip_id, failure.attempts) == ("chip-01", 2)
        assert registry.counter("campaign.retries") == 1
        first, culprit, last = campaign.results["crashy"]
        assert culprit.epochs == []
        assert _lifetime_bits(first) == _lifetime_bits(clean[0])
        assert _lifetime_bits(last) == _lifetime_bits(clean[2])
