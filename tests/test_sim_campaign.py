"""Campaign orchestration and normalized comparisons."""

import numpy as np
import pytest

from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.sim import (
    CampaignResult,
    EpochRecord,
    LifetimeResult,
    SimulationConfig,
    run_campaign,
)
from repro.util.constants import AMBIENT_KELVIN
from repro.variation import generate_population


def synthetic_result(
    policy: str,
    chip_id: str = "chip-00",
    num_epochs: int = 2,
    avg_temp_k: float = 340.0,
    health_end: float = 0.9,
) -> LifetimeResult:
    """A hand-built lifetime: enough structure for the aggregations."""
    result = LifetimeResult(
        chip_id=chip_id,
        policy_name=policy,
        dark_fraction_min=0.5,
        fmax_init_ghz=np.array([2.0, 3.0]),
    )
    for index in range(num_epochs):
        health = 1.0 - (1.0 - health_end) * (index + 1) / max(num_epochs, 1)
        result.epochs.append(
            EpochRecord(
                epoch_index=index,
                start_years=0.5 * index,
                length_years=0.5,
                mix_description="synthetic",
                dcm_on=np.array([True, False]),
                worst_temps_k=np.array([avg_temp_k, avg_temp_k]),
                avg_temp_k=avg_temp_k,
                peak_temp_k=avg_temp_k + 5.0,
                dtm_migrations=1,
                dtm_throttles=0,
                duties=np.array([0.5, 0.0]),
                health_after=np.array([health, health]),
                qos_violations=0,
                total_ips=1e9,
            )
        )
    return result


@pytest.fixture(scope="module")
def campaign(aging_table):
    cfg = SimulationConfig(
        lifetime_years=1.0,
        epoch_years=0.5,
        dark_fraction_min=0.5,
        window_s=5.0,
        seed=9,
    )
    population = generate_population(2, seed=11)
    return run_campaign(
        [VAAManager(), HayatManager()],
        config=cfg,
        population=population,
        table=aging_table,
    )


class TestCampaign:
    def test_all_policies_ran_all_chips(self, campaign):
        assert campaign.policies() == ["vaa", "hayat"]
        assert len(campaign.results["vaa"]) == 2
        assert len(campaign.results["hayat"]) == 2

    def test_same_silicon_for_both_policies(self, campaign):
        for a, b in zip(campaign.results["vaa"], campaign.results["hayat"]):
            assert a.chip_id == b.chip_id
            np.testing.assert_array_equal(a.fmax_init_ghz, b.fmax_init_ghz)

    def test_normalized_metrics_finite(self, campaign):
        for fn in (
            campaign.normalized_temp_rise,
            campaign.normalized_chip_fmax_aging,
            campaign.normalized_avg_fmax_aging,
        ):
            values = fn("vaa", "hayat")
            assert np.isfinite(values).all()

    def test_baseline_normalizes_to_one(self, campaign):
        np.testing.assert_allclose(
            campaign.normalized_temp_rise("vaa", "vaa"), 1.0
        )

    def test_trajectory_shape(self, campaign):
        traj = campaign.mean_avg_fmax_trajectory("hayat")
        assert traj.shape == (2,)

    def test_no_failures_on_clean_campaign(self, campaign):
        assert campaign.failures == []

    def test_progress_callback(self, aging_table):
        seen = []
        cfg = SimulationConfig(
            lifetime_years=0.5, epoch_years=0.5, window_s=3.0, seed=1
        )
        run_campaign(
            [HayatManager()],
            num_chips=1,
            config=cfg,
            table=aging_table,
            progress=lambda policy, chip: seen.append((policy, chip)),
        )
        assert seen == [("hayat", "chip-00")]


class TestAggregationEdgeCases:
    """Pinned behavior of the normalization layer on degenerate inputs."""

    def _campaign(self, pairs) -> CampaignResult:
        campaign = CampaignResult(config=SimulationConfig())
        campaign.results["vaa"] = [base for base, _ in pairs]
        campaign.results["hayat"] = [other for _, other in pairs]
        return campaign

    def test_dtm_normalization_reads_baseline_total_once(self):
        """Regression: ``normalized_dtm_events`` called the baseline's
        ``total_dtm_events()`` twice per chip (guard + ratio); the total
        is a per-epoch sum, so large campaigns paid it double.  Pin the
        hoist by counting calls on the baseline result."""
        base = synthetic_result("vaa")
        other = synthetic_result("hayat")
        calls = []
        original = base.total_dtm_events
        base.total_dtm_events = lambda: calls.append(1) or original()
        campaign = self._campaign([(base, other)])
        values = campaign.normalized_dtm_events("vaa", "hayat")
        assert values.shape == (1,)
        assert len(calls) == 1

    def test_zero_baseline_temp_rise_skipped(self):
        """Regression: a baseline at/below ambient yielded inf/nan that
        poisoned the sweep-level means."""
        cold = synthetic_result("vaa", avg_temp_k=AMBIENT_KELVIN)  # rise 0
        warm_base = synthetic_result("vaa", avg_temp_k=340.0)
        warm_other = synthetic_result("hayat", avg_temp_k=330.0)
        campaign = self._campaign(
            [(cold, synthetic_result("hayat")), (warm_base, warm_other)]
        )
        values = campaign.normalized_temp_rise("vaa", "hayat")
        assert values.shape == (1,)
        assert np.isfinite(values).all()
        expected = (330.0 - AMBIENT_KELVIN) / (340.0 - AMBIENT_KELVIN)
        np.testing.assert_allclose(values[0], expected)

    def test_pairs_with_a_failed_side_are_skipped(self):
        """An empty (failed-job) lifetime on either side drops the chip
        from every normalized comparison instead of injecting nan."""
        complete = (
            synthetic_result("vaa", "chip-00"),
            synthetic_result("hayat", "chip-00"),
        )
        failed_policy = (
            synthetic_result("vaa", "chip-01"),
            synthetic_result("hayat", "chip-01", num_epochs=0),
        )
        failed_base = (
            synthetic_result("vaa", "chip-02", num_epochs=0),
            synthetic_result("hayat", "chip-02"),
        )
        campaign = self._campaign([complete, failed_policy, failed_base])
        for values in (
            campaign.normalized_dtm_events("vaa", "hayat"),
            campaign.normalized_temp_rise("vaa", "hayat"),
            campaign.normalized_chip_fmax_aging("vaa", "hayat"),
            campaign.normalized_avg_fmax_aging("vaa", "hayat"),
        ):
            assert values.shape == (1,)
            assert np.isfinite(values).all()

    def test_mean_trajectory_skips_empty_lifetimes(self):
        campaign = self._campaign(
            [
                (synthetic_result("vaa"), synthetic_result("hayat")),
                (
                    synthetic_result("vaa", "chip-01"),
                    synthetic_result("hayat", "chip-01", num_epochs=0),
                ),
            ]
        )
        trajectory = campaign.mean_avg_fmax_trajectory("hayat")
        assert trajectory.shape == (2,)
        np.testing.assert_array_equal(
            trajectory,
            campaign.results["hayat"][0].avg_fmax_trajectory_ghz(),
        )

    def test_mean_trajectory_all_failed_is_empty(self):
        campaign = self._campaign(
            [
                (
                    synthetic_result("vaa", num_epochs=0),
                    synthetic_result("hayat", num_epochs=0),
                )
            ]
        )
        assert campaign.mean_avg_fmax_trajectory("hayat").shape == (0,)

    def test_mean_trajectory_ragged_epochs_rejected(self):
        """Regression: np.mean over inhomogeneous per-chip trajectories
        must fail loudly, not broadcast garbage."""
        campaign = self._campaign(
            [
                (synthetic_result("vaa"), synthetic_result("hayat", num_epochs=2)),
                (
                    synthetic_result("vaa", "chip-01"),
                    synthetic_result("hayat", "chip-01", num_epochs=3),
                ),
            ]
        )
        with pytest.raises(ValueError, match="inhomogeneous epoch counts"):
            campaign.mean_avg_fmax_trajectory("hayat")
