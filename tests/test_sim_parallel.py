"""Parallel campaign execution: bit-identical to serial."""

import numpy as np
import pytest

from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.dtm import DTMPolicy
from repro.obs import MetricsRegistry, use_registry
from repro.sim import SimulationConfig, run_campaign
from repro.variation import generate_population


@pytest.fixture(scope="module")
def pieces(aging_table):
    cfg = SimulationConfig(
        lifetime_years=0.5, epoch_years=0.5, dark_fraction_min=0.5,
        window_s=5.0, seed=31,
    )
    population = generate_population(2, seed=19)
    return cfg, population, aging_table


class TestParallelCampaign:
    def test_matches_serial_exactly(self, pieces):
        cfg, population, table = pieces
        serial = run_campaign(
            [VAAManager(), HayatManager()],
            config=cfg, population=population, table=table, workers=1,
        )
        parallel = run_campaign(
            [VAAManager(), HayatManager()],
            config=cfg, population=population, table=table, workers=2,
        )
        for name in ("vaa", "hayat"):
            for a, b in zip(serial.results[name], parallel.results[name]):
                assert a.chip_id == b.chip_id
                assert a.total_dtm_events() == b.total_dtm_events()
                np.testing.assert_array_equal(
                    a.health_trajectory(), b.health_trajectory()
                )

    def test_rejects_bad_worker_count(self, pieces):
        cfg, population, table = pieces
        with pytest.raises(ValueError):
            run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=table, workers=0,
            )

    def test_progress_reported_from_pool(self, pieces):
        """Every pooled job reports on completion.  Completions arrive
        in completion order (concurrent jobs may finish either way
        round), so the assertion is order-insensitive; the ordering
        contract itself is pinned in
        ``test_sim_supervisor.py::test_progress_reports_in_completion_order``.
        """
        cfg, population, table = pieces
        calls = []
        run_campaign(
            [HayatManager()],
            config=cfg, population=population, table=table, workers=2,
            progress=lambda policy, chip: calls.append((policy, chip)),
        )
        assert sorted(calls) == [("hayat", "chip-00"), ("hayat", "chip-01")]

    def test_unpicklable_knob_raises_clear_error(self, pieces):
        cfg, population, table = pieces
        with pytest.raises(ValueError, match="mix_factory must be picklable"):
            run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=table, workers=2,
                mix_factory=lambda epoch, n, rng: None,
            )

    def test_custom_dtm_plumbed_through_workers(self, pieces):
        cfg, population, table = pieces
        dtm = DTMPolicy(tsafe_k=cfg.tsafe_k - 15.0)  # much stricter
        serial = run_campaign(
            [VAAManager()],
            config=cfg, population=population, table=table, workers=1,
            dtm=dtm,
        )
        parallel = run_campaign(
            [VAAManager()],
            config=cfg, population=population, table=table, workers=2,
            dtm=dtm,
        )
        for a, b in zip(serial.results["vaa"], parallel.results["vaa"]):
            assert a.total_dtm_events() == b.total_dtm_events()
            np.testing.assert_array_equal(
                a.health_trajectory(), b.health_trajectory()
            )


class TestParallelMetricsAggregation:
    def _counters(self, pieces, workers):
        cfg, population, table = pieces
        registry = MetricsRegistry(trace=True)
        # The caller holds a span open: worker snapshots must merge
        # under it, onto the paths serial jobs record in place.
        with use_registry(registry), registry.timer("study"):
            run_campaign(
                [VAAManager(), HayatManager()],
                config=cfg, population=population, table=table,
                workers=workers,
            )
        return registry.snapshot()

    def test_parallel_metrics_identical_to_serial(self, pieces):
        serial = self._counters(pieces, workers=1)
        parallel = self._counters(pieces, workers=2)
        assert serial.counters == parallel.counters
        assert {n: s.count for n, s in serial.timers.items()} == {
            n: s.count for n, s in parallel.timers.items()
        }
        assert "study/campaign.run/sim.epoch/sim.decision" in serial.timers
        # Span events (campaign.run, sim.epoch, ...) ship home too.
        def span_names(snapshot):
            names = [
                (e["name"], e["depth"])
                for e in snapshot.events
                if e["kind"] == "span"
            ]
            return sorted(names)

        assert span_names(serial) == span_names(parallel)
