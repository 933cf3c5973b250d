"""The process-level thermal compute cache (PR 2 tentpole).

Three contracts are pinned here:

1. **O(1) factorizations** — a multi-epoch, multi-chip, multi-policy
   campaign performs a constant number of system/step factorizations
   (zero inside the jobs: ``run_campaign`` pre-warms), while the hit
   counter scales with the work.  This is the obs-counter regression
   guard against re-introducing per-job thermal builds.
2. **Bit-identity** — cached, uncached (built right after
   :func:`clear_thermal_cache`), serial, and parallel runs all produce
   byte-for-byte equal results; a hit returns the very arrays a miss
   computed.
3. **Lifecycle** — distinct keys, clears and ``dt`` sub-keys behave as
   documented (read off the ``thermal.*`` counters), and
   the batched steady/coupled solvers agree with their scalar
   references exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.obs import MetricsRegistry, use_registry
from repro.power import PowerModel
from repro.sim import SimulationConfig, run_campaign
from repro.thermal import (
    ThermalRCNetwork,
    TransientIntegrator,
    clear_thermal_cache,
    solve_coupled_steady_state,
    solve_coupled_steady_state_batch,
    warm_thermal_cache,
)
from repro.thermal.cache import floorplan_signature
from repro.variation import generate_population


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts from an empty cache and leaves it so."""
    clear_thermal_cache()
    yield
    clear_thermal_cache()


def _campaign_config():
    return SimulationConfig(
        lifetime_years=1.0, epoch_years=0.5, dark_fraction_min=0.5,
        window_s=5.0, seed=3,
    )


class TestFactorizationsStayConstant:
    def test_multi_epoch_campaign_is_o1(self, aging_table):
        """2 chips x 2 policies x 2 epochs: zero factorizations inside
        the jobs, hit count scaling with the epoch count."""
        population = generate_population(2, seed=9)
        registry = MetricsRegistry()
        with use_registry(registry):
            run_campaign(
                [VAAManager(), HayatManager()],
                config=_campaign_config(),
                population=population,
                table=aging_table,
            )
        snapshot = registry.snapshot()
        assert snapshot.counter("thermal.factorizations") == 0
        # Every ChipContext build and every epoch's integrator hits.
        assert snapshot.counter("thermal.cache_hits") >= 8
        # Twice the epochs, same (zero) factorization count, more hits.
        config_long = SimulationConfig(
            lifetime_years=2.0, epoch_years=0.5, dark_fraction_min=0.5,
            window_s=5.0, seed=3,
        )
        registry_long = MetricsRegistry()
        with use_registry(registry_long):
            run_campaign(
                [VAAManager(), HayatManager()],
                config=config_long,
                population=population,
                table=aging_table,
            )
        long_snapshot = registry_long.snapshot()
        assert long_snapshot.counter("thermal.factorizations") == 0
        assert long_snapshot.counter("thermal.cache_hits") > snapshot.counter(
            "thermal.cache_hits"
        )

    def test_uncached_builds_factorize_every_time(self, floorplan):
        registry = MetricsRegistry()
        with use_registry(registry):
            ThermalRCNetwork(floorplan)
            clear_thermal_cache()
            ThermalRCNetwork(floorplan)
        assert registry.snapshot().counter("thermal.factorizations") == 2
        assert registry.snapshot().counter("thermal.cache_hits") == 0

    def test_warming_is_silent(self, floorplan):
        registry = MetricsRegistry()
        with use_registry(registry):
            warm_thermal_cache(floorplan, dt_s=0.5)
        snapshot = registry.snapshot()
        assert snapshot.counter("thermal.factorizations") == 0
        assert snapshot.counter("thermal.cache_hits") == 0
        # ...but the cache is genuinely warm: the next consumer hits.
        with use_registry(registry):
            ThermalRCNetwork(floorplan)
        assert registry.snapshot().counter("thermal.cache_hits") == 1


class TestBitIdentity:
    def test_cached_and_uncached_runs_match(self, floorplan, chip):
        pm = PowerModel.for_chip(chip)
        on = np.ones(64, dtype=bool)
        freq = np.full(64, 3.0)
        act = np.full(64, 0.6)

        def run_once():
            net = ThermalRCNetwork(floorplan)
            integ = TransientIntegrator(net, dt_s=0.5)
            temps, _ = solve_coupled_steady_state(net, pm, freq, act, on)
            power = pm.evaluate(freq, act, temps, on).total_w
            stepped = integ.step(net.initial_temperatures(), power)
            return temps, stepped, net.influence_matrix(), net.zero_power_baseline()

        cached = run_once()
        second = run_once()  # all hits
        clear_thermal_cache()
        uncached = run_once()
        for a, b, c in zip(cached, second, uncached):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_hits_share_the_same_arrays(self, floorplan):
        net_a = ThermalRCNetwork(floorplan)
        net_b = ThermalRCNetwork(floorplan)
        assert net_a.influence_matrix() is net_b.influence_matrix()
        assert not net_a.influence_matrix().flags.writeable

    def test_serial_and_parallel_campaigns_identical(self, aging_table):
        population = generate_population(2, seed=9)
        policies = [VAAManager(), HayatManager()]
        config = _campaign_config()
        serial_reg = MetricsRegistry()
        with use_registry(serial_reg):
            serial = run_campaign(
                policies, config=config, population=population,
                table=aging_table, workers=1,
            )
        parallel_reg = MetricsRegistry()
        with use_registry(parallel_reg):
            parallel = run_campaign(
                policies, config=config, population=population,
                table=aging_table, workers=2,
            )
        for name in serial.results:
            for left, right in zip(serial.results[name], parallel.results[name]):
                assert left.total_dtm_events() == right.total_dtm_events()
                for le, re in zip(left.epochs, right.epochs):
                    assert np.array_equal(le.health_after, re.health_after)
                    assert np.array_equal(le.worst_temps_k, re.worst_temps_k)
        assert (
            serial_reg.snapshot().counters == parallel_reg.snapshot().counters
        )


def _count_builds(build) -> tuple[int, int]:
    """``(thermal.factorizations, thermal.cache_hits)`` over ``build()``."""
    registry = MetricsRegistry()
    with use_registry(registry):
        build()
    snapshot = registry.snapshot()
    return (
        snapshot.counter("thermal.factorizations"),
        snapshot.counter("thermal.cache_hits"),
    )


class TestLifecycle:
    def test_distinct_keys_get_distinct_entries(self, floorplan, small_floorplan):
        def build_both():
            ThermalRCNetwork(floorplan)
            ThermalRCNetwork(small_floorplan)

        # Two geometries: two system factorizations, no hit...
        assert _count_builds(build_both) == (2, 0)
        # ...and both entries are kept: rebuilding either one hits.
        assert _count_builds(build_both) == (0, 2)
        assert floorplan_signature(floorplan) != floorplan_signature(
            small_floorplan
        )

    def test_clear_empties_entries(self, floorplan):
        assert _count_builds(lambda: ThermalRCNetwork(floorplan)) == (1, 0)
        assert _count_builds(lambda: ThermalRCNetwork(floorplan)) == (0, 1)
        clear_thermal_cache()
        assert _count_builds(lambda: ThermalRCNetwork(floorplan)) == (1, 0)

    def test_step_factors_keyed_by_dt(self, floorplan):
        net = ThermalRCNetwork(floorplan)

        def integrators():
            TransientIntegrator(net, dt_s=0.5)
            TransientIntegrator(net, dt_s=1.0)
            TransientIntegrator(net, dt_s=0.5)  # hit

        # Two step factorizations (one per dt); the repeat hits.
        assert _count_builds(integrators) == (2, 1)


class TestBatchedSolvers:
    def test_steady_state_batch_matches_rows(self, network):
        rng = np.random.default_rng(5)
        powers = rng.uniform(0.0, 4.0, (6, network.num_cores))
        batch = network.steady_state_batch(powers)
        for row, power in zip(batch, powers):
            assert np.array_equal(row, network.steady_state(power))

    def test_coupled_batch_matches_scalar(self, network, chip):
        pm = PowerModel.for_chip(chip)
        rng = np.random.default_rng(6)
        on = rng.random((4, 64)) < 0.6
        freq = np.full((4, 64), 3.0) * on
        act = rng.uniform(0.2, 0.9, (4, 64)) * on
        temps_batch, breakdown = solve_coupled_steady_state_batch(
            network, pm, freq, act, on
        )
        assert temps_batch.shape == (4, 64)
        for i in range(4):
            temps, _ = solve_coupled_steady_state(
                network, pm, freq[i], act[i], on[i]
            )
            np.testing.assert_allclose(temps_batch[i], temps, atol=1e-9)
        assert breakdown.total_w.shape == (4, 64)
