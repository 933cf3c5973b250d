"""The aging-table walk engine (`repro.aging.walk`).

The engine's contract is strict: both of its paths — the idle closed
form and the table walk of the stressed remainder — must return arrays
*bit-identical* to :meth:`repro.aging.tables.AgingTable.next_health`,
and the engine holds no state, so a call's output and counters depend
on its inputs alone.  These tests pin that equality across random
monotone and non-monotone tables, batches with forced duplicates,
idle-heavy batches, dark cores, clamped ages and mixed shapes.
"""

import pickle

import numpy as np
import pytest

from repro.aging.health import HealthState, advance_batch
from repro.aging.tables import AgingTable
from repro.aging.walk import WalkEngine
from repro.obs import MetricsRegistry, use_registry


def _random_batch(rng, n, table, dark_frac=0.25, pristine_frac=0.3):
    """A campaign-shaped batch: dark cores, pristine health, edge temps."""
    t = rng.uniform(280.0, 445.0, n)  # straddles the table's temp range
    d = rng.uniform(0.0, 1.0, n)
    d[rng.random(n) < dark_frac] = 0.0  # dark cores: duty exactly 0
    d[rng.random(n) < 0.05] = 1.0
    h = rng.uniform(0.6, 1.0, n)
    h[rng.random(n) < pristine_frac] = 1.0  # pristine: exactly 1.0
    h[rng.random(n) < 0.05] = 0.02  # deep degradation: age-axis clamp
    # Exactly-stored values land inverse ages on grid points.
    stored = table._values_flat
    pick = rng.random(n) < 0.15
    h[pick] = stored[rng.integers(0, stored.size, int(pick.sum()))]
    return t, d, np.clip(h, 1e-3, 1.0)


def _random_monotone_table(rng) -> AgingTable:
    """A random strictly-valid table, non-increasing along the age axis."""
    nt, ndty, ny = 5, 6, 12
    temp = 280.0 + np.cumsum(rng.uniform(5.0, 30.0, nt))
    duty = np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.2, ndty - 1))])
    duty = duty / duty[-1]
    age = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 5.0, ny - 1))])
    factors = rng.uniform(0.9, 1.0, (nt, ndty, ny))
    factors[rng.random((nt, ndty, ny)) < 0.3] = 1.0  # exact flat runs
    factors[..., 0] = 1.0
    values = rng.uniform(0.95, 1.0, (nt, ndty, 1)) * np.cumprod(factors, axis=-1)
    values = np.maximum(values, 1e-3)
    table = AgingTable(temp, duty, age, values)
    assert table._age_monotone
    return table


def _random_nonmonotone_table(rng) -> AgingTable:
    values = rng.uniform(0.5, 1.0, (4, 5, 8))
    table = AgingTable(
        np.array([290.0, 330.0, 370.0, 410.0]),
        np.array([0.0, 0.2, 0.5, 0.8, 1.0]),
        np.array([0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]),
        values,
    )
    assert not table._age_monotone
    return table


class TestDedupBitIdentity:
    def test_forced_duplicates_scatter(self, aging_table):
        rng = np.random.default_rng(0)
        engine = WalkEngine(aging_table)
        # No dark cores: every element walks.
        base_t, base_d, base_h = _random_batch(
            rng, 60, aging_table, dark_frac=0.0
        )
        reps = rng.integers(0, 60, 480)  # heavy duplication, shuffled
        t, d, h = base_t[reps], base_d[reps], base_h[reps]
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        ref = aging_table.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(got, ref)
        assert registry.counter("aging.walk_idle") == 0

    def test_all_distinct_batch(self, aging_table):
        rng = np.random.default_rng(1)
        engine = WalkEngine(aging_table)
        t, d, h = _random_batch(rng, 300, aging_table, dark_frac=0.0,
                                pristine_frac=0.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        assert registry.counter("aging.walk_idle") == 0

    def test_fuzz_random_monotone_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            table = _random_monotone_table(rng)
            engine = WalkEngine(table)
            for _ in range(5):
                n = int(rng.integers(1, 300))
                t = rng.uniform(temp_lo := table.temp_grid_k[0] - 10,
                                table.temp_grid_k[-1] + 10, n)
                d = rng.uniform(0, 1, n)
                d[rng.random(n) < 0.3] = 0.0
                h = rng.uniform(0.4, 1.0, n)
                h[rng.random(n) < 0.3] = 1.0
                if rng.random() < 0.5:  # force duplicates
                    reps = rng.integers(0, n, n)
                    t, d, h = t[reps], d[reps], h[reps]
                epoch = float(rng.choice([0.0, 0.25, 1.0, 7.5]))
                np.testing.assert_array_equal(
                    engine.next_health(t, d, h, epoch),
                    table.next_health(t, d, h, epoch),
                )

    def test_fuzz_non_monotone_fallback(self):
        rng = np.random.default_rng(3)
        table = _random_nonmonotone_table(rng)
        engine = WalkEngine(table)
        for _ in range(10):
            n = int(rng.integers(1, 150))
            t = rng.uniform(280, 420, n)
            d = rng.uniform(0, 1, n)
            h = rng.uniform(0.5, 1.0, n)
            if rng.random() < 0.5:
                reps = rng.integers(0, n, n)
                t, d, h = t[reps], d[reps], h[reps]
            np.testing.assert_array_equal(
                engine.next_health(t, d, h, 0.5),
                table.next_health(t, d, h, 0.5),
            )

    def test_dark_cores_and_clamps(self, aging_table):
        engine = WalkEngine(aging_table)
        t = np.array([250.0, 300.0, 500.0, 358.0, 358.0, 430.0])
        d = np.array([0.0, 0.0, 0.0, 1.0, 0.5, 1.0])
        h = np.array([1.0, 0.9, 1.0, 0.02, 1.0, 0.02])
        for epoch in (0.0, 0.5, 200.0):
            np.testing.assert_array_equal(
                engine.next_health(t, d, h, epoch),
                aging_table.next_health(t, d, h, epoch),
            )

    def test_single_element_and_scalar(self, aging_table):
        engine = WalkEngine(aging_table)
        np.testing.assert_array_equal(
            engine.next_health(358.0, 0.5, 0.93, 0.5),
            aging_table.next_health(358.0, 0.5, 0.93, 0.5),
        )
        np.testing.assert_array_equal(
            engine.next_health([358.0], [0.5], [0.93], 0.5),
            aging_table.next_health([358.0], [0.5], [0.93], 0.5),
        )

    def test_broadcast_scalar_health(self, aging_table):
        rng = np.random.default_rng(4)
        engine = WalkEngine(aging_table)
        t, d, _ = _random_batch(rng, 40, aging_table)
        np.testing.assert_array_equal(
            engine.next_health(t, d, 0.95, 0.5),
            aging_table.next_health(t, d, 0.95, 0.5),
        )

    def test_negative_epoch_rejected(self, aging_table):
        with pytest.raises(ValueError):
            WalkEngine(aging_table).next_health([358.0], [0.5], [0.9], -0.1)

    def test_overlapping_batches_stay_exact(self, aging_table):
        rng = np.random.default_rng(6)
        engine = WalkEngine(aging_table)
        pool_t, pool_d, pool_h = _random_batch(rng, 500, aging_table)
        for _ in range(12):
            idx = rng.integers(0, 500, 250)  # overlapping re-draws
            t, d, h = pool_t[idx], pool_d[idx], pool_h[idx]
            epoch = float(rng.choice([0.25, 0.5]))
            np.testing.assert_array_equal(
                engine.next_health(t, d, h, epoch),
                aging_table.next_health(t, d, h, epoch),
            )

    def test_repeat_call_same_bits_and_counters(self, aging_table):
        """A, then B, then A again: the engine keeps nothing between
        calls, so both A calls agree in output bits and counter deltas."""
        rng = np.random.default_rng(29)
        engine = WalkEngine(aging_table)
        batch_a = _random_batch(rng, 400, aging_table)
        batch_b = _random_batch(rng, 400, aging_table)
        runs = []
        for batch in (batch_a, batch_b, batch_a):
            registry = MetricsRegistry()
            with use_registry(registry):
                out = engine.next_health(*batch, 0.5)
            runs.append((out, registry.snapshot().counters))
        (first, first_counters), _, (again, again_counters) = runs
        np.testing.assert_array_equal(first.view(np.uint64), again.view(np.uint64))
        assert first_counters == again_counters
        np.testing.assert_array_equal(
            first, aging_table.next_health(*batch_a, 0.5)
        )

    def test_pickled_table_walks_the_same(self, aging_table):
        clone = pickle.loads(pickle.dumps(aging_table))
        rng = np.random.default_rng(14)
        t, d, h = _random_batch(rng, 30, aging_table)
        np.testing.assert_array_equal(
            WalkEngine(clone).next_health(t, d, h, 0.5),
            aging_table.next_health(t, d, h, 0.5),
        )


class TestEstimationWiring:
    def test_estimate_next_health_shapes(self, aging_table, chip, floorplan):
        from repro.core.estimation import OnlineHealthEstimator
        from repro.power import PowerModel
        from repro.thermal import ThermalPredictor, ThermalRCNetwork

        rng = np.random.default_rng(10)
        predictor = ThermalPredictor.learn(
            ThermalRCNetwork(floorplan), PowerModel.for_chip(chip)
        )
        estimator = OnlineHealthEstimator(predictor, aging_table)
        n = predictor.num_cores
        temps = rng.uniform(300, 400, n)
        duties = rng.uniform(0, 1, n)
        health = rng.uniform(0.8, 1.0, n)
        flat = estimator.estimate_next_health(temps, duties, health, 0.5)
        ref = aging_table.next_health(temps, duties, health, 0.5)
        np.testing.assert_array_equal(flat, ref)
        temps2 = rng.uniform(300, 400, (7, n))
        duties2 = np.tile(duties, (7, 1))
        batched = estimator.estimate_next_health(temps2, duties2, health, 0.5)
        ref2 = aging_table.next_health(
            temps2.reshape(-1), duties2.reshape(-1), np.tile(health, 7), 0.5
        ).reshape(7, n)
        np.testing.assert_array_equal(batched, ref2)
        rows = estimator.estimate_next_health_rows(
            temps2, duties2, np.tile(health, (7, 1)), 0.5
        )
        np.testing.assert_array_equal(rows, batched)

    def test_advance_batch_routes_through_engine(self, aging_table):
        rng = np.random.default_rng(11)
        states = [
            HealthState(aging_table, rng.uniform(2.0, 3.0, 8))
            for _ in range(5)
        ]
        temps = rng.uniform(300, 420, (5, 8))
        duties = rng.uniform(0, 1, (5, 8))
        duties[:, :3] = 0.0  # dark cores take the closed form
        registry = MetricsRegistry()
        with use_registry(registry):
            advance_batch(states, temps, duties, 0.5)
        snapshot = registry.snapshot()
        assert "aging.walk" in snapshot.timers
        assert snapshot.counters["aging.walk_idle"] == 15

    def test_health_state_estimate_vs_hatch(self, aging_table):
        rng = np.random.default_rng(12)
        state = HealthState(aging_table, rng.uniform(2.0, 3.0, 16))
        state.advance(rng.uniform(320, 400, 16), rng.uniform(0, 1, 16), 0.5)
        temps = rng.uniform(320, 400, 16)
        duties = rng.uniform(0, 1, 16)
        engine_next = state.estimate_next(temps, duties, 0.5)
        direct_next = aging_table.next_health(temps, duties, state.health, 0.5)
        np.testing.assert_array_equal(engine_next, direct_next)


def _idle_exact_table(rng) -> AgingTable:
    """A random monotone table whose duty-0 slice is exactly 1.0."""
    base = _random_monotone_table(rng)
    values = base.values.copy()
    values[:, 0, :] = 1.0
    table = AgingTable(
        base.temp_grid_k, base.duty_grid, base.age_grid_years, values
    )
    assert table._idle_exact
    return table


def _idle_heavy_batch(rng, n, table):
    """Mostly idle elements, pristine and degraded, at awkward temps.

    Temperatures land on grid points, below and above the grid, and a
    few are NaN (those must walk); some duties are negative (clipped to
    the duty grid, so idle too).
    """
    grid = table.temp_grid_k
    t = rng.uniform(grid[0] - 20.0, grid[-1] + 20.0, n)
    on_grid = rng.random(n) < 0.2
    t[on_grid] = rng.choice(grid, int(on_grid.sum()))
    t[rng.random(n) < 0.03] = np.nan
    d = rng.uniform(0.0, 1.0, n)
    d[rng.random(n) < 0.8] = 0.0
    d[rng.random(n) < 0.05] = -0.25
    h = rng.uniform(0.5, 1.0, n)
    h[rng.random(n) < 0.45] = 1.0
    return t, d, h


def _idle_mask(table, t, d, h):
    return (d <= table.duty_grid[0]) & (h <= 1.0) & np.isfinite(t)


class TestIdleClosedForm:
    """Idle elements skip the walk; results stay bit-identical."""

    def test_fuzz_idle_heavy_batches(self, aging_table):
        """Batch size 1 (``_sum_corners``' explicit-loop branch in the
        table walk) through large batches, epochs from 0 to past the
        age grid, on the default and random idle-exact tables."""
        rng = np.random.default_rng(20)
        tables = [aging_table] + [_idle_exact_table(rng) for _ in range(4)]
        for table in tables:
            engine = WalkEngine(table)
            beyond = 2.0 * table.max_age_years  # past the age grid
            for _ in range(40):
                n = int(rng.choice([1, 2, 7, 200, 2000]))
                t, d, h = _idle_heavy_batch(rng, n, table)
                epoch = float(rng.choice([0.0, 0.25, 0.5, 3.0, beyond]))
                registry = MetricsRegistry()
                with use_registry(registry):
                    got = engine.next_health(t, d, h, epoch)
                np.testing.assert_array_equal(
                    got, table.next_health(t, d, h, epoch)
                )
                idle = int(_idle_mask(table, t, d, h).sum())
                assert registry.counter("aging.walk_idle") == idle

    def test_closed_form_values_and_counter(self, aging_table):
        engine = WalkEngine(aging_table)
        t = np.array([250.0, 300.0, 358.0, 430.0, 500.0, 345.5])
        d = np.zeros(6)
        degraded = np.array([0.9, 0.5, 0.97, 0.8, 0.7, 0.999])
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, degraded, 0.5)
            fresh = engine.next_health(t, d, np.ones(6), 0.0)
        # No stress: a degraded idle core keeps its health, a pristine
        # one stays pristine over an empty epoch.
        np.testing.assert_array_equal(got, degraded)
        np.testing.assert_array_equal(fresh, np.ones(6))
        assert registry.snapshot().counters == {"aging.walk_idle": 12}

    def test_mixed_batch_splits_counters(self, aging_table):
        rng = np.random.default_rng(21)
        engine = WalkEngine(aging_table)
        t, d, h = _random_batch(rng, 400, aging_table, dark_frac=0.5)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        idle = int(_idle_mask(aging_table, t, d, h).sum())
        assert 0 < idle < t.size
        assert registry.snapshot().counters == {"aging.walk_idle": idle}

    def test_property_off_walks_everything(self):
        rng = np.random.default_rng(23)
        tables = [_random_monotone_table(rng)]  # duty-0 curves below 1.0
        values = _idle_exact_table(rng).values.copy()
        values[2, 0, -1] = 0.999  # one stored point off 1.0
        tables.append(AgingTable(
            tables[0].temp_grid_k, tables[0].duty_grid,
            tables[0].age_grid_years, values,
        ))
        for table in tables:
            assert table._age_monotone and not table._idle_exact
            engine = WalkEngine(table)
            t, d, h = _idle_heavy_batch(rng, 500, table)
            registry = MetricsRegistry()
            with use_registry(registry):
                got = engine.next_health(t, d, h, 0.5)
            np.testing.assert_array_equal(got, table.next_health(t, d, h, 0.5))
            assert registry.counter("aging.walk_idle") == 0

    def test_nonmonotone_table_walks_everything(self):
        rng = np.random.default_rng(24)
        values = _random_nonmonotone_table(rng).values.copy()
        values[:, 0, :] = 1.0  # idle slice exact, but the table is not
        table = AgingTable(
            np.array([290.0, 330.0, 370.0, 410.0]),
            np.array([0.0, 0.2, 0.5, 0.8, 1.0]),
            np.array([0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]),
            values,
        )
        assert not table._age_monotone and not table._idle_exact
        engine = WalkEngine(table)
        t, d, h = _idle_heavy_batch(rng, 200, table)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(got, table.next_health(t, d, h, 0.5))
        assert registry.counter("aging.walk_idle") == 0

    def test_nan_epoch_walks_everything(self, aging_table):
        engine = WalkEngine(aging_table)
        t, d, h = np.array([300.0, 300.0]), np.zeros(2), np.array([1.0, 0.9])
        np.testing.assert_array_equal(
            engine.next_health(t, d, h, float("nan")),
            aging_table.next_health(t, d, h, float("nan")),
        )
