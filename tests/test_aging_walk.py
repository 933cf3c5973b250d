"""The deduplicating, delta-aware walk engine (`repro.aging.walk`).

The engine's contract is strict: in the default (exact) mode, every
path through it — the idle closed form, intra-batch dedup scatter,
cross-call memo hits, shared count bounds, the fused age-shift lookup,
and every adaptive cost heuristic in between — must return arrays
*bit-identical* to :meth:`repro.aging.tables.AgingTable.next_health`.
These tests pin that equality across random monotone and non-monotone
tables, forced duplicate batches, idle-heavy batches, dark cores,
clamped ages and mixed shapes, plus the
approximate mode's documented error bound and the config/CLI escape
hatches.
"""

import pickle

import numpy as np
import pytest

from repro.aging.estimator import CoreAgingEstimator
from repro.aging.health import HealthState, advance_batch
from repro.aging.tables import AgingTable, build_aging_table
from repro.aging.walk import (
    _PROBE_FLOOR,
    _PROBE_HOLDOFF,
    WalkEngine,
    WalkOptions,
    get_walk_engine,
    walk_next_health,
    walk_options,
)
from repro.obs import MetricsRegistry, use_registry
from repro.sim.config import SimulationConfig


def _fresh_engine(table) -> WalkEngine:
    """A cold engine (no memo warmth from other tests on the shared table)."""
    return WalkEngine(table)


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
        engine = _fresh_engine(aging_table)
        # No dark cores: idle elements never reach the dedup layer.
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
        counters = registry.snapshot().counters
        unique = counters["aging.walk_unique"]
        assert counters["aging.walk_dedup_hits"] == 480 - unique
        assert counters["aging.walk_dedup_hits"] > 0
        assert unique <= 60  # at most the distinct triples

    def test_all_distinct_batch(self, aging_table):
        rng = np.random.default_rng(1)
        engine = _fresh_engine(aging_table)
        t, d, h = _random_batch(rng, 300, aging_table, dark_frac=0.0,
                                pristine_frac=0.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        counters = registry.snapshot().counters
        # Temperatures are all bit-distinct, so nothing deduplicates.
        assert counters["aging.walk_unique"] == 300
        assert counters.get("aging.walk_dedup_hits", 0) == 0

    def test_fuzz_random_monotone_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            table = _random_monotone_table(rng)
            engine = _fresh_engine(table)
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
        engine = _fresh_engine(table)
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
        engine = _fresh_engine(aging_table)
        t = np.array([250.0, 300.0, 500.0, 358.0, 358.0, 430.0])
        d = np.array([0.0, 0.0, 0.0, 1.0, 0.5, 1.0])
        h = np.array([1.0, 0.9, 1.0, 0.02, 1.0, 0.02])
        for epoch in (0.0, 0.5, 200.0):
            np.testing.assert_array_equal(
                engine.next_health(t, d, h, epoch),
                aging_table.next_health(t, d, h, epoch),
            )

    def test_single_element_and_scalar(self, aging_table):
        engine = _fresh_engine(aging_table)
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
        engine = _fresh_engine(aging_table)
        t, d, _ = _random_batch(rng, 40, aging_table)
        np.testing.assert_array_equal(
            engine.next_health(t, d, 0.95, 0.5),
            aging_table.next_health(t, d, 0.95, 0.5),
        )

    def test_negative_epoch_rejected(self, aging_table):
        with pytest.raises(ValueError):
            _fresh_engine(aging_table).next_health([358.0], [0.5], [0.9], -0.1)


class TestDeltaMemo:
    def test_cross_call_memo_hits(self, aging_table):
        rng = np.random.default_rng(5)
        engine = _fresh_engine(aging_table)
        t, d, h = _random_batch(rng, 200, aging_table)
        registry = MetricsRegistry()
        with use_registry(registry):
            first = engine.next_health(t, d, h, 0.5)
            second = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(
            second, aging_table.next_health(t, d, h, 0.5)
        )
        counters = registry.snapshot().counters
        assert counters["aging.walk_delta_hits"] > 0

    def test_overlapping_batches_stay_exact(self, aging_table):
        rng = np.random.default_rng(6)
        engine = _fresh_engine(aging_table)
        pool_t, pool_d, pool_h = _random_batch(rng, 500, aging_table)
        for _ in range(12):
            idx = rng.integers(0, 500, 250)  # overlapping re-draws
            t, d, h = pool_t[idx], pool_d[idx], pool_h[idx]
            epoch = float(rng.choice([0.25, 0.5]))  # per-epoch memos
            np.testing.assert_array_equal(
                engine.next_health(t, d, h, epoch),
                aging_table.next_health(t, d, h, epoch),
            )

    def test_memo_deactivates_without_reuse(self, aging_table):
        rng = np.random.default_rng(7)
        engine = _fresh_engine(aging_table)
        # Every batch fully distinct: after warmup the EMA stays at 0,
        # the memo clears, and the engine stops paying for probes.
        for i in range(16):
            t = rng.uniform(290, 430, 100)
            d = rng.uniform(0.01, 1.0, 100)
            h = rng.uniform(0.7, 1.0, 100)
            engine.next_health(t, d, h, 0.5)
        assert engine._reuse_ema < 0.02
        assert not engine._memos

    def test_memo_blocks_consolidate_and_cap(self, aging_table):
        from repro.aging.walk import _DeltaMemo

        rng = np.random.default_rng(8)
        memo = _DeltaMemo()
        for _ in range(_DeltaMemo.MAX_BLOCKS + 3):
            t = rng.uniform(290, 430, 50)
            d = rng.uniform(0, 1, 50)
            h = rng.uniform(0.5, 1.0, 50)
            memo.insert(
                t.view(np.uint64), d.view(np.uint64), h.view(np.uint64),
                rng.random(50),
            )
        assert len(memo.blocks) <= _DeltaMemo.MAX_BLOCKS

    def test_memo_never_wrong_on_lookup(self, aging_table):
        from repro.aging.walk import _DeltaMemo

        rng = np.random.default_rng(9)
        memo = _DeltaMemo()
        t = rng.uniform(290, 430, 100)
        d = rng.uniform(0, 1, 100)
        h = rng.uniform(0.5, 1.0, 100)
        res = rng.random(100)
        memo.insert(
            t.view(np.uint64), d.view(np.uint64), h.view(np.uint64), res
        )
        out = np.empty(100)
        found = memo.lookup(
            t.view(np.uint64), d.view(np.uint64), h.view(np.uint64), out
        )
        assert found.all()
        np.testing.assert_array_equal(out, res)
        # Unseen triples must miss, never mis-answer.
        t2 = t + 1e-9
        found2 = memo.lookup(
            t2.view(np.uint64), d.view(np.uint64), h.view(np.uint64),
            np.empty(100),
        )
        assert not found2.any()


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
        with walk_options(dedup=False):
            ref = estimator.estimate_next_health(temps, duties, health, 0.5)
        np.testing.assert_array_equal(flat, ref)
        temps2 = rng.uniform(300, 400, (7, n))
        duties2 = np.tile(duties, (7, 1))
        batched = estimator.estimate_next_health(temps2, duties2, health, 0.5)
        with walk_options(dedup=False):
            ref2 = estimator.estimate_next_health(temps2, duties2, health, 0.5)
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
        registry = MetricsRegistry()
        with use_registry(registry):
            advance_batch(states, temps, duties, 0.5)
        snapshot = registry.snapshot()
        assert "aging.walk" in snapshot.timers
        assert snapshot.counters["aging.walk_unique"] > 0

    def test_health_state_estimate_vs_hatch(self, aging_table):
        rng = np.random.default_rng(12)
        state = HealthState(aging_table, rng.uniform(2.0, 3.0, 16))
        state.advance(rng.uniform(320, 400, 16), rng.uniform(0, 1, 16), 0.5)
        temps = rng.uniform(320, 400, 16)
        duties = rng.uniform(0, 1, 16)
        engine_next = state.estimate_next(temps, duties, 0.5)
        with walk_options(dedup=False):
            direct_next = state.estimate_next(temps, duties, 0.5)
        np.testing.assert_array_equal(engine_next, direct_next)


class TestOptionsAndConfig:
    def test_default_options_exact(self):
        opts = WalkOptions()
        assert opts.dedup is True
        assert opts.approx_tol is None

    def test_dedup_off_bypasses_engine(self, aging_table):
        rng = np.random.default_rng(13)
        t, d, h = _random_batch(rng, 50, aging_table)
        registry = MetricsRegistry()
        with use_registry(registry), walk_options(dedup=False):
            out = walk_next_health(aging_table, t, d, h, 0.5)
        np.testing.assert_array_equal(
            out, aging_table.next_health(t, d, h, 0.5)
        )
        # No engine counters: the hatch calls the table directly.
        assert "aging.walk_unique" not in registry.snapshot().counters

    def test_nested_options_inherit(self):
        with walk_options(approx_tol=0.5):
            with walk_options(dedup=False) as inner:
                assert inner.approx_tol == 0.5
                assert inner.dedup is False
        with walk_options(dedup=False):
            with walk_options(approx_tol=None) as inner:
                assert inner.dedup is False
                assert inner.approx_tol is None

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            WalkOptions(approx_tol=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(approx_table_walk=-1.0)

    def test_config_fields_default_exact(self):
        cfg = SimulationConfig()
        assert cfg.walk_dedup is True
        assert cfg.approx_table_walk is None

    def test_pickled_table_drops_engine(self, aging_table):
        get_walk_engine(aging_table)  # ensure the cache exists
        clone = pickle.loads(pickle.dumps(aging_table))
        assert not hasattr(clone, "_walk_engine")
        rng = np.random.default_rng(14)
        t, d, h = _random_batch(rng, 30, aging_table)
        np.testing.assert_array_equal(
            walk_next_health(clone, t, d, h, 0.5),
            aging_table.next_health(t, d, h, 0.5),
        )


class TestApproxMode:
    def test_error_within_documented_bound(self, aging_table):
        rng = np.random.default_rng(15)
        engine = _fresh_engine(aging_table)
        table = aging_table
        tol = 2.0
        # Documented bound: worst temperature-direction slope of the
        # stored table times the worst snap distance (tol/2), with a 4x
        # safety factor covering the inverse-then-forward composition
        # (the walk reads the table twice through the snapped axis).
        slope = np.max(
            np.abs(np.diff(table.values, axis=0))
            / table._temp_spans[:, None, None]
        )
        bound = 4.0 * slope * (tol / 2.0)
        worst = 0.0
        for _ in range(10):
            t, d, h = _random_batch(rng, 300, table)
            exact = table.next_health(t, d, h, 0.5)
            approx = engine.next_health(t, d, h, 0.5, approx_tol=tol)
            worst = max(worst, float(np.max(np.abs(approx - exact))))
        assert worst <= bound
        assert worst > 0.0  # the mode genuinely approximates

    def test_snapping_raises_hit_rates(self, aging_table):
        rng = np.random.default_rng(16)
        engine = _fresh_engine(aging_table)
        base_t = 358.0 + rng.uniform(-0.2, 0.2, 400)  # thermal jitter
        d = np.full(400, 0.5)
        h = np.full(400, 0.95)
        registry = MetricsRegistry()
        with use_registry(registry):
            engine.next_health(base_t, d, h, 0.5, approx_tol=1.0)
        counters = registry.snapshot().counters
        # All 400 jittered temps snap into at most a couple of buckets.
        assert counters["aging.walk_dedup_hits"] >= 398

    def test_exact_mode_untouched_by_default(self, aging_table):
        rng = np.random.default_rng(17)
        t, d, h = _random_batch(rng, 100, aging_table)
        np.testing.assert_array_equal(
            walk_next_health(aging_table, t, d, h, 0.5),
            aging_table.next_health(t, d, h, 0.5),
        )


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
            engine = _fresh_engine(table)
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
        engine = _fresh_engine(aging_table)
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
        counters = registry.snapshot().counters
        assert counters["aging.walk_idle"] == 12
        assert "aging.walk_unique" not in counters

    def test_mixed_batch_splits_counters(self, aging_table):
        rng = np.random.default_rng(21)
        engine = _fresh_engine(aging_table)
        t, d, h = _random_batch(rng, 400, aging_table, dark_frac=0.5)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        counters = registry.snapshot().counters
        idle = int(_idle_mask(aging_table, t, d, h).sum())
        assert 0 < idle < t.size
        assert counters["aging.walk_idle"] == idle
        walked = counters["aging.walk_unique"]
        assert walked + counters.get("aging.walk_dedup_hits", 0) == t.size - idle

    def test_approx_mode_walks_snapped_temperatures(self, aging_table):
        rng = np.random.default_rng(22)
        engine = _fresh_engine(aging_table)
        tol = 2.0
        for _ in range(10):
            t, d, h = _idle_heavy_batch(rng, 300, aging_table)
            snapped = np.round(t / tol) * tol
            np.testing.assert_array_equal(
                engine.next_health(t, d, h, 0.5, approx_tol=tol),
                aging_table.next_health(snapped, d, h, 0.5),
            )

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
            engine = _fresh_engine(table)
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
        engine = _fresh_engine(table)
        t, d, h = _idle_heavy_batch(rng, 200, table)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(got, table.next_health(t, d, h, 0.5))
        assert registry.counter("aging.walk_idle") == 0

    def test_dedup_hatch_bypasses_closed_form(self, aging_table):
        rng = np.random.default_rng(25)
        t, d, h = _idle_heavy_batch(rng, 60, aging_table)
        registry = MetricsRegistry()
        with use_registry(registry), walk_options(dedup=False):
            out = walk_next_health(aging_table, t, d, h, 0.5)
        np.testing.assert_array_equal(
            out, aging_table.next_health(t, d, h, 0.5)
        )
        assert registry.counter("aging.walk_idle") == 0

    def test_nan_epoch_walks_everything(self, aging_table):
        engine = _fresh_engine(aging_table)
        t, d, h = np.array([300.0, 300.0]), np.zeros(2), np.array([1.0, 0.9])
        np.testing.assert_array_equal(
            engine.next_health(t, d, h, float("nan")),
            aging_table.next_health(t, d, h, float("nan")),
        )

class TestProbeBypass:
    """The dedup/memo probes step aside when they cannot pay for
    themselves; results stay bit-identical either way."""

    def test_small_batch_bypasses_probes(self, aging_table):
        rng = np.random.default_rng(26)
        engine = _fresh_engine(aging_table)
        base_t, base_d, base_h = _random_batch(
            rng, 20, aging_table, dark_frac=0.0
        )
        reps = rng.integers(0, 20, _PROBE_FLOOR - 1)  # heavy duplication
        t, d, h = base_t[reps], base_d[reps], base_h[reps]
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        counters = registry.snapshot().counters
        # Below the floor nothing probes: every element walks.
        assert counters["aging.walk_unique"] == t.size
        assert counters.get("aging.walk_dedup_hits", 0) == 0

    def test_holdoff_cycle_after_deactivation(self, aging_table):
        rng = np.random.default_rng(27)
        engine = _fresh_engine(aging_table)
        # Warmup on all-distinct batches: zero reuse, so the EMA stays
        # at the floor and the warmup's last call arms the holdoff.
        for _ in range(8):
            t, d, h = _random_batch(
                rng, 200, aging_table, dark_frac=0.0, pristine_frac=0.0
            )
            engine.next_health(t, d, h, 0.5)
        assert engine._probe_holdoff == _PROBE_HOLDOFF

        base_t, base_d, base_h = _random_batch(
            rng, 40, aging_table, dark_frac=0.0
        )
        reps = rng.integers(0, 40, 320)
        t, d, h = base_t[reps], base_d[reps], base_h[reps]
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        counters = registry.snapshot().counters
        # Held off: the duplicates went unnoticed (insurance recovered).
        assert counters["aging.walk_unique"] == 320
        assert counters.get("aging.walk_dedup_hits", 0) == 0
        assert engine._probe_holdoff == _PROBE_HOLDOFF - 1

        # Drain the holdoff; the next call probes again and catches the
        # redundancy, reactivating the layers.
        for _ in range(_PROBE_HOLDOFF - 1):
            engine.next_health(t, d, h, 0.5)
        assert engine._probe_holdoff == 0
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        assert registry.snapshot().counters["aging.walk_dedup_hits"] > 0

    def test_idle_elements_skip_probes(self, aging_table):
        """Idle elements are answered before the dedup/memo probes, so
        only the stressed remainder is probed and counted there."""
        rng = np.random.default_rng(28)
        engine = _fresh_engine(aging_table)
        base_t, base_d, base_h = _random_batch(rng, 30, aging_table)
        base_d[:10] = 0.0
        base_d[10:] = rng.uniform(0.1, 1.0, 20)
        reps = rng.integers(0, 30, 600)
        t, d, h = base_t[reps], base_d[reps], base_h[reps]
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        counters = registry.snapshot().counters
        idle = int(np.count_nonzero(d == 0.0))
        assert counters["aging.walk_idle"] == idle
        assert counters["aging.walk_unique"] <= 20
        assert (
            counters["aging.walk_unique"] + counters["aging.walk_dedup_hits"]
            == t.size - idle
        )
