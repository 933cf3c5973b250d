"""3D aging tables: interpolation, inverse lookup, table walks."""

import numpy as np
import pytest

from repro.aging import AgingTable, CoreAgingEstimator
from repro.aging.tables import _axis_weights, build_aging_table
from repro.aging.walk import WalkEngine


class TestForwardLookup:
    def test_matches_estimator_at_grid_points(self, aging_table):
        est = CoreAgingEstimator()
        t = aging_table.temp_grid_k[3]
        d = aging_table.duty_grid[2]
        y = aging_table.age_grid_years[5]
        assert aging_table.health(t, d, y) == pytest.approx(
            est.relative_fmax(t, d, y), rel=1e-12
        )

    def test_interpolation_error_small(self, aging_table):
        """Off-grid lookups stay close to the exact estimator."""
        est = CoreAgingEstimator()
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.uniform(300.0, 420.0)
            d = rng.uniform(0.1, 1.0)
            y = rng.uniform(0.5, 12.0)
            exact = est.relative_fmax(t, d, y)
            approx = float(aging_table.health(t, d, y))
            assert abs(approx - exact) < 0.01

    def test_monotone_along_age(self, aging_table):
        years = np.linspace(0.0, 20.0, 30)
        h = aging_table.health(np.full(30, 370.0), np.full(30, 0.7), years)
        assert (np.diff(h) <= 1e-12).all()

    def test_clamps_outside_grid(self, aging_table):
        inside = aging_table.health(430.0, 1.0, 120.0)
        outside = aging_table.health(500.0, 1.0, 500.0)
        assert outside == pytest.approx(inside)

    def test_broadcasts(self, aging_table):
        out = aging_table.health(np.full(5, 350.0), 0.5, np.linspace(1, 5, 5))
        assert out.shape == (5,)


class TestEquivalentAge:
    def test_roundtrip_on_age_grid(self, aging_table):
        y = aging_table.age_grid_years[7]
        h = aging_table.health(350.0, 0.6, y)
        recovered = aging_table.equivalent_age(350.0, 0.6, h)
        assert recovered[0] == pytest.approx(y, rel=1e-6)

    def test_full_health_is_age_zero(self, aging_table):
        assert aging_table.equivalent_age(350.0, 0.6, 1.0)[0] == 0.0

    def test_very_low_health_clamps_to_edge(self, aging_table):
        age = aging_table.equivalent_age(350.0, 0.6, 0.01)
        assert age[0] == aging_table.max_age_years

    def test_zero_duty_any_health_maps_to_edge_or_zero(self, aging_table):
        """A zero-duty curve is flat at 1.0: degraded health has no
        finite equivalent age; the lookup must not crash or return NaN."""
        age = aging_table.equivalent_age(350.0, 0.0, 0.9)
        assert np.isfinite(age).all()

    def test_hotter_reference_gives_younger_equivalent(self, aging_table):
        h = aging_table.health(340.0, 0.6, 8.0)
        age_hot = aging_table.equivalent_age(400.0, 0.6, h)
        age_cool = aging_table.equivalent_age(340.0, 0.6, h)
        assert age_hot[0] < age_cool[0]

    def test_batch_vectorization(self, aging_table):
        temps = np.array([340.0, 360.0, 380.0])
        duties = np.array([0.4, 0.6, 0.8])
        healths = np.array([0.95, 0.9, 0.85])
        ages = aging_table.equivalent_age(temps, duties, healths)
        assert ages.shape == (3,)
        for i in range(3):
            single = aging_table.equivalent_age(
                temps[i], duties[i], healths[i]
            )
            assert ages[i] == pytest.approx(single[0])


class TestNextHealth:
    def test_never_increases_health(self, aging_table):
        rng = np.random.default_rng(1)
        temps = rng.uniform(310.0, 410.0, 50)
        duties = rng.uniform(0.0, 1.0, 50)
        current = rng.uniform(0.8, 1.0, 50)
        nxt = aging_table.next_health(temps, duties, current, 0.5)
        assert (nxt <= current + 1e-12).all()

    def test_zero_epoch_preserves_health(self, aging_table):
        current = np.array([0.93, 0.97])
        nxt = aging_table.next_health(
            np.array([350.0, 370.0]), np.array([0.5, 0.5]), current, 0.0
        )
        np.testing.assert_allclose(nxt, current, atol=1e-9)

    def test_matches_continuous_aging_when_conditions_constant(self, aging_table):
        """Walking the table in two half-epochs equals one full epoch
        when (T, d) stay the same — the equivalent-age composition law."""
        h0 = np.array([1.0])
        direct = aging_table.next_health(360.0, 0.7, h0, 2.0)
        stepped = aging_table.next_health(
            360.0, 0.7, aging_table.next_health(360.0, 0.7, h0, 1.0), 1.0
        )
        np.testing.assert_allclose(stepped, direct, atol=1e-3)

    def test_zero_duty_epoch_is_free(self, aging_table):
        """Cores that stay dark all epoch do not age."""
        current = np.array([0.9])
        nxt = aging_table.next_health(400.0, 0.0, current, 1.0)
        assert nxt[0] == pytest.approx(0.9, abs=1e-9)

    def test_rejects_negative_epoch(self, aging_table):
        with pytest.raises(ValueError):
            aging_table.next_health(350.0, 0.5, np.array([0.9]), -1.0)


class TestPersistence:
    def test_save_load_roundtrip(self, aging_table, tmp_path):
        path = str(tmp_path / "table.npz")
        aging_table.save(path)
        loaded = AgingTable.load(path)
        np.testing.assert_array_equal(loaded.values, aging_table.values)
        np.testing.assert_array_equal(loaded.temp_grid_k, aging_table.temp_grid_k)


class TestValidation:
    def test_rejects_wrong_value_shape(self, aging_table):
        with pytest.raises(ValueError):
            AgingTable(
                aging_table.temp_grid_k,
                aging_table.duty_grid,
                aging_table.age_grid_years,
                aging_table.values[:-1],
            )

    def test_rejects_nonmonotone_grid(self, aging_table):
        bad = aging_table.temp_grid_k.copy()
        bad[1] = bad[0]
        with pytest.raises(ValueError):
            AgingTable(
                bad,
                aging_table.duty_grid,
                aging_table.age_grid_years,
                aging_table.values,
            )

    def test_rejects_health_above_one(self, aging_table):
        bad = aging_table.values.copy()
        bad[0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            AgingTable(
                aging_table.temp_grid_k,
                aging_table.duty_grid,
                aging_table.age_grid_years,
                bad,
            )

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, aging_table, bad_value):
        # NaN fails every comparison, so it once passed the range check.
        bad = aging_table.values.copy()
        bad[3, 4, 5] = bad_value
        with pytest.raises(ValueError, match="values must be finite"):
            AgingTable(
                aging_table.temp_grid_k,
                aging_table.duty_grid,
                aging_table.age_grid_years,
                bad,
            )

    @pytest.mark.parametrize("name", ["temp_grid_k", "duty_grid", "age_grid_years"])
    def test_rejects_non_finite_grid(self, aging_table, name):
        arrays = {
            "temp_grid_k": aging_table.temp_grid_k.copy(),
            "duty_grid": aging_table.duty_grid.copy(),
            "age_grid_years": aging_table.age_grid_years.copy(),
            "values": aging_table.values,
        }
        arrays[name][1] = np.nan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AgingTable(**arrays)

    def test_load_rejects_poisoned_file(self, aging_table, tmp_path):
        path = str(tmp_path / "table.npz")
        aging_table.save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["values"][0, 1, 2] = np.nan
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="values must be finite"):
            AgingTable.load(path)


def _monotone_table(rng, nt, nd, ny) -> AgingTable:
    """A random table, non-increasing along the age axis, with exact
    flat runs and a duty-0 slice of exactly 1.0 (the physical shape)."""
    temp = 280.0 + np.cumsum(rng.uniform(5.0, 30.0, nt))
    duty = np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.2, nd - 1))])
    age = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 5.0, ny - 1))])
    factors = rng.uniform(0.9, 1.0, (nt, nd, ny))
    factors[rng.random((nt, nd, ny)) < 0.3] = 1.0
    factors[..., 0] = 1.0
    factors[:, 0, :] = 1.0
    values = np.maximum(np.cumprod(factors, axis=-1), 1e-3)
    return AgingTable(temp, duty / duty[-1], age, values)


def _same_bits(got, want) -> None:
    """Bit-for-bit equality, NaN payloads included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestBracketedInverse:
    """The one-window inverse of ``_ages_located`` (count-table bracket,
    one blended window per element) and the walks built on it must
    reproduce the exhaustive compose
    ``min(health(T, d, _ages_on_curves(_health_curves(T, d), h) + e), h)``
    bit for bit."""

    def _reference_ages(self, table, temp, duty, health):
        """Exhaustive path: blend full age curves, invert them."""
        curves = table._health_curves(temp, duty)
        return table._ages_on_curves(curves, np.atleast_1d(health))

    def test_random_batches_match_full_curves(self, aging_table):
        assert aging_table._age_monotone
        rng = np.random.default_rng(1234)
        tg = aging_table.temp_grid_k
        stored = aging_table.values.ravel()
        for _ in range(40):
            b = int(rng.integers(1, 50))
            temp = rng.uniform(tg[0] - 15.0, tg[-1] + 15.0, b)
            duty = rng.uniform(0.0, 1.0, b)
            health = rng.uniform(0.2, 1.0, b)
            # Adversarial sprinkles: grid-edge duties, pristine health,
            # and targets equal to exactly-stored curve values (the
            # cases that force the two-threshold bracket to widen).
            duty[rng.random(b) < 0.15] = 0.0
            duty[rng.random(b) < 0.15] = 1.0
            health[rng.random(b) < 0.15] = 1.0
            exact = rng.random(b) < 0.3
            if exact.any():
                health[exact] = stored[
                    rng.integers(0, stored.size, int(exact.sum()))
                ]
            fast = aging_table.equivalent_age(temp, duty, health)
            ref = self._reference_ages(aging_table, temp, duty, health)
            np.testing.assert_array_equal(fast, ref)

    def test_single_element_batch(self, aging_table):
        """B=1 exercises the degenerate-reduction guard."""
        fast = aging_table.equivalent_age(355.0, 0.45, 0.97)
        ref = self._reference_ages(
            aging_table, np.array([355.0]), np.array([0.45]), 0.97
        )
        np.testing.assert_array_equal(fast, ref)

    def test_next_health_consistent_with_components(self, aging_table):
        """The fused table walk equals invert + advance + forward read."""
        rng = np.random.default_rng(7)
        b = 12
        temp = rng.uniform(300.0, 430.0, b)
        duty = rng.uniform(0.05, 1.0, b)
        health = rng.uniform(0.5, 1.0, b)
        walked = aging_table.next_health(temp, duty, health, 0.5)
        ages = aging_table.equivalent_age(temp, duty, health) + 0.5
        read = aging_table.health(temp, duty, ages)
        np.testing.assert_array_equal(walked, np.minimum(read, health))

    def _check(self, table, t, d, h, epoch):
        ages = self._reference_ages(table, t, d, h)
        want = np.minimum(table.health(t, d, ages + epoch), h)
        _same_bits(table.equivalent_age(t, d, h), ages)
        it, ft = _axis_weights(table.temp_grid_k, t, table._temp_spans)
        _same_bits(table._walk_flat(it, ft, d, h, epoch), want)
        _same_bits(WalkEngine(table).next_health(t, d, h, epoch), want)

    @staticmethod
    def _batch(rng, table, b):
        """Stressed and idle elements, pristine and stored-value
        targets, NaN temperatures and duties."""
        tg = table.temp_grid_k
        t = rng.uniform(tg[0] - 15.0, tg[-1] + 15.0, b)
        d = rng.uniform(0.0, 1.0, b)
        h = rng.uniform(0.2, 1.0, b)
        d[rng.random(b) < 0.15] = 0.0
        d[rng.random(b) < 0.1] = 1.0
        low = rng.random(b) < 0.15
        d[low] = rng.uniform(0.0, table.duty_grid[1], int(low.sum()))
        h[rng.random(b) < 0.25] = 1.0
        stored = rng.random(b) < 0.3
        h[stored] = table._values_flat[
            rng.integers(0, table._values_flat.size, int(stored.sum()))
        ]
        t[rng.random(b) < 0.04] = np.nan
        d[rng.random(b) < 0.04] = np.nan
        return t, d, h

    def _fuzz(self, table, seed, rounds):
        rng = np.random.default_rng(seed)
        past_grid = 2.0 * table.max_age_years
        for i in range(rounds):
            b = (1, 2)[i] if i < 2 else int(rng.integers(3, 120))
            t, d, h = self._batch(rng, table, b)
            for epoch in (0.0, 0.5, past_grid, np.nan):
                self._check(table, t, d, h, epoch)

    def test_fuzz_fixture_table(self, aging_table):
        assert aging_table._counts_exact
        self._fuzz(aging_table, 11, 40)

    def test_fuzz_random_tables(self):
        rng = np.random.default_rng(12)
        for seed in range(6):
            table = _monotone_table(rng, 5, 6, 12)
            assert table._age_monotone and table._idle_exact
            self._fuzz(table, seed, 15)

    def test_stored_value_targets_on_grid(self, aging_table):
        """On-grid (T, d) and targets equal to stored values: the blend
        hits the target exactly, at the bracket's edges."""
        rng = np.random.default_rng(13)
        b = 400
        i = rng.integers(0, len(aging_table.temp_grid_k), b)
        j = rng.integers(0, len(aging_table.duty_grid), b)
        k = rng.integers(0, len(aging_table.age_grid_years), b)
        t = aging_table.temp_grid_k[i]
        d = aging_table.duty_grid[j]
        h = aging_table.values[i, j, k]
        for epoch in (0.0, 0.5):
            self._check(aging_table, t, d, h, epoch)

    def test_full_axis_bracket_mixed_with_narrow(self, aging_table):
        """Pristine elements at duty in (0, duty_grid[1]) blend the flat
        duty-0 curve, so their bracket spans the whole age axis; mixed
        into a batch of narrow brackets, every window pads to that width."""
        rng = np.random.default_rng(14)
        n_y = len(aging_table.age_grid_years)
        b = 64
        t = rng.uniform(300.0, 420.0, b)
        d = rng.uniform(0.3, 1.0, b)
        h = rng.uniform(0.7, 0.99, b)
        wide = np.arange(0, b, 8)
        d[wide] = rng.uniform(0.0, aging_table.duty_grid[1], wide.size)
        d[wide[0]] = 0.5 * aging_table.duty_grid[1]
        h[wide] = 1.0
        it, ft = _axis_weights(aging_table.temp_grid_k, t)
        idx_d, fd = _axis_weights(aging_table.duty_grid, d)
        rows, _ = aging_table._corner_rows(it, idx_d)
        weights = aging_table._corner_weights(ft, fd)
        lo_b, hi_b = aging_table._count_bounds(rows, weights > 0.0, h)
        assert (lo_b[wide] == 0).all() and (hi_b[wide] == n_y).all()
        narrow = np.setdiff1d(np.arange(b), wide)
        assert (hi_b[narrow] - lo_b[narrow]).max() < n_y // 2
        for epoch in (0.0, 0.5, 3.0 * aging_table.max_age_years):
            self._check(aging_table, t, d, h, epoch)

    def test_dyadic_count_tables(self):
        """A table with too many distinct values for exact count tables
        falls back to dyadic edges and wider brackets, still exact."""
        table = _monotone_table(np.random.default_rng(15), 15, 20, 40)
        assert not table._counts_exact
        self._fuzz(table, 16, 12)


class TestVectorizedBuild:
    """``build_aging_table``'s broadcast grid evaluation must be
    bit-identical to the scalar triple loop it replaced, and subclasses
    that override the scalar evaluation must still get the loop."""

    GRIDS = dict(
        temp_grid_k=np.array([300.0, 340.0, 371.5, 420.0]),
        duty_grid=np.array([0.0, 0.05, 0.3, 1.0]),
        age_grid_years=np.array([0.0, 0.1, 1.7, 8.0, 30.0]),
    )

    def _loop_reference(self, estimator, temps, duties, years):
        values = np.empty((len(temps), len(duties), len(years)))
        for i, temp in enumerate(temps):
            for j, duty in enumerate(duties):
                for k, age in enumerate(years):
                    values[i, j, k] = estimator.relative_fmax(temp, duty, age)
        return values

    def test_bit_identical_to_scalar_loop(self):
        est = CoreAgingEstimator()
        table = build_aging_table(est, **self.GRIDS)
        ref = self._loop_reference(
            est,
            self.GRIDS["temp_grid_k"],
            self.GRIDS["duty_grid"],
            self.GRIDS["age_grid_years"],
        )
        np.testing.assert_array_equal(table.values, ref)
        # Year zero is pristine by definition on both paths.
        np.testing.assert_array_equal(table.values[:, :, 0], 1.0)

    def test_default_estimator_and_grids(self):
        """The no-argument build (what ``default_aging_table`` runs)
        takes the broadcast path and still matches the loop."""
        table = build_aging_table()
        est = CoreAgingEstimator()
        # Spot-check a scattering of grid points against the scalar
        # estimator — full-grid loop comparison lives in the small-grid
        # test above; here 60 points pin the default-grid wiring.
        rng = np.random.default_rng(5)
        for _ in range(60):
            i = rng.integers(0, table.temp_grid_k.size)
            j = rng.integers(0, table.duty_grid.size)
            k = rng.integers(0, table.age_grid_years.size)
            assert table.values[i, j, k] == est.relative_fmax(
                float(table.temp_grid_k[i]),
                float(table.duty_grid[j]),
                float(table.age_grid_years[k]),
            )

    def test_subclass_override_falls_back_to_loop(self):
        calls = []

        class Faulty(CoreAgingEstimator):
            def relative_fmax(self, temp_k, core_duty, years):
                calls.append((temp_k, core_duty, years))
                if years == 0.0:
                    return 1.0
                return max(
                    super().relative_fmax(temp_k, core_duty, years) - 0.01,
                    1e-3,
                )

        est = Faulty()
        table = build_aging_table(est, **self.GRIDS)
        n_points = 4 * 4 * 5
        assert len(calls) == n_points  # every grid point hit the override
        ref = self._loop_reference(
            est,
            self.GRIDS["temp_grid_k"],
            self.GRIDS["duty_grid"],
            self.GRIDS["age_grid_years"],
        )
        np.testing.assert_array_equal(table.values, ref)
