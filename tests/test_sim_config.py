"""Simulation configuration."""

import pytest

from repro.sim import SimulationConfig


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = SimulationConfig()
        assert cfg.lifetime_years == 10.0
        assert cfg.epoch_years == 0.5  # "3 or 6 months" epochs
        assert cfg.num_epochs == 20

    def test_steps_per_window(self):
        cfg = SimulationConfig(window_s=30.0, control_dt_s=1.0)
        assert cfg.steps_per_window == 30

    def test_rejects_dt_above_window(self):
        with pytest.raises(ValueError):
            SimulationConfig(window_s=1.0, control_dt_s=2.0)

    def test_rejects_bad_load_factor(self):
        with pytest.raises(ValueError):
            SimulationConfig(load_factor=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(load_factor=1.5)

    def test_rejects_bad_dark_fraction(self):
        with pytest.raises(ValueError):
            SimulationConfig(dark_fraction_min=1.2)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lifetime_years", "0.5"),
            ("window_s", True),
            ("seed", 1.9),
            ("seed", "3"),
            ("delta_candidates", "false"),
        ],
    )
    def test_rejects_mistyped_values(self, field, value):
        """``float()`` accepts "0.5" and True; the run would then fail
        on arithmetic (or, for a seed, on the RNG) far from the cause."""
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})


class TestContextProperties:
    def test_max_on_cores(self, chip, aging_table):
        from repro.sim import ChipContext

        ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
        assert ctx.max_on_cores == 32
        ctx25 = ChipContext(chip, aging_table, dark_fraction_min=0.25)
        assert ctx25.max_on_cores == 48
