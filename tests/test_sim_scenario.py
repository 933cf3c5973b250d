"""Campaign documents: execution, the example files, loading.

Most malformed documents are checked in ``tests/test_sim_fleet.py``
(``BAD_DOCUMENTS`` and the ``test_unknown_*`` tests): a fleet request
is the same document, refused by the same parser. ``TestValidation``
checks that ``run_scenario`` refuses them before running anything.
"""

import glob
import json
import os

import pytest

from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.sim import (
    Scenario,
    ScenarioError,
    SimulationConfig,
    load_scenario,
    run_campaign,
    run_scenario,
)
from repro.sim.export import result_to_dict
from repro.variation import generate_population

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "scenarios",
)


def minimal_scenario(**overrides):
    scenario = {
        "name": "test",
        "chips": 1,
        "population_seed": 5,
        "dark_fractions": [0.5],
        "config": {
            "lifetime_years": 0.5,
            "epoch_years": 0.5,
            "window_s": 5.0,
            "seed": 3,
        },
        "policies": [{"type": "vaa"}, {"type": "hayat"}],
    }
    scenario.update(overrides)
    return scenario


class TestRunScenario:
    def test_runs_minimal(self, aging_table):
        sweep = run_scenario(minimal_scenario(), table=aging_table)
        assert sweep.fractions == [0.5]
        campaign = sweep.campaigns[0.5]
        assert campaign.policies() == ["vaa", "hayat"]
        assert len(campaign.results["hayat"]) == 1

    def test_policy_kwargs_forwarded(self, aging_table):
        scenario = minimal_scenario(
            policies=[{"type": "hayat", "comm_weight": 2.0}]
        )
        (campaign,) = run_scenario(scenario, table=aging_table).campaigns.values()
        assert campaign.policies() == ["hayat"]

    def test_config_defaults_when_omitted(self, aging_table):
        scenario = minimal_scenario()
        del scenario["config"]
        # Default config is a full 10-year run; the shortcuts keep the
        # run tiny while every other field takes its default.
        scenario.update(years=0.5, window_s=5.0)
        (campaign,) = run_scenario(scenario, table=aging_table).campaigns.values()
        assert campaign.config.lifetime_years == 0.5
        assert campaign.config.epoch_years == SimulationConfig().epoch_years

    def test_migrated_document_reproduces_the_old_format(self, aging_table):
        """A document migrated from the old scenario format
        (``population.{num_chips, seed}``, ``config.dark_fraction_min``)
        with ``"batch_size": 1`` runs exactly what the old
        ``run_scenario`` ran: one per-chip campaign over the document's
        silicon and config."""
        config = {
            "lifetime_years": 1.0, "epoch_years": 0.5, "window_s": 4.0,
            "seed": 7,
        }
        migrated = {
            "chips": 2,
            "population_seed": 11,
            "dark_fractions": [0.25],
            "config": config,
            "policies": [{"type": "vaa"}, {"type": "hayat", "comm_weight": 2.0}],
            "batch_size": 1,
        }
        reference = run_campaign(
            [VAAManager(), HayatManager(comm_weight=2.0)],
            config=SimulationConfig(dark_fraction_min=0.25, **config),
            population=generate_population(2, seed=11),
            table=aging_table,
        )
        (campaign,) = run_scenario(migrated, table=aging_table).campaigns.values()
        for name in ("vaa", "hayat"):
            for old, new in zip(reference.results[name], campaign.results[name]):
                assert json.dumps(result_to_dict(old)) == json.dumps(
                    result_to_dict(new)
                )


class TestValidation:
    def test_unknown_top_key(self):
        with pytest.raises(ScenarioError, match="unknown field"):
            run_scenario(minimal_scenario(extra=1))

    def test_unknown_config_key(self):
        scenario = minimal_scenario()
        scenario["config"]["typo_knob"] = 1
        with pytest.raises(ScenarioError, match="typo_knob"):
            run_scenario(scenario)

    def test_unknown_policy_type(self):
        with pytest.raises(ScenarioError, match="unknown policy"):
            run_scenario(minimal_scenario(policies=[{"type": "magic"}]))

    def test_bad_population_key(self):
        """The old ``population`` object is no longer part of the format
        (``chips``/``population_seed`` replace it): it is refused by name."""
        with pytest.raises(ScenarioError, match="population"):
            run_scenario(minimal_scenario(population={"chips": 3}))


class TestExamples:
    def test_every_example_document_parses(self):
        paths = sorted(glob.glob(os.path.join(EXAMPLES, "*.json")))
        assert paths
        for path in paths:
            scenario = Scenario.from_dict(load_scenario(path))
            assert scenario.job_count > 0


class TestLoadScenario:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario()))
        loaded = load_scenario(str(path))
        assert loaded["name"] == "test"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(str(path))
