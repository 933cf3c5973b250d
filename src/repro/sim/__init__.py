"""Lifetime simulation: accelerated aging over epochs (Fig. 4).

Chip lifetimes (10 years) are simulated as a sequence of coarse aging
epochs.  Within each epoch a fine-grained transient thermal simulation
runs a representative window under the epoch's mapping, with DTM
enforcement at every control step; the window's worst-case temperatures
and accumulated duty cycles are then upscaled to the epoch length to
advance the chip's health state.
"""

from repro.sim.config import SimulationConfig
from repro.sim.context import ChipContext
from repro.sim.results import EpochRecord, LifetimeResult
from repro.sim.simulator import LifetimeSimulator
from repro.sim.batch import BatchLifetimeSimulator
from repro.sim.campaign import CampaignResult, run_campaign
from repro.sim.checkpoint import CampaignCheckpoint, campaign_digest, job_keys
from repro.sim.supervisor import CampaignJobError, JobFailure
from repro.sim.regression import Drift, compare_results
from repro.sim.scenario import Scenario, ScenarioError, load_scenario, run_scenario
from repro.sim.sweep import SweepResult, sweep_dark_fractions

__all__ = [
    "CampaignCheckpoint",
    "CampaignJobError",
    "CampaignResult",
    "Drift",
    "JobFailure",
    "Scenario",
    "ScenarioError",
    "campaign_digest",
    "compare_results",
    "job_keys",
    "SweepResult",
    "load_scenario",
    "run_scenario",
    "sweep_dark_fractions",
    "BatchLifetimeSimulator",
    "ChipContext",
    "EpochRecord",
    "LifetimeResult",
    "LifetimeSimulator",
    "SimulationConfig",
    "run_campaign",
]
