"""repro — a full reproduction of *Hayat: Harnessing Dark Silicon and
Variability for Aging Deceleration and Balancing* (DAC 2015).

Quick start::

    from repro import (
        HayatManager, VAAManager, SimulationConfig, run_campaign,
    )

    campaign = run_campaign(
        [VAAManager(), HayatManager()],
        num_chips=5,
        config=SimulationConfig(dark_fraction_min=0.5),
    )
    print(campaign.normalized_dtm_events("vaa", "hayat").mean())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the paper-versus-measured record of every figure.
"""

from repro.baselines import (
    ContiguousManager,
    CoolestFirstManager,
    RandomManager,
    VAAManager,
)
from repro.core import (
    DutyCycleAssumption,
    HayatManager,
    HayatMapper,
    OnlineHealthEstimator,
    WeightingConfig,
    WeightingFunction,
    contiguous_dcm,
    temperature_optimized_dcm,
    variation_aware_dcm,
)
from repro.aging import (
    AgingSensor,
    AgingTable,
    CoreAgingEstimator,
    HealthState,
    NBTIModel,
    build_aging_table,
)
from repro.dtm import DTMPolicy, DTMReport, ProactiveDTMPolicy
from repro.floorplan import CoreGeometry, Floorplan, paper_floorplan
from repro.mapping import ChipState, DarkCoreMap
from repro.noc import MeshTopology, NocReport, evaluate_mapping, traffic_matrix
from repro.power import (
    DynamicPowerModel,
    FrequencyLadder,
    LeakageModel,
    PowerModel,
)
from repro.sim import (
    CampaignResult,
    ChipContext,
    EpochRecord,
    LifetimeResult,
    LifetimeSimulator,
    SimulationConfig,
    run_campaign,
)
from repro.thermal import (
    ThermalConfig,
    ThermalPredictor,
    ThermalRCNetwork,
    ThermalSensor,
    TransientIntegrator,
    solve_coupled_steady_state,
)
from repro.variation import (
    Chip,
    ChipPopulation,
    VariationParams,
    generate_population,
)
from repro.workload import (
    Application,
    ArrivalEvent,
    ArrivalSchedule,
    PARSEC_PROFILES,
    PhaseTrace,
    ThreadSpec,
    WorkloadMix,
    make_mix,
    paper_mix,
    poisson_arrivals,
    random_mix,
)

__version__ = "1.0.0"

__all__ = [
    "AgingSensor",
    "AgingTable",
    "Application",
    "ArrivalEvent",
    "ArrivalSchedule",
    "CampaignResult",
    "Chip",
    "ChipContext",
    "ChipPopulation",
    "ChipState",
    "ContiguousManager",
    "CoolestFirstManager",
    "CoreAgingEstimator",
    "CoreGeometry",
    "DTMPolicy",
    "DTMReport",
    "DarkCoreMap",
    "DutyCycleAssumption",
    "DynamicPowerModel",
    "EpochRecord",
    "Floorplan",
    "FrequencyLadder",
    "HayatManager",
    "HayatMapper",
    "HealthState",
    "LeakageModel",
    "LifetimeResult",
    "LifetimeSimulator",
    "MeshTopology",
    "NBTIModel",
    "NocReport",
    "OnlineHealthEstimator",
    "PARSEC_PROFILES",
    "PhaseTrace",
    "PowerModel",
    "ProactiveDTMPolicy",
    "RandomManager",
    "SimulationConfig",
    "ThermalConfig",
    "ThermalPredictor",
    "ThermalRCNetwork",
    "ThermalSensor",
    "ThreadSpec",
    "TransientIntegrator",
    "VAAManager",
    "VariationParams",
    "WeightingConfig",
    "WeightingFunction",
    "WorkloadMix",
    "build_aging_table",
    "contiguous_dcm",
    "evaluate_mapping",
    "generate_population",
    "make_mix",
    "paper_mix",
    "paper_floorplan",
    "poisson_arrivals",
    "random_mix",
    "run_campaign",
    "solve_coupled_steady_state",
    "temperature_optimized_dcm",
    "traffic_matrix",
    "variation_aware_dcm",
]
