"""Health-map explorer: visualize what the management layer sees.

Renders, for one manufactured chip, the Fig. 2-style view: the initial
frequency-variation map, three candidate dark core maps (contiguous,
temperature-optimized, variation-aware), their steady-state temperature
profiles at equal load, and the 10-year health maps they produce.

Run:  python examples/health_map_explorer.py
"""

import numpy as np

from repro import (
    ChipContext,
    ContiguousManager,
    HayatManager,
    LifetimeSimulator,
    PowerModel,
    SimulationConfig,
    ThermalRCNetwork,
    contiguous_dcm,
    generate_population,
    paper_mix,
    solve_coupled_steady_state,
    temperature_optimized_dcm,
    variation_aware_dcm,
)
from repro.aging.tables import default_aging_table
from repro.analysis import render_core_map, render_dcm
from repro.util.constants import kelvin_to_celsius


def main() -> None:
    population = generate_population(1, seed=42)
    chip = population[0]
    floorplan = population.floorplan
    network = ThermalRCNetwork(floorplan)
    power_model = PowerModel.for_chip(chip)
    influence = network.influence_matrix()

    print(
        render_core_map(
            floorplan,
            chip.fmax_init_ghz,
            title=f"{chip.chip_id}: initial frequency variation map (GHz)",
            fmt="{:5.2f}",
        )
    )
    print()
    print(
        render_core_map(
            floorplan,
            chip.leakage_scale,
            title=f"{chip.chip_id}: manufacturing leakage multipliers",
            fmt="{:5.2f}",
        )
    )

    num_on = 32
    requirements = np.full(num_on, 2.5)
    hayat_dcm, _reserved = variation_aware_dcm(
        floorplan, num_on, influence, chip.fmax_init_ghz, requirements
    )
    dcms = {
        "contiguous (naive)": contiguous_dcm(floorplan, num_on),
        "temperature-optimized": temperature_optimized_dcm(
            floorplan, num_on, influence
        ),
        "variation-aware (Hayat)": hayat_dcm,
    }

    freq = np.full(64, 2.8)
    activity = np.full(64, 0.6)
    for label, dcm in dcms.items():
        print()
        print(render_dcm(floorplan, dcm, title=f"DCM: {label}"))
        on = dcm.powered_on
        temps, breakdown = solve_coupled_steady_state(
            network, power_model, freq * on, activity * on, on
        )
        print(
            f"  steady state: peak {kelvin_to_celsius(temps.max()):.1f} C, "
            f"mean {kelvin_to_celsius(float(temps.mean())):.1f} C, "
            f"chip power {breakdown.chip_total_w:.0f} W"
        )
        print(
            render_core_map(
                floorplan, temps, shades=True, title="  temperature profile:"
            )
        )

    # Ten-year health maps under the full closed-loop simulation.
    print()
    print("Running 10-year lifetimes (contiguous vs Hayat management)...")
    table = default_aging_table()
    config = SimulationConfig(dark_fraction_min=0.5, window_s=10.0, seed=7)
    for policy in (ContiguousManager(), HayatManager()):
        ctx = ChipContext(chip, table, dark_fraction_min=0.5)
        simulator = LifetimeSimulator(
            config, mix_factory=lambda epoch, n, rng: paper_mix(n, rng)
        )
        result = simulator.run(ctx, policy)
        print()
        print(
            render_core_map(
                floorplan,
                result.epochs[-1].health_after,
                title=f"{policy.name}: health map after 10 years "
                "(1.00 = unaged)",
                fmt="{:5.2f}",
            )
        )


if __name__ == "__main__":
    main()
