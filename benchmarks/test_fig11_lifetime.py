"""Fig. 11: aged frequency over the lifetime and lifetime gains.

Left panel: end-of-span frequency maps of an example chip under VAA
and Hayat at both dark floors.  Right panel: population-average
frequency trajectories over the simulated span (10 years by default,
as in the paper) for the four (policy, dark-floor) combinations, plus
the lifetime-gain readout: the paper reports ~3 months of extra
lifetime at a 3-year requirement and ~2x the savings at a 10-year
requirement (gains grow with the lifetime constraint).

Requirements and sampled years are fractions of the span, so the bench
reads 3/5/8-year requirements at the default span and stays inside the
trajectory at a shorter ``REPRO_BENCH_YEARS``.
"""

import numpy as np

from repro.analysis import (
    format_table,
    lifetime_gain_years,
    render_core_map,
)

#: Lifetime requirements as fractions of the simulated span.
REQUIREMENT_FRACTIONS = (0.3, 0.5, 0.8)
#: Right-panel sample points as fractions of the simulated span.
SAMPLE_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0)


def _trajectories(campaign):
    years = campaign.results["vaa"][0].years()
    return (
        np.concatenate([[0.0], years]),
        {
            name: np.concatenate(
                [
                    [np.mean([r.fmax_init_ghz.mean() for r in campaign.results[name]])],
                    campaign.mean_avg_fmax_trajectory(name),
                ]
            )
            for name in campaign.policies()
        },
    )


def test_fig11_lifetime(campaign25, campaign50, benchmark):
    years, traj50 = benchmark(_trajectories, campaign50)
    _, traj25 = _trajectories(campaign25)
    span = years[-1]
    targets = [fraction * span for fraction in REQUIREMENT_FRACTIONS]

    # Right panel: the four average-frequency series.
    print()
    sample = np.searchsorted(
        years, [fraction * span for fraction in SAMPLE_FRACTIONS], side="left"
    )
    sample = np.clip(sample, 0, len(years) - 1)
    rows = []
    for label, traj in (
        ("VAA 50%", traj50["vaa"]),
        ("Hayat 50%", traj50["hayat"]),
        ("VAA 25%", traj25["vaa"]),
        ("Hayat 25%", traj25["hayat"]),
    ):
        rows.append([label] + [f"{traj[i]:.3f}" for i in sample])
    print(
        format_table(
            ["series"] + [f"yr {years[i]:g}" for i in sample],
            rows,
            title=(
                "Fig. 11 right: population-average frequency (GHz) over "
                f"{span:g} years"
            ),
        )
    )

    # Lifetime gains at growing requirements.
    gain_rows = []
    for target in targets:
        g50 = lifetime_gain_years(years, traj50["vaa"], traj50["hayat"], target)
        g25 = lifetime_gain_years(years, traj25["vaa"], traj25["hayat"], target)
        gain_rows.append(
            [f"{target:g} years", f"{12 * g25:.1f} months", f"{12 * g50:.1f} months"]
        )
    print()
    print(
        format_table(
            ["required lifetime", "gain @25% dark", "gain @50% dark"],
            gain_rows,
            title="Fig. 11: lifetime gain of Hayat over VAA",
        )
    )
    print("paper @50%: ~3 months at a 3-year requirement, ~2x savings at 10 years")
    print(
        f"note: gains are lower bounds clipped by the simulated {span:g}-year "
        "span — Hayat often never drops to the baseline's requirement inside it"
    )

    # Left panel: end-of-span maps of the example chip at 50 % dark.
    example_vaa = campaign50.results["vaa"][0]
    example_hayat = campaign50.results["hayat"][0]
    floorplan_rows = int(np.sqrt(example_vaa.fmax_init_ghz.size))
    from repro.floorplan import Floorplan

    floorplan = Floorplan(floorplan_rows, floorplan_rows)
    print()
    print(
        render_core_map(
            floorplan,
            example_vaa.fmax_trajectory_ghz()[-1],
            title=f"Fig. 11 left: VAA 50% year-{span:g} frequency map (GHz)",
            fmt="{:5.2f}",
        )
    )
    print()
    print(
        render_core_map(
            floorplan,
            example_hayat.fmax_trajectory_ghz()[-1],
            title=f"Fig. 11 left: Hayat 50% year-{span:g} frequency map (GHz)",
            fmt="{:5.2f}",
        )
    )

    # --- Shape assertions -------------------------------------------------
    # All series decline; Hayat stays above VAA at the same dark floor.
    for traj in (*traj50.values(), *traj25.values()):
        assert traj[-1] < traj[0]
    assert traj50["hayat"][-1] > traj50["vaa"][-1]
    assert traj25["hayat"][-1] >= traj25["vaa"][-1]
    # Positive lifetime gain at every requirement level.  (The paper's
    # gains *grow* with the target; ours are clipped lower bounds at the
    # span edge, so monotonicity in the target is not observable — each
    # clipped gain already certifies "Hayat outlives the span".)
    for target in targets:
        gain = lifetime_gain_years(years, traj50["vaa"], traj50["hayat"], target)
        assert gain > 0.0, f"no lifetime gain at a {target:g}-year requirement"
