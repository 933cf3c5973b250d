"""Analysis helpers: lifetime gains, summary statistics, rendering.

Everything the benchmark harness needs to turn raw
:class:`repro.sim.LifetimeResult` records into the rows and series the
paper's figures report.
"""

from repro.analysis.lifetime import (
    lifetime_at_requirement,
    lifetime_gain_years,
    requirement_for_lifetime,
)
from repro.analysis.guardband import (
    chip_level_guardband_ghz,
    core_level_advantage_fraction,
    guardband_loss_fraction,
)
from repro.analysis.mttf import (
    acceleration_factor,
    mttf_doubling_delta_k,
    relative_mttf,
)
from repro.analysis.render import render_core_map, render_dcm
from repro.analysis.report import campaign_report, metrics_report
from repro.analysis.stats import distribution_summary
from repro.analysis.tables import format_table

__all__ = [
    "acceleration_factor",
    "campaign_report",
    "chip_level_guardband_ghz",
    "core_level_advantage_fraction",
    "distribution_summary",
    "format_table",
    "guardband_loss_fraction",
    "lifetime_at_requirement",
    "lifetime_gain_years",
    "metrics_report",
    "mttf_doubling_delta_k",
    "relative_mttf",
    "render_core_map",
    "render_dcm",
]
