"""Shared benchmark fixtures.

The Figs. 7-11 benches all consume the same two campaigns (25 % and 50 %
minimum dark silicon, VAA vs Hayat over one chip population), built once
per session.  Campaign scale is controlled by environment variables so
the full paper-scale run stays one command away:

``REPRO_BENCH_CHIPS``
    Chips per campaign (default 10; the paper uses 25).
``REPRO_BENCH_YEARS``
    Simulated lifetime in years (default 10, as in the paper).
``REPRO_BENCH_WORKERS``
    Parallel worker processes per campaign (default 1).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import (
    HayatManager,
    SimulationConfig,
    VAAManager,
    generate_population,
    run_campaign,
)
from repro.aging.tables import default_aging_table

BENCH_CHIPS = int(os.environ.get("REPRO_BENCH_CHIPS", "10"))
BENCH_YEARS = float(os.environ.get("REPRO_BENCH_YEARS", "10"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
POPULATION_SEED = 42
WORKLOAD_SEED = 1

def bench_config(dark_fraction_min: float) -> SimulationConfig:
    """The evaluation configuration at a given dark-silicon floor."""
    return SimulationConfig(
        lifetime_years=BENCH_YEARS,
        epoch_years=0.5,
        dark_fraction_min=dark_fraction_min,
        window_s=10.0,
        control_dt_s=1.0,
        seed=WORKLOAD_SEED,
    )


@pytest.fixture(scope="session")
def table():
    return default_aging_table()


@pytest.fixture(scope="session")
def population():
    return generate_population(BENCH_CHIPS, seed=POPULATION_SEED)


def _run(dark: float, population, table):
    return run_campaign(
        [VAAManager(), HayatManager()],
        config=bench_config(dark),
        population=population,
        table=table,
        workers=BENCH_WORKERS,
    )


@pytest.fixture(scope="session")
def campaign50(population, table):
    """VAA vs Hayat at a minimum of 50 % dark silicon."""
    return _run(0.5, population, table)


@pytest.fixture(scope="session")
def campaign25(population, table):
    """VAA vs Hayat at a minimum of 25 % dark silicon."""
    return _run(0.25, population, table)
