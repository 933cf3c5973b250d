"""Fleet campaign service: daemon, columnar result store, aggregates.

Deliberately *not* re-exported from :mod:`repro.sim` — importing the
simulation package must not drag in the service layer.  Import from
here::

    from repro.sim.fleet import FleetDaemon, ResultStore, submit_request
"""

from repro.sim.fleet.aggregates import (
    FleetAggregates,
    GroupAggregates,
    Histogram,
    RunningStat,
    aggregate_campaign,
    aggregate_store,
)
from repro.sim.fleet.daemon import (
    FleetDaemon,
    fleet_status,
    submit_request,
)
from repro.sim.fleet.store import (
    ResultStore,
    ShortBlockError,
    result_blocks,
    result_scalars,
)

__all__ = [
    "FleetAggregates",
    "FleetDaemon",
    "GroupAggregates",
    "Histogram",
    "ResultStore",
    "RunningStat",
    "ShortBlockError",
    "aggregate_campaign",
    "aggregate_store",
    "fleet_status",
    "result_blocks",
    "result_scalars",
    "submit_request",
]
