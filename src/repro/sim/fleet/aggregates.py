"""Running aggregates over fleet result records.

Everything here folds one record at a time and keeps O(1) state per
(policy, dark-floor) group — the whole point of the fleet store is that
a million-job campaign never materialises a million results, so the
aggregates must be streaming: a :class:`RunningStat` per scalar metric,
a fixed-range :class:`Histogram` for health-map percentiles, and plain
counters for dead cores and job totals.

Two construction paths produce *identical* numbers for identical jobs:

* :func:`aggregate_store` folds the records of a
  :class:`~repro.sim.fleet.store.ResultStore` (the daemon uses this
  both incrementally, record by record as jobs finish, and wholesale on
  restart to rebuild state from disk), and
* :func:`aggregate_campaign` folds an in-memory
  :class:`~repro.sim.campaign.CampaignResult` through the same
  per-record code path (via
  :func:`repro.sim.fleet.store.result_scalars`), so one-shot runs can
  report fleet-style summaries without a store on disk.

Fold order does not affect the reported values beyond float rounding in
the running means; the daemon nevertheless folds in canonical
(submission-key) order when answering a request so repeated and resumed
runs are *bit*-identical, not merely close.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from repro.obs import get_registry
from repro.sim.fleet.store import ShortBlockError

#: Health is a [0, 1] degradation factor; a core at or below this is
#: counted "dead" for fleet reporting (half its initial fmax).
DEAD_HEALTH = 0.5

#: Percentiles reported for health maps and MTTF distributions.
PERCENTILES = (5.0, 25.0, 50.0, 75.0, 95.0)


class RunningStat:
    """Streaming count/mean/min/max/stddev (Welford's algorithm)."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float | None) -> None:
        """Fold one sample; ``None``/non-finite samples are skipped."""
        if value is None:
            return
        value = float(value)
        if not math.isfinite(value):
            return
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))

    def to_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.min,
            "max": self.max,
        }


class Histogram:
    """Fixed-range streaming histogram with interpolated percentiles.

    ``bins`` equal-width buckets across ``[lo, hi]``; samples outside
    the range clamp to the edge buckets.  Percentiles interpolate
    linearly within the owning bucket, which is exact to one bucket
    width — plenty for health maps (``[0, 1]``, 256 buckets ≈ 0.004
    resolution) while costing a fixed ~2 KiB however many samples fold
    in.
    """

    __slots__ = ("lo", "hi", "counts", "total")

    def __init__(self, lo: float, hi: float, bins: int = 256) -> None:
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.counts = np.zeros(int(bins), dtype=np.int64)
        self.total = 0

    def add(self, value: float | None) -> None:
        if value is None:
            return
        value = float(value)
        if not math.isfinite(value):
            return
        span = self.hi - self.lo
        index = int((value - self.lo) / span * len(self.counts))
        index = min(max(index, 0), len(self.counts) - 1)
        self.counts[index] += 1
        self.total += 1

    def add_array(self, values: np.ndarray) -> None:
        """Fold every finite sample of a ``float64`` array."""
        values = values[np.isfinite(values)]
        if values.size == 0:
            return
        bins = len(self.counts)
        scaled = values - self.lo
        scaled /= self.hi - self.lo
        scaled *= bins
        indices = scaled.astype(int)
        np.maximum(indices, 0, out=indices)
        np.minimum(indices, bins - 1, out=indices)
        self.counts += np.bincount(indices, minlength=bins)
        self.total += values.size

    def percentile(self, q: float) -> float | None:
        """The ``q``-th percentile, or ``None`` on an empty histogram."""
        return self.percentiles((q,))[0]

    def percentiles(self, qs) -> list[float | None]:
        """The ``q``-th percentile for every ``q`` in ``qs``.

        One cumulative sum and one ``searchsorted`` serve them all.  The
        owning bin is the first whose cumulative count reaches the
        target *and* holds a sample; cumulative counts are integers, so
        reaching ``max(target, 1)`` says both at once.  The
        interpolation runs on Python scalars: the same IEEE operations
        as on numpy scalars, without their dispatch cost.
        """
        if self.total == 0:
            return [None] * len(qs)
        bins = len(self.counts)
        width = (self.hi - self.lo) / bins
        targets = [q / 100.0 * self.total for q in qs]
        cumulative = self.counts.cumsum()
        indices = cumulative.searchsorted(
            [max(target, 1) for target in targets], side="left"
        ).tolist()
        out = []
        for target, index in zip(targets, indices):
            if index == bins:
                out.append(self.hi)
                continue
            count = int(self.counts[index])
            within = (target - (int(cumulative[index]) - count)) / count
            out.append(self.lo + (index + within) * width)
        return out

    def to_dict(self) -> dict:
        return {
            "count": self.total,
            "percentiles": {
                f"p{q:g}": value
                for q, value in zip(PERCENTILES, self.percentiles(PERCENTILES))
            },
        }


class GroupAggregates:
    """Running aggregates for one (policy, dark-floor) fleet group."""

    def __init__(self) -> None:
        self.jobs = 0
        self.cores = 0
        self.dead_cores = 0
        self.dtm_events = RunningStat()
        self.dtm_migrations = RunningStat()
        self.qos_violations = RunningStat()
        self.temp_rise_k = RunningStat()
        self.chip_aging_rate = RunningStat()
        self.avg_aging_rate = RunningStat()
        self.mttf_years = Histogram(0.0, 50.0, bins=500)
        self.final_health = Histogram(0.0, 1.0, bins=256)

    def fold(self, scalars: dict, final_health: np.ndarray) -> None:
        """Fold one job's scalar record plus its final health map."""
        self.jobs += 1
        self.dtm_events.add(scalars.get("dtm_events"))
        self.dtm_migrations.add(scalars.get("dtm_migrations"))
        self.qos_violations.add(scalars.get("qos_violations"))
        self.temp_rise_k.add(scalars.get("temp_rise_k"))
        self.chip_aging_rate.add(scalars.get("chip_aging_rate"))
        self.avg_aging_rate.add(scalars.get("avg_aging_rate"))
        self.mttf_years.add(scalars.get("mttf_years"))
        health = final_health.astype(np.float64)
        self.cores += health.size
        self.dead_cores += int(np.count_nonzero(health <= DEAD_HEALTH))
        self.final_health.add_array(health)

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "cores": self.cores,
            "dead_cores": self.dead_cores,
            "dtm_events": self.dtm_events.to_dict(),
            "dtm_migrations": self.dtm_migrations.to_dict(),
            "qos_violations": self.qos_violations.to_dict(),
            "temp_rise_k": self.temp_rise_k.to_dict(),
            "chip_aging_rate": self.chip_aging_rate.to_dict(),
            "avg_aging_rate": self.avg_aging_rate.to_dict(),
            "mttf_years": self.mttf_years.to_dict(),
            "final_health": self.final_health.to_dict(),
        }


class FleetAggregates:
    """All fleet groups plus totals; the queryable fleet summary."""

    def __init__(self) -> None:
        self.groups: dict[tuple[str, float], GroupAggregates] = {}
        self.jobs = 0

    def fold(self, scalars: dict, final_health: np.ndarray) -> None:
        key = (str(scalars["policy"]), float(scalars["dark"]))
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = GroupAggregates()
        group.fold(scalars, final_health)
        self.jobs += 1

    def fold_record(self, record: dict, final_health: np.ndarray) -> None:
        """Fold one store record dict (its ``scalars`` sub-dict)."""
        self.fold(record["scalars"], final_health)

    def normalized(self, baseline: str) -> dict:
        """Per-policy metrics normalized to ``baseline`` at each floor.

        Mirrors :class:`~repro.sim.campaign.CampaignResult`'s guards:
        a floor whose baseline recorded no DTM events reports ``None``
        for the DTM ratio rather than dividing by zero, and a missing
        baseline group raises :class:`ValueError` naming the floor.
        """
        floors = sorted({dark for (_, dark) in self.groups})
        policies = sorted({policy for (policy, _) in self.groups})
        if baseline not in policies:
            raise ValueError(
                f"baseline policy {baseline!r} has no recorded jobs; "
                f"recorded policies: {policies}"
            )
        out: dict[str, dict] = {}
        for policy in policies:
            if policy == baseline:
                continue
            rows = {}
            for dark in floors:
                base = self.groups.get((baseline, dark))
                other = self.groups.get((policy, dark))
                if base is None or other is None:
                    continue
                rows[dark] = {
                    "dtm": _ratio(
                        other.dtm_events.mean,
                        base.dtm_events.mean,
                        defined=base.dtm_events.count > 0
                        and base.dtm_events.mean > 0,
                    ),
                    "temp": _ratio(
                        other.temp_rise_k.mean,
                        base.temp_rise_k.mean,
                        defined=base.temp_rise_k.count > 0
                        and base.temp_rise_k.mean != 0,
                    ),
                    "chip_aging": _ratio(
                        other.chip_aging_rate.mean,
                        base.chip_aging_rate.mean,
                        defined=base.chip_aging_rate.count > 0
                        and base.chip_aging_rate.mean != 0,
                    ),
                    "avg_aging": _ratio(
                        other.avg_aging_rate.mean,
                        base.avg_aging_rate.mean,
                        defined=base.avg_aging_rate.count > 0
                        and base.avg_aging_rate.mean != 0,
                    ),
                }
            out[policy] = rows
        return out

    def to_dict(self, baseline: str | None = None) -> dict:
        data = {
            "jobs": self.jobs,
            "groups": {
                f"{policy}|{dark:g}": group.to_dict()
                for (policy, dark), group in sorted(self.groups.items())
            },
        }
        if baseline is not None and any(
            policy == baseline for (policy, _) in self.groups
        ):
            data["normalized"] = {
                policy: {f"{dark:g}": row for dark, row in rows.items()}
                for policy, rows in self.normalized(baseline).items()
            }
        return data


def _ratio(num: float, den: float, *, defined: bool) -> float | None:
    return num / den if defined else None


def aggregate_store(store, keys=None, *, skip_short_blocks=False) -> FleetAggregates:
    """Fold store records into fresh aggregates.

    With ``keys`` (an iterable of job keys) the fold visits exactly
    those records in the given order — the daemon passes the request's
    canonical submission order here so the response is bit-identical
    however job completion interleaved.  Without ``keys`` every indexed
    record folds in index order.

    A record whose block is short raises
    :class:`~repro.sim.fleet.store.ShortBlockError`; with
    ``skip_short_blocks`` it is left out of the fold instead, counted in
    the ``fleet.short_block_records`` obs counter and reported with a
    :class:`RuntimeWarning` naming the blocks file, as
    :func:`~repro.sim.checkpoint.scan_jsonl` does for corrupt lines.
    """
    aggregates = FleetAggregates()
    if keys is None:
        keys = store.keys()
    for key in keys:
        record = store.record(key)
        if record is None:
            continue
        try:
            health = store.block(record, "final_health")
        except ShortBlockError as error:
            if not skip_short_blocks:
                raise
            get_registry().inc("fleet.short_block_records")
            warnings.warn(
                f"{error}; leaving job {key} out of the fold (the blocks "
                "file was truncated or replaced after it was written)",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        aggregates.fold_record(record, health)
    return aggregates


def aggregate_campaign(campaign, *, requirement_ghz: float = 1.0) -> FleetAggregates:
    """Fleet-style aggregates for an in-memory campaign result.

    Routes each result through the same
    :func:`~repro.sim.fleet.store.result_scalars` /
    :func:`~repro.sim.fleet.store.result_blocks` extraction (including
    a JSON round-trip of the scalars) as the store path, so the numbers
    match a store-backed fleet bit for bit.
    """
    import json

    from repro.sim.fleet.store import result_blocks, result_scalars

    aggregates = FleetAggregates()
    for results in campaign.results.values():
        for result in results:
            scalars = json.loads(
                json.dumps(
                    result_scalars(result, requirement_ghz=requirement_ghz)
                )
            )
            blocks = result_blocks(result)
            aggregates.fold(scalars, blocks["final_health"].astype(np.float64))
    return aggregates
