"""Persisting lifetime results: JSON round-trip and CSV summaries.

Campaign runs are minutes of compute; exporting lets analyses (plots,
notebooks, regression baselines) run without re-simulation.  JSON holds
the full per-epoch record; CSV holds the flat per-epoch summary table.
JSONL traces of the engine's own telemetry are written by
:func:`repro.obs.write_trace_jsonl`.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable

import numpy as np

from repro.sim.results import EpochRecord, LifetimeResult


def result_to_dict(result: LifetimeResult) -> dict:
    """Lossless dictionary form of a lifetime result."""
    return {
        "chip_id": result.chip_id,
        "policy_name": result.policy_name,
        "dark_fraction_min": result.dark_fraction_min,
        "fmax_init_ghz": result.fmax_init_ghz.tolist(),
        "epochs": [
            {
                "epoch_index": e.epoch_index,
                "start_years": e.start_years,
                "length_years": e.length_years,
                "mix_description": e.mix_description,
                "dcm_on": np.asarray(e.dcm_on).astype(bool).tolist(),
                "worst_temps_k": np.asarray(e.worst_temps_k).tolist(),
                "avg_temp_k": e.avg_temp_k,
                "peak_temp_k": e.peak_temp_k,
                "dtm_migrations": e.dtm_migrations,
                "dtm_throttles": e.dtm_throttles,
                "duties": np.asarray(e.duties).tolist(),
                "health_after": np.asarray(e.health_after).tolist(),
                "qos_violations": e.qos_violations,
                "total_ips": e.total_ips,
                "arrivals": e.arrivals,
                "comm_weighted_hops": e.comm_weighted_hops,
                "tsafe_violation_steps": e.tsafe_violation_steps,
            }
            for e in result.epochs
        ],
    }


def result_from_dict(data: dict) -> LifetimeResult:
    """Inverse of :func:`result_to_dict`."""
    result = LifetimeResult(
        chip_id=data["chip_id"],
        policy_name=data["policy_name"],
        dark_fraction_min=data["dark_fraction_min"],
        fmax_init_ghz=np.asarray(data["fmax_init_ghz"], dtype=float),
    )
    for e in data["epochs"]:
        result.epochs.append(
            EpochRecord(
                epoch_index=e["epoch_index"],
                start_years=e["start_years"],
                length_years=e.get("length_years", 0.5),
                mix_description=e["mix_description"],
                dcm_on=np.asarray(e["dcm_on"], dtype=bool),
                worst_temps_k=np.asarray(e["worst_temps_k"], dtype=float),
                avg_temp_k=e["avg_temp_k"],
                peak_temp_k=e["peak_temp_k"],
                dtm_migrations=e["dtm_migrations"],
                dtm_throttles=e["dtm_throttles"],
                duties=np.asarray(e["duties"], dtype=float),
                health_after=np.asarray(e["health_after"], dtype=float),
                qos_violations=e["qos_violations"],
                total_ips=e["total_ips"],
                arrivals=e.get("arrivals", 0),
                comm_weighted_hops=e.get("comm_weighted_hops", 0.0),
                tsafe_violation_steps=e.get("tsafe_violation_steps", 0),
            )
        )
    return result


def save_results_json(results: Iterable[LifetimeResult], path: str) -> None:
    """Write lifetime results to a JSON file."""
    payload = [result_to_dict(r) for r in results]
    with open(path, "w") as handle:
        json.dump(payload, handle)


def load_results_json(path: str) -> list[LifetimeResult]:
    """Read lifetime results written by :func:`save_results_json`."""
    with open(path) as handle:
        payload = json.load(handle)
    return [result_from_dict(d) for d in payload]


#: Columns of the per-epoch CSV summary.
CSV_FIELDS = [
    "chip_id",
    "policy",
    "dark_fraction_min",
    "epoch",
    "start_years",
    "avg_temp_k",
    "peak_temp_k",
    "dtm_migrations",
    "dtm_throttles",
    "qos_violations",
    "arrivals",
    "mean_health",
    "min_health",
    "chip_fmax_ghz",
    "avg_fmax_ghz",
    "total_ips",
    "comm_weighted_hops",
]


def save_summary_csv(results: Iterable[LifetimeResult], path: str) -> None:
    """Write a flat per-epoch summary table."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for result in results:
            fmax_traj = result.fmax_trajectory_ghz()
            for i, epoch in enumerate(result.epochs):
                writer.writerow(
                    {
                        "chip_id": result.chip_id,
                        "policy": result.policy_name,
                        "dark_fraction_min": result.dark_fraction_min,
                        "epoch": epoch.epoch_index,
                        "start_years": epoch.start_years,
                        "avg_temp_k": f"{epoch.avg_temp_k:.3f}",
                        "peak_temp_k": f"{epoch.peak_temp_k:.3f}",
                        "dtm_migrations": epoch.dtm_migrations,
                        "dtm_throttles": epoch.dtm_throttles,
                        "qos_violations": epoch.qos_violations,
                        "arrivals": epoch.arrivals,
                        "mean_health": f"{epoch.health_after.mean():.6f}",
                        "min_health": f"{epoch.health_after.min():.6f}",
                        "chip_fmax_ghz": f"{fmax_traj[i].max():.4f}",
                        "avg_fmax_ghz": f"{fmax_traj[i].mean():.4f}",
                        "total_ips": f"{epoch.total_ips:.0f}",
                        "comm_weighted_hops": f"{epoch.comm_weighted_hops:.3f}",
                    }
                )
