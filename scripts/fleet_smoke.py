#!/usr/bin/env python
"""Fleet-service smoke: serve, kill, resume, verify — plus memory note.

Exercises the `repro serve` acceptance path end to end against a
temporary fleet directory:

1. run a reference request to completion in-process,
2. spawn the CLI daemon on a fresh fleet, SIGKILL it mid-request,
3. restart and drain, then assert the resumed response's aggregates
   are byte-identical to the reference and that a re-submission is
   answered entirely from the content-addressed store, and that the
   daemon's ``status.json`` aggregates equal a rebuild from the store
   on disk; a second re-submission must come from the daemon's answer
   memo, with aggregates equal to a from-disk rebuild of its keys,
4. append a synthetic 1000-job block to the store and report the
   peak RSS alongside the store's on-disk size — the O(aggregate)
   memory evidence (results live on disk; the daemon keeps an index
   and running aggregates only).

Exit code 0 means every check passed.  Intended for the non-blocking
CI smoke job; runs fine on 1-core hosts (the daemon's serial backend).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.sim.fleet import (  # noqa: E402
    FleetDaemon,
    ResultStore,
    aggregate_store,
    submit_request,
)

#: Hayat runs with a knob, so the kill-and-resume and re-submission
#: checks cover the policy-knob part of every job's cache key.
REQUEST = {
    "policies": ["vaa", {"type": "hayat", "comm_weight": 2.0}],
    "chips": 3,
    "dark_fractions": [0.5],
    "years": 1.0,
    "config": {"epoch_years": 0.5, "window_s": 5.0},
    "seed": 3,
    "baseline": "vaa",
}


def run_reference(base: str) -> tuple[str, dict]:
    root = os.path.join(base, "reference")
    with FleetDaemon(root) as daemon:
        request_id = submit_request(root, REQUEST)
        daemon.serve(drain=True)
    with open(os.path.join(root, "results", f"{request_id}.json")) as handle:
        return request_id, json.load(handle)


def kill_and_resume(
    base: str, request_id: str
) -> tuple[dict, dict, bool, str, bool]:
    root = os.path.join(base, "fleet")
    submit_request(root, REQUEST)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--fleet-dir", root, "--drain", "--quiet"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    scalars = os.path.join(root, "store", "scalars.jsonl")
    deadline = time.monotonic() + 300.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        if os.path.exists(scalars) and os.path.getsize(scalars) > 0:
            break
        time.sleep(0.05)
    killed = proc.poll() is None
    if killed:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    print(f"daemon {'killed mid-request' if killed else 'finished before kill'}")

    with FleetDaemon(root) as daemon:
        daemon.serve(drain=True)
    with open(os.path.join(root, "results", f"{request_id}.json")) as handle:
        resumed = json.load(handle)

    # Re-submission: answered entirely from the store, then repeated
    # from the memo.
    with FleetDaemon(root) as daemon:
        submit_request(root, REQUEST)
        daemon.serve(drain=True)
        with open(os.path.join(root, "results", f"{request_id}.json")) as handle:
            cached = json.load(handle)
        submit_request(root, REQUEST)
        daemon.serve(drain=True)
        answered_from = daemon.last_request["answered_from"]
        ((keys, _),) = daemon._answers.values()
    with open(os.path.join(root, "results", f"{request_id}.json")) as handle:
        repeat = json.load(handle)
    with ResultStore(os.path.join(root, "store")) as store:
        rebuilt = aggregate_store(store, keys).to_dict(
            baseline=REQUEST["baseline"]
        )
    memo_ok = json.dumps(repeat["aggregates"], sort_keys=True) == json.dumps(
        rebuilt, sort_keys=True
    )
    return resumed, cached, status_matches_store(root), answered_from, memo_ok


def status_matches_store(root: str) -> bool:
    """Whether ``status.json``'s aggregates equal a from-disk rebuild."""
    with open(os.path.join(root, "status.json")) as handle:
        status = json.load(handle)["aggregates"]
    with ResultStore(os.path.join(root, "store")) as store:
        rebuilt = aggregate_store(store).to_dict()
    return json.dumps(status, sort_keys=True) == json.dumps(
        rebuilt, sort_keys=True
    )


def store_memory_note(base: str) -> dict:
    """Append 1000 synthetic jobs; report RSS growth vs store size."""
    from repro.sim import run_campaign, SimulationConfig
    from repro.core import HayatManager

    campaign = run_campaign(
        [HayatManager()],
        num_chips=1,
        config=SimulationConfig(
            lifetime_years=0.5, epoch_years=0.5, window_s=3.0, seed=3
        ),
    )
    result = campaign.results["hayat"][0]
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with ResultStore(os.path.join(base, "bigstore")) as store:
        for index in range(1000):
            store.append(f"job-{index}", result, requirement_ghz=1.0)
        note = {
            "jobs": len(store),
            "store_bytes": store.bytes_on_disk(),
            "rss_growth_kib": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss - rss_before,
        }
    return note


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as base:
        request_id, reference = run_reference(base)
        resumed, cached, status_ok, answered_from, memo_ok = kill_and_resume(
            base, request_id
        )
        if json.dumps(resumed["aggregates"], sort_keys=True) != json.dumps(
            reference["aggregates"], sort_keys=True
        ):
            failures.append("resumed aggregates differ from reference")
        if cached["cache_hits"] != cached["jobs"] or cached["simulated"] != 0:
            failures.append(
                f"re-submission not fully cached: {cached['cache_hits']} hits "
                f"of {cached['jobs']} jobs, {cached['simulated']} simulated"
            )
        if not status_ok:
            failures.append("status.json aggregates differ from the store")
        if answered_from != "memo":
            failures.append(f"second re-submission answered from {answered_from}")
        if not memo_ok:
            failures.append("memo aggregates differ from a store rebuild")
        note = store_memory_note(base)
        print(f"resume: aggregates byte-identical over {resumed['jobs']} jobs")
        print(
            f"cache: {cached['cache_hits']}/{cached['jobs']} hits on re-submission"
        )
        print(f"status: aggregates {'match' if status_ok else 'differ from'} the store")
        print(
            f"memo: repeat answered from {answered_from}, aggregates "
            f"{'match' if memo_ok else 'differ from'} a store rebuild"
        )
        print(
            f"memory: {note['jobs']} stored jobs -> "
            f"{note['store_bytes']} bytes on disk, "
            f"+{note['rss_growth_kib']} KiB peak RSS in the writer"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    print("fleet smoke:", "FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
