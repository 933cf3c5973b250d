"""The fleet campaign daemon behind ``repro serve``.

A fleet run is many campaigns arriving over time — parameter studies,
overnight sweeps, repeated what-ifs — too many jobs to hold in memory
and too long-lived to re-provision a worker pool per request.  The
daemon turns the one-shot campaign machinery into a service:

* **Spool-directory queue** — clients drop requests (campaign
  documents, :mod:`repro.sim.scenario`) into ``<root>/spool/``
  (atomically, via :func:`submit_request`); the daemon polls, runs
  each request, writes its response to
  ``<root>/results/<request_id>.json`` and retires the request file to
  ``<root>/done/``.  No sockets, no wire protocol — the filesystem is
  the API, which also makes the queue itself crash-durable.
* **Sharded supervised execution** — each request's jobs run through
  :func:`repro.sim.supervisor.run_supervised_jobs` exactly like a
  one-shot campaign (same retries, batching and results), but
  against a *persistent* :class:`~repro.sim.supervisor.WorkerPoolHost`
  keyed by the campaign digest, so back-to-back requests of the same
  configuration reuse warm workers.
* **Streaming store, running aggregates** — every completed job lands
  in the append-only :class:`~repro.sim.fleet.store.ResultStore` via
  the supervisor's ``on_result`` hook and folds into the daemon's
  :class:`~repro.sim.fleet.aggregates.FleetAggregates` immediately; the
  full :class:`~repro.sim.results.LifetimeResult` objects are dropped.
  A million-job fleet therefore holds only the store index and the
  per-group running aggregates.
* **Content-addressed result cache** — each job's identity is its
  :func:`~repro.sim.checkpoint.job_keys` key (policy name and knobs,
  chip, dark floor, canonical campaign digest, plus the MTTF
  requirement and the unit size).  A job already in the store is
  answered from it without simulating; re-submitting a completed
  request touches zero workers (``fleet.cache_hits`` counts the hits).
* **Answer memo** — stored records are immutable, so a fully cached
  request's aggregates are a pure function of its job keys.  The
  daemon keeps the keys and rendered aggregates of its last
  :data:`ANSWER_MEMO_SIZE` failure-free answers, keyed by the
  document's content digest (``request_id`` aside) and the effective
  MTTF requirement.  A repeat whose keys are all still in the store is
  answered from the memo: no re-keying, no re-fold
  (``fleet.answer_memo_hits``); its hits count exactly like a store
  answer's.
* **Crash-safe resume** — SIGKILL the daemon mid-request and restart
  it: the store's scan recovers every completed job (at most the one
  torn final record re-runs), the pending request is still in the
  spool, and the re-run answers the already-stored jobs from cache.
  A first answer (and any after a restart or a memo eviction)
  computes its aggregates by folding store records in canonical
  submission-key order — never completion order; a memo answer
  repeats those bytes.  The re-run simulates only the missing jobs,
  in smaller batches, so a resumed request's ``aggregates`` equal an
  uninterrupted run's bit for bit only where batching leaves results
  alone (see ``batch_size`` in :func:`repro.sim.campaign.run_campaign`).

Responses deliberately carry no timestamps (timing lives in
``status.json``): only the execution stats (``cache_hits``,
``simulated``) distinguish two runs of the same request, and the
scientific payload is byte-equal.  ``status.json`` also describes the
last request answered: its counts, where its answer came from
(``memo``, ``store`` or ``simulated``) and its wall time.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict

from repro.aging.tables import default_aging_table
from repro.obs import get_registry
from repro.sim.campaign import build_shared
from repro.sim.checkpoint import campaign_digest, job_keys
from repro.sim.fleet.aggregates import FleetAggregates, aggregate_store
from repro.sim.fleet.store import ResultStore, ShortBlockError
from repro.sim.scenario import Scenario, load_scenario, request_digest
from repro.sim.supervisor import (
    CampaignJobError,
    WorkerPoolHost,
    run_supervised_jobs,
)
from repro.variation.population import generate_population

_SPOOL = "spool"
_RESULTS = "results"
_DONE = "done"
_STORE = "store"
_STATUS = "status.json"

#: Answered requests the daemon remembers, least recently used evicted
#: first; an evicted request is answered from the store again.
ANSWER_MEMO_SIZE = 128


def _atomic_write_json(path: str, payload: dict) -> None:
    """Publish ``payload`` at ``path`` atomically (tmp + rename).

    One compact line: ``json.dumps`` without ``indent`` runs the C
    encoder, where ``indent`` falls back to the pure-Python one.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def submit_request(root: str, data: dict) -> str:
    """Drop one request into the fleet spool; returns its request id.

    The write is atomic (tmp + rename in the same directory), so the
    daemon can never observe a half-written request.
    """
    request = Scenario.from_dict(data)  # validate before queueing
    spool = os.path.join(os.fspath(root), _SPOOL)
    os.makedirs(spool, exist_ok=True)
    payload = dict(data)
    payload["request_id"] = request.request_id
    _atomic_write_json(
        os.path.join(spool, f"{request.request_id}.json"), payload
    )
    return request.request_id


def fleet_status(root: str) -> dict:
    """The fleet's queryable status, daemon running or not.

    Prefers the daemon's ``status.json`` (atomic snapshots, includes
    live queue depth and throughput); with no status file yet, falls
    back to scanning the store so ``--status`` works on a cold fleet
    directory.
    """
    root = os.fspath(root)
    status_path = os.path.join(root, _STATUS)
    if os.path.exists(status_path):
        with open(status_path, encoding="utf-8") as handle:
            return json.load(handle)
    store_dir = os.path.join(root, _STORE)
    spool = os.path.join(root, _SPOOL)
    queued = (
        len([n for n in os.listdir(spool) if n.endswith(".json")])
        if os.path.isdir(spool)
        else 0
    )
    if not os.path.isdir(store_dir):
        return {"jobs_stored": 0, "queue_depth": queued, "aggregates": None}
    with ResultStore(store_dir) as store:
        aggregates = aggregate_store(store, skip_short_blocks=True)
        return {
            "jobs_stored": len(store),
            "queue_depth": queued,
            "store_bytes": store.bytes_on_disk(),
            "aggregates": aggregates.to_dict(),
        }


class FleetDaemon:
    """The ``repro serve`` engine: spool in, store + responses out.

    One instance owns the fleet directory: the request spool, the
    result store (opened once; its scan doubles as crash recovery), the
    running aggregates (rebuilt from the store at startup, folded
    incrementally afterwards — the two paths produce identical state),
    and the persistent worker pool.  ``workers=1`` runs jobs on the
    supervisor's in-process host; higher counts provision a spawn pool
    per campaign digest and keep it warm across requests.  A request
    that fails validation, or whose job exhausts its retries without
    ``allow_partial``, is answered with an ``{"error": ...}`` response
    naming the cause, retired to ``done/`` and counted in
    ``requests_failed``; the daemon keeps serving.
    """

    def __init__(
        self,
        root: str,
        *,
        workers: int = 1,
        poll_s: float = 0.2,
        requirement_ghz: float | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.root = os.fspath(root)
        self.workers = int(workers)
        self.poll_s = float(poll_s)
        #: When set, overrides every request's ``requirement_ghz`` —
        #: useful to pin one MTTF requirement fleet-wide.
        self.requirement_ghz = requirement_ghz
        for name in (_SPOOL, _RESULTS, _DONE):
            os.makedirs(os.path.join(self.root, name), exist_ok=True)
        self.store = ResultStore(os.path.join(self.root, _STORE))
        # One short block must not keep the daemon from starting: its
        # record is left out of the running aggregates, and a request
        # that needs it is answered with the error.
        self.aggregates: FleetAggregates = aggregate_store(
            self.store, skip_short_blocks=True
        )
        self.pool_host = (
            WorkerPoolHost(self.workers) if self.workers > 1 else None
        )
        self.requests_done = 0
        self.requests_failed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.jobs_failed = 0
        self._jobs_executed = 0
        self._busy_s = 0.0
        self._stop = False
        self._table = None
        self._populations: dict[tuple[int, int], object] = {}
        #: ``self.aggregates.to_dict()``, rendered once per fold state.
        self._status_aggregates: dict | None = None
        #: ``(request digest, requirement) -> (job keys, aggregates)``
        #: of failure-free answers, least recently used first.
        self._answers: OrderedDict = OrderedDict()
        #: The last request answered without error, for ``status.json``.
        self.last_request: dict | None = None
        self._write_status()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the serve loop to exit after the current request."""
        self._stop = True

    def close(self) -> None:
        """Release the pool and every store handle."""
        if self.pool_host is not None:
            self.pool_host.close()
        self.store.close()

    def __enter__(self) -> "FleetDaemon":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def serve(
        self,
        *,
        drain: bool = False,
        max_requests: int | None = None,
        progress=None,
    ) -> int:
        """Poll the spool until stopped; returns requests processed.

        ``drain=True`` exits once the spool is empty (batch shape);
        ``max_requests`` caps the total (test shape); otherwise the
        loop runs until :meth:`stop` or the process dies.
        """
        processed = 0
        while not self._stop:
            handled = self.process_once(progress=progress)
            processed += handled
            if max_requests is not None and processed >= max_requests:
                break
            if handled == 0:
                if drain:
                    break
                time.sleep(self.poll_s)
        return processed

    # ------------------------------------------------------------------
    # queue
    # ------------------------------------------------------------------
    def _queued(self) -> list[str]:
        spool = os.path.join(self.root, _SPOOL)
        return sorted(
            name for name in os.listdir(spool) if name.endswith(".json")
        )

    def process_once(self, progress=None) -> int:
        """Handle every request currently queued; returns the count."""
        handled = 0
        for name in self._queued():
            if self._stop:
                break
            path = os.path.join(self.root, _SPOOL, name)
            request_id = os.path.splitext(name)[0]
            received = time.monotonic()
            answered_from = None
            # A bad or failing request is answered and retired like any
            # other, so it can neither stop the serve loop nor stay in
            # the spool to fail again on every restart.
            try:
                document = load_scenario(path)
                request = Scenario.from_dict(document)
            except (ValueError, OSError) as error:
                response = {"error": f"{type(error).__name__}: {error}"}
            else:
                request_id = request.request_id
                started = time.monotonic()
                try:
                    response, answered_from = self._run_request(
                        request, request_digest(document), progress=progress
                    )
                except (CampaignJobError, ShortBlockError) as error:
                    response = {"error": f"{type(error).__name__}: {error}"}
                self._busy_s += time.monotonic() - started
            if "error" in response:
                self.requests_failed += 1
            else:
                self.requests_done += 1
            self._respond(request_id, response)
            self._retire(path, name)
            if "error" not in response:
                self.last_request = {
                    "request_id": request_id,
                    "jobs": response["jobs"],
                    "cache_hits": response["cache_hits"],
                    "simulated": response["simulated"],
                    "answered_from": answered_from,
                    "ms": round(1e3 * (time.monotonic() - received), 3),
                }
            handled += 1
            self._write_status()
        if handled == 0:
            self._write_status()
        return handled

    def _retire(self, path: str, name: str) -> None:
        os.replace(path, os.path.join(self.root, _DONE, name))

    def _respond(self, request_id: str, payload: dict) -> None:
        _atomic_write_json(
            os.path.join(self.root, _RESULTS, f"{request_id}.json"), payload
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _population(self, chips: int, seed: int):
        key = (chips, seed)
        if key not in self._populations:
            self._populations[key] = generate_population(chips, seed=seed)
        return self._populations[key]

    def _count_jobs(self, hits: int, misses: int, failed: int) -> None:
        registry = get_registry()
        registry.inc("fleet.cache_hits", hits)
        registry.inc("fleet.cache_misses", misses)
        self.cache_hits += hits
        self.cache_misses += misses
        self.jobs_failed += failed

    def _run_request(
        self, request: Scenario, document_digest: str, progress=None
    ) -> tuple[dict, str]:
        """Answer one request; returns the response and where it came
        from (``memo``, ``store`` or ``simulated``).

        A repeat of a remembered failure-free answer whose job keys are
        all still stored is answered from the memo.  Otherwise the
        request is sharded per floor, cache-checked, simulated and
        folded: jobs are keyed before anything runs; keys already in
        the store are cache hits and never dispatch.  The response's
        aggregates fold the stored records in this canonical key order,
        so two runs of the same request — including an interrupted-
        then-resumed one — report byte-identical aggregates.
        """
        requirement = (
            self.requirement_ghz
            if self.requirement_ghz is not None
            else request.requirement_ghz
        )
        memo_key = (document_digest, requirement)
        answer = self._answers.get(memo_key)
        if answer is not None and all(key in self.store for key in answer[0]):
            self._answers.move_to_end(memo_key)
            keys, aggregates = answer
            get_registry().inc("fleet.answer_memo_hits")
            self._count_jobs(len(keys), 0, 0)
            response = self._response(
                request, len(keys), 0, [], requirement, aggregates
            )
            return response, "memo"

        if self._table is None:
            self._table = default_aging_table()
        population = self._population(request.chips, request.population_seed)
        jobs = [(policy, chip) for policy in request.policies for chip in population]

        all_keys: list[str] = []
        failures: list = []
        hits = misses = 0
        try:
            for config in request.configs:
                digest = campaign_digest(config, population, self._table)
                # The MTTF requirement shapes the stored scalars and the
                # unit size can shape a chip's result, so a request that
                # differs in either must miss the cache, not read stale
                # records.
                cache_digest = f"{digest}:r{requirement!r}:b{request.batch_size}"
                keys = job_keys(jobs, config.dark_fraction_min, cache_digest)
                all_keys.extend(keys)
                floor_jobs = [
                    (key, job)
                    for key, job in zip(keys, jobs)
                    if key not in self.store
                ]
                hits += len(jobs) - len(floor_jobs)
                misses += len(floor_jobs)
                if not floor_jobs:
                    continue
                failures.extend(
                    self._run_floor(
                        config, floor_jobs, request, population, digest,
                        requirement, progress,
                    )
                )
        except CampaignJobError as error:
            failures.append(error.failure)
            raise
        finally:
            # Also counted when a fail-fast job aborts the request.
            self._count_jobs(hits, misses, len(failures))

        aggregates = aggregate_store(self.store, keys=all_keys).to_dict(
            baseline=request.baseline
        )
        if not failures:
            self._answers[memo_key] = (tuple(all_keys), aggregates)
            if len(self._answers) > ANSWER_MEMO_SIZE:
                self._answers.popitem(last=False)
        response = self._response(
            request, hits, misses, failures, requirement, aggregates
        )
        return response, "simulated" if misses else "store"

    @staticmethod
    def _response(
        request: Scenario, hits, misses, failures, requirement, aggregates
    ) -> dict:
        return {
            "request_id": request.request_id,
            "jobs": request.job_count,
            "cache_hits": hits,
            "simulated": misses,
            "failures": [
                {
                    "policy": f.policy_name,
                    "chip": f.chip_id,
                    "dark": f.dark_fraction_min,
                    "kind": f.kind,
                    "message": f.message,
                    "attempts": f.attempts,
                }
                for f in failures
            ],
            "requirement_ghz": requirement,
            "aggregates": aggregates,
        }

    def _run_floor(
        self, config, floor_jobs, request, population, digest, requirement,
        progress,
    ) -> list:
        """Simulate one dark floor's uncached jobs, streaming to store."""
        keys = [key for key, _ in floor_jobs]
        jobs = [job for _, job in floor_jobs]
        shared = build_shared(
            config, self._table, population, isolate_metrics=True
        )
        if self.pool_host is not None:
            self.pool_host.ensure(shared, signature=digest)

        def on_result(index, job, result) -> None:
            record = self.store.append(
                keys[index], result, requirement_ghz=requirement
            )
            # Fold the exact appended record (same JSON round-trip as a
            # store re-read), keeping incremental aggregates equal to a
            # from-disk rebuild.
            self.aggregates.fold_record(
                json.loads(json.dumps(record)),
                self.store.block(record, "final_health"),
            )
            self._status_aggregates = None
            self._jobs_executed += 1

        _, failures = run_supervised_jobs(
            jobs,
            shared,
            config=config,
            workers=self.workers,
            retries=request.retries,
            allow_partial=request.allow_partial,
            progress=progress,
            batch_size=request.batch_size,
            pool_host=self.pool_host,
            on_result=on_result,
        )
        # Failed (empty-lifetime) slots are not stored: their keys stay
        # absent so a retry request re-simulates them.
        return failures

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def _write_status(self) -> None:
        """Publish ``status.json``; the aggregates are re-rendered only
        after a fold (a cached request folds nothing)."""
        registry = get_registry()
        if self._status_aggregates is None:
            self._status_aggregates = self.aggregates.to_dict()
        queued = len(self._queued())
        rate = self._jobs_executed / self._busy_s if self._busy_s > 0 else 0.0
        registry.gauge("fleet.queue_depth", queued)
        registry.gauge("fleet.jobs_per_s", rate)
        _atomic_write_json(
            os.path.join(self.root, _STATUS),
            {
                "queue_depth": queued,
                "jobs_stored": len(self.store),
                "store_bytes": self.store.bytes_on_disk(),
                "requests_done": self.requests_done,
                "requests_failed": self.requests_failed,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "jobs_failed": self.jobs_failed,
                "jobs_per_s": rate,
                "workers": self.workers,
                "aggregates": self._status_aggregates,
                "last_request": self.last_request,
            },
        )

