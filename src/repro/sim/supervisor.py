"""Job supervision for campaigns: timeouts, retries, partial results.

A campaign is a list of independent ``(policy, chip)`` lifetimes.  The
supervisor runs that list to completion in the presence of failing,
crashing, or hanging jobs:

* **Bounded retry** — a job whose attempt raises (or whose worker dies
  or exceeds the per-job timeout) is re-attempted up to ``retries``
  times, always against the same shared campaign invariants.  Retries
  after a timeout run in a *fresh* worker: the hung pool is torn down
  and rebuilt through the same initializer that provisioned it.
* **Structured failure** — a job that exhausts its attempts becomes a
  :class:`JobFailure` record.  By default that aborts the campaign
  (:class:`CampaignJobError`); with ``allow_partial=True`` the campaign
  completes, the failed slot holds an *empty* lifetime (zero epochs,
  same chip identity, so population alignment survives), and the
  failures ride home on the result.
* **Checkpoint/resume** — with a :class:`~repro.sim.checkpoint.\
CampaignCheckpoint`, every completed job is durably recorded and a
  re-run skips recorded jobs, replaying their results and metrics
  snapshots instead of recomputing them.

Serial and pooled runs share one dispatch loop
(:func:`run_supervised_jobs`); only its *host* differs, so retry,
demotion and exhaustion are decided in one place.

With ``batch_size`` above 1, jobs sharing one (policy, floorplan) are
grouped into *units* that run through the batched population engine
(:class:`~repro.sim.batch.BatchLifetimeSimulator`).  A unit is the
retry/deadline/checkpoint dispatch grain: one attempt simulates the
whole batch, one deadline covers it, and its per-chip results are still
checkpointed under their individual job keys (the unit's metrics
snapshot rides on its last record) so a resume replays chips, not
batches.  A resumed or demoted chip re-simulates in a smaller batch,
which changes its result wherever batching does (see ``batch_size`` in
:func:`repro.sim.campaign.run_campaign`).  A unit that
exhausts its retries is *demoted* to singleton units — each granted one
final attempt — so one poisoned chip cannot sink its batchmates: the
innocents complete (and checkpoint) individually and only the true
culprit becomes a :class:`JobFailure`, with the same ``attempts``
accounting a never-batched run would report.

Failure telemetry flows through :mod:`repro.obs`:
``campaign.retries`` (re-attempts dispatched), ``campaign.job_failures``
(jobs exhausted), ``campaign.resumed_jobs`` (jobs skipped thanks to a
checkpoint), and ``campaign.jobs_executed`` (jobs actually run to
completion in *this* process — unlike ``campaign.runs`` it is never
replayed from checkpoint snapshots, so ``jobs_executed + resumed_jobs``
always equals the job count).
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass

from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.sim.batch import BatchLifetimeSimulator
from repro.sim.checkpoint import CampaignCheckpoint, job_keys
from repro.sim.context import ChipContext
from repro.sim.results import LifetimeResult
from repro.sim.simulator import LifetimeSimulator
from repro.thermal.cache import floorplan_signature, warm_thermal_cache

#: How long the dispatch loop waits on a spawn pool between scans.  Low
#: enough that dispatch latency is invisible next to a lifetime job
#: (hundreds of ms to seconds), high enough to keep the parent idle.
_POLL_INTERVAL_S = 0.02

#: Campaign-wide invariants shared by every job of the current campaign.
#: In a spawn worker :func:`_init_worker` fills it once from the pool
#: initializer (the table/config/knobs are pickled once per *worker*
#: instead of once per *job*); :func:`run_supervised_jobs` runs the
#: same initializer in-process so every host runs identical code.
_SHARED: dict = {}


def _init_worker(shared: dict) -> None:
    """Install the campaign invariants and pre-warm the thermal cache.

    Warming happens with the obs registry suppressed (see
    :func:`repro.thermal.cache.warm_thermal_cache`), so every job —
    in the parent or in any spawn worker — later sees an
    identically warm cache and records identical ``thermal.*`` counters.
    That is what keeps parallel metric aggregates bit-identical to
    serial ones even though each worker process has its own cache.
    """
    _SHARED.clear()
    _SHARED.update(shared)
    config = shared["config"]
    for floorplan in shared["warm_floorplans"]:
        warm_thermal_cache(floorplan, dt_s=config.control_dt_s)


def _run_unit(jobs):
    """Run one dispatch unit (one or many same-policy jobs); never raises.
    Module-level so it pickles for multiprocessing; the shared
    table/config/knobs come from :data:`_SHARED`, not the job tuples.

    A single job runs :class:`LifetimeSimulator` under a
    ``campaign.run`` timer, so unbatched campaigns are the pre-batching
    code path.  Several jobs build one context per chip and run
    :class:`~repro.sim.batch.BatchLifetimeSimulator` under a single
    ``campaign.batch`` timer; ``campaign.runs`` counts chips, not
    dispatches.

    Returns ``(True, list[LifetimeResult], MetricsSnapshot | None)``
    with results aligned to ``jobs``, or ``(False, "{Type}: {message}",
    None)`` when the attempt raised: one bad unit cannot poison the
    result stream, and the supervisor turns the tag into a retry, a
    demotion, or a :class:`JobFailure`.  On the in-process host
    metrics flow straight into the caller's registry and the snapshot
    is ``None``.
    A fresh per-unit registry is used instead — and its picklable
    snapshot returned for the caller to merge — in a spawn worker
    (whose process-global registry is the no-op default) and whenever
    the supervisor asked for isolated metrics
    (``_SHARED["isolate_metrics"]``): checkpointing needs the per-job
    snapshot to store, and retrying needs a failed attempt's partial
    metrics discarded rather than double-counted.  Merging the
    snapshots reproduces direct accumulation exactly, so all paths
    aggregate identically.
    """
    policy = jobs[0][0]
    table = _SHARED["table"]
    config = _SHARED["config"]
    knobs = {"dtm": _SHARED["dtm"], "mix_factory": _SHARED["mix_factory"]}
    registry = get_registry()
    fresh = _SHARED["collect"] and (
        not registry.enabled or _SHARED.get("isolate_metrics", False)
    )
    if fresh:
        registry = MetricsRegistry(trace=_SHARED["tracing"])
    if len(jobs) == 1:
        chip_id = jobs[0][1].chip_id
        span = registry.timer("campaign.run", policy=policy.name, chip=chip_id)
    else:
        span = registry.timer(
            "campaign.batch", policy=policy.name, chips=len(jobs)
        )
    try:
        with use_registry(registry), span:
            ctxs = [
                ChipContext(chip, table, dark_fraction_min=config.dark_fraction_min)
                for _, chip in jobs
            ]
            if len(ctxs) == 1:
                results = [LifetimeSimulator(config, **knobs).run(ctxs[0], policy)]
            else:
                results = BatchLifetimeSimulator(config, **knobs).run(ctxs, policy)
    except Exception as error:  # noqa: BLE001 - supervised
        return False, f"{type(error).__name__}: {error}", None
    registry.inc("campaign.runs", len(jobs))
    return True, results, (registry.snapshot() if fresh else None)


@dataclass
class JobFailure:
    """One campaign job that exhausted its retry budget."""

    policy_name: str
    chip_id: str
    dark_fraction_min: float
    #: ``"error"`` (the job raised) or ``"timeout"`` (the worker hung or
    #: died and the per-job deadline expired).
    kind: str
    #: Human-readable description of the last attempt's failure.
    message: str
    #: Total attempts made (first run + retries).
    attempts: int

    def describe(self) -> str:
        """One-line human-readable account of the failed job."""
        return (
            f"{self.policy_name}/{self.chip_id} "
            f"(dark>={self.dark_fraction_min:g}) failed after "
            f"{self.attempts} attempt(s): [{self.kind}] {self.message}"
        )


class CampaignJobError(RuntimeError):
    """A job exhausted its retries in a fail-fast campaign."""

    def __init__(self, failure: JobFailure):
        super().__init__(failure.describe())
        self.failure = failure


class WorkerPoolHost:
    """A reusable spawn pool provisioned with campaign invariants.

    A one-shot campaign builds a pool, runs, and tears it down.  A
    fleet daemon runs many campaigns back to back; rebuilding the pool
    (and re-shipping the table/config through the initializer) per
    request throws the warm workers away.  A host owns the pool
    *across* :func:`run_supervised_jobs` calls:

    * :meth:`ensure` provisions the pool for a campaign's shared
      invariants and is a no-op while the provisioning ``signature``
      (e.g. the campaign digest) is unchanged — so back-to-back
      requests of the same campaign reuse warm workers, and a request
      with different invariants transparently rebuilds.
    * :meth:`rebuild` replaces a compromised pool (the supervisor's
      timeout path) with a fresh one under the same invariants.
    * :meth:`close` tears the pool down (the daemon calls it on stop;
      an unclosed host's pool dies with the process).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._context = multiprocessing.get_context("spawn")
        self._pool = None
        self._shared: dict | None = None
        self._signature: object = None

    @property
    def pool(self):
        """The live pool (``ensure`` must have provisioned it)."""
        if self._pool is None:
            raise RuntimeError("pool host not provisioned; call ensure()")
        return self._pool

    @property
    def shared(self) -> dict | None:
        """The invariants the current pool's workers were built with."""
        return self._shared

    def ensure(self, shared: dict, signature=None) -> None:
        """Provision the pool for ``shared``; reuse it when ``signature``
        matches the live pool's (``None`` never matches: always fresh)."""
        reuse = (
            self._pool is not None
            and signature is not None
            and signature == self._signature
        )
        self._shared = shared
        if not reuse:
            self._signature = signature
            self.rebuild()

    def rebuild(self) -> None:
        """Replace a hung/compromised pool, same invariants."""
        if self._shared is None:
            raise RuntimeError("cannot rebuild before ensure()")
        self.close()
        self._pool = self._context.Pool(
            self.workers, initializer=_init_worker, initargs=(self._shared,)
        )

    def close(self) -> None:
        """Tear the pool down (the next ensure() builds a fresh one)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


def empty_lifetime(policy, chip, config) -> LifetimeResult:
    """The degraded stand-in for a failed job: zero epochs, same chip.

    Keeps ``CampaignResult`` population alignment (list positions still
    map chip-for-chip across policies); every aggregation method
    recognizes the empty shape and skips it.
    """
    return LifetimeResult(
        chip_id=chip.chip_id,
        policy_name=policy.name,
        dark_fraction_min=config.dark_fraction_min,
        fmax_init_ghz=chip.fmax_init_ghz.copy(),
    )


class _Finished:
    """An ``apply_async`` result that is already in hand."""

    def __init__(self, value):
        self._value = value

    def ready(self) -> bool:
        return True

    def get(self):
        return self._value


class _InProcessHost:
    """The serial host: runs each unit in this process as it dispatches.

    It has the slice of the :class:`WorkerPoolHost` interface the
    dispatch loop uses — one worker, and a ``pool.apply_async`` whose
    result is ready on return — so serial and pooled runs share one
    loop.  It cannot preempt a hung unit, which is why ``job_timeout_s``
    selects a spawn pool even at ``workers=1``.
    """

    workers = 1

    def __init__(self):
        self.pool = self

    def apply_async(self, func, args):
        return _Finished(func(*args))

    def close(self) -> None:
        pass


@dataclass
class _UnitState:
    """Per-dispatch-unit supervision bookkeeping.

    A unit owns one or more jobs (chips) that run in a single attempt;
    ``attempts`` counts dispatches of the whole unit.  Singleton units
    demoted out of an exhausted batch start with ``attempts`` preset to
    ``retries`` — one final attempt each, so their eventual
    :class:`JobFailure.attempts` equals what a never-batched run of the
    same chip would have reported, and no extra ``campaign.retries``
    are charged for the re-dispatch.
    """

    indices: list
    jobs: list
    attempts: int = 0


def _form_units(pairs, batch_size: int) -> list[_UnitState]:
    """Chunk ``(index, (policy, chip))`` pairs into dispatch units.

    At ``batch_size=1`` every job is its own unit, in order.  Above it,
    jobs are grouped by (policy identity, floorplan signature) — the
    axes the batched engine requires to agree — with the original job
    order preserved inside each group, then chunked.  Units are
    dispatched in first-job order.
    """
    if batch_size == 1:
        return [_UnitState([index], [job]) for index, job in pairs]
    groups: dict = {}
    for index, (policy, chip) in pairs:
        key = (id(policy), floorplan_signature(chip.floorplan))
        groups.setdefault(key, []).append((index, (policy, chip)))
    units = []
    for items in groups.values():
        for start in range(0, len(items), batch_size):
            chunk = items[start : start + batch_size]
            units.append(
                _UnitState([i for i, _ in chunk], [j for _, j in chunk])
            )
    units.sort(key=lambda unit: unit.indices[0])
    return units


def run_supervised_jobs(
    jobs,
    shared: dict,
    *,
    config,
    workers: int = 1,
    retries: int = 0,
    job_timeout_s: float | None = None,
    allow_partial: bool = False,
    checkpoint: CampaignCheckpoint | None = None,
    digest: str | None = None,
    progress=None,
    batch_size: int = 1,
    pool_host: WorkerPoolHost | None = None,
    on_result=None,
) -> tuple[list[LifetimeResult], list[JobFailure]]:
    """Run ``jobs`` (a list of ``(policy, chip)``) under supervision.

    Returns results aligned index-for-index with ``jobs`` plus the list
    of failures (empty unless ``allow_partial`` let some through).  See
    the module docstring for the semantics of each knob;
    ``batch_size=1`` (the default) dispatches per-chip singleton units.

    Units drain from a deque (retries and demoted singletons cut in at
    the front) through one loop, whatever the host: a lent
    ``pool_host``, else a spawn pool owned by this call when
    ``workers > 1`` or ``job_timeout_s`` is set (the in-process host
    cannot preempt a hung unit), else the in-process host.  At most one
    unit per worker is in flight, so a unit's deadline starts when it
    actually starts running.  A hung or dead worker cannot be killed
    individually inside a :class:`multiprocessing.Pool`, so a timeout
    tears the whole pool down, rebuilds it through the same initializer
    (fresh workers, same shared invariants), and re-queues the innocent
    in-flight units without charging them an attempt.

    ``pool_host`` lends a caller-owned :class:`WorkerPoolHost` (already
    ``ensure``-provisioned with this campaign's ``shared``) — the fleet
    daemon's warm pool, kept across requests.  It is left running on
    return unless the run aborts with units still in flight.

    ``progress(policy_name, chip_id)`` fires once per job that completes
    with a result, in completion order, on every host.  Jobs replayed
    from the checkpoint and jobs that exhaust their retries are not
    reported.

    ``on_result`` is a streaming sink called once per completed job as
    ``on_result(index, (policy, chip), result)``, after the job is
    checkpointed but before the call returns — the hook the fleet
    daemon uses to append jobs to its result store instead of keeping
    them only in the returned list.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if job_timeout_s is not None and job_timeout_s <= 0:
        raise ValueError("job_timeout_s must be positive")
    if checkpoint is not None and digest is None:
        raise ValueError("checkpointing requires the campaign digest")
    if isinstance(batch_size, bool) or not isinstance(batch_size, int) or (
        batch_size < 1
    ):
        raise ValueError(f"batch_size must be an int >= 1, got {batch_size!r}")

    # Install the invariants here even when a pool does the work: the
    # in-process host runs jobs in this process, and with metrics on no
    # host's jobs may pay a first-miss the others do not.
    _init_worker(shared)
    registry = get_registry()
    results: list = [None] * len(jobs)
    failures: list[JobFailure] = []
    keys = (
        job_keys(jobs, config.dark_fraction_min, digest)
        if checkpoint is not None
        else None
    )

    # Resume: replay recorded jobs before any dispatch.  Units form
    # *after* this filter, so a resumed campaign batches only the jobs
    # that still need to run (partial batches are fine).
    remaining: list = []
    for index, (policy, chip) in enumerate(jobs):
        if checkpoint is not None:
            record = checkpoint.get(keys[index])
            if record is not None:
                results[index] = record.result
                if record.snapshot is not None:
                    registry.merge_snapshot(record.snapshot)
                registry.inc("campaign.resumed_jobs")
                continue
        remaining.append((index, (policy, chip)))
    pending = deque(_form_units(remaining, batch_size))

    def succeed(state: _UnitState, unit_results, snapshot) -> None:
        if snapshot is not None:
            registry.merge_snapshot(snapshot)
        last = len(state.indices) - 1
        for offset, (index, job, result) in enumerate(
            zip(state.indices, state.jobs, unit_results)
        ):
            if checkpoint is not None:
                checkpoint.append(
                    keys[index], result, snapshot if offset == last else None
                )
            registry.inc("campaign.jobs_executed")
            results[index] = result
            if on_result is not None:
                on_result(index, job, result)
            if progress is not None:
                progress(job[0].name, job[1].chip_id)

    def fail(state: _UnitState, kind: str, message: str) -> None:
        """Retry a failed unit, demote an exhausted batch to one-final-
        attempt singletons, or record an exhausted singleton."""
        if state.attempts <= retries:
            registry.inc("campaign.retries")
            pending.appendleft(state)
        elif len(state.jobs) > 1:
            registry.inc("campaign.batch_demotions")
            pending.extendleft(
                _UnitState([index], [job], attempts=retries)
                for index, job in reversed(list(zip(state.indices, state.jobs)))
            )
        else:
            policy, chip = state.jobs[0]
            failure = JobFailure(
                policy_name=policy.name,
                chip_id=chip.chip_id,
                dark_fraction_min=config.dark_fraction_min,
                kind=kind,
                message=message,
                attempts=state.attempts,
            )
            registry.inc("campaign.job_failures")
            if not allow_partial:
                raise CampaignJobError(failure)
            failures.append(failure)
            results[state.indices[0]] = empty_lifetime(policy, chip, config)

    if pool_host is not None:
        if pool_host.shared is not shared:
            raise ValueError(
                "pool_host was provisioned with different shared "
                "invariants; call ensure(shared, signature) for this "
                "campaign first"
            )
        host = pool_host
    elif workers > 1 or job_timeout_s is not None:
        host = WorkerPoolHost(workers)
        host.ensure(shared)
    else:
        host = _InProcessHost()
    inflight: dict[int, tuple] = {}  # key -> (async_result, deadline, state)
    try:
        while pending or inflight:
            while pending and len(inflight) < host.workers:
                state = pending.popleft()
                state.attempts += 1
                async_result = host.pool.apply_async(_run_unit, (state.jobs,))
                deadline = job_timeout_s and time.monotonic() + job_timeout_s
                inflight[state.indices[0]] = (async_result, deadline, state)

            ready = [key for key, (res, _, _) in inflight.items() if res.ready()]
            if not ready:
                now = time.monotonic()
                expired = [
                    key
                    for key, (_, deadline, _) in inflight.items()
                    if deadline is not None and now > deadline
                ]
                if expired:
                    # The pool is compromised: tear it down first so a
                    # fail-fast exhaustion below never leaves hung
                    # workers behind, then replace it wholesale.
                    host.close()
                    for key, (_, _, state) in list(inflight.items()):
                        if key in expired:
                            fail(
                                state,
                                "timeout",
                                f"no result within {job_timeout_s:g} s "
                                "(worker hung or died)",
                            )
                        else:
                            # Innocent bystander: its worker died with
                            # the pool; re-run without charging a retry.
                            state.attempts -= 1
                            pending.appendleft(state)
                    inflight.clear()
                    host.rebuild()
                else:
                    # Block briefly on one in-flight result; any other
                    # completion is picked up by the next scan.
                    next(iter(inflight.values()))[0].wait(_POLL_INTERVAL_S)
                continue

            for key in ready:
                async_result, _, state = inflight.pop(key)
                ok, payload, snapshot = async_result.get()
                if ok:
                    succeed(state, payload, snapshot)
                else:
                    fail(state, "error", payload)
    finally:
        # An owned pool always goes; a lent one only when an abort left
        # units running in it, so none keeps a worker busy afterwards.
        if pool_host is None or inflight:
            host.close()
    return results, failures
