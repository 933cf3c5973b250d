"""The benchmark's workloads: set-up, warm-up, timed ops and their checks.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  An op is what a user of the repository waits
for -- a campaign, one chip lifetime, or one fleet request -- and
:meth:`Workload.round` returns the ops of one loop turn as callables the
runner times one by one.

Each simulating op runs one *input*: an integer that sets the workload's
simulation seed (and, for ``hayat_serial``, the chip).  Inputs come from
the workload's vetted pool in ``inputs.json`` (``calibrate.py vet``):
an input is admitted only if its op, its warm-up and its cross-check
pass every check, because a few inputs make the program fail (see
README, "Inputs and seeds").  Op ``k`` of a run with seed ``S`` runs
pool entry ``(S + k) mod n``, so two runs with one seed see the same
inputs op for op, and no two simulating ops of a run repeat an input
while the run has fewer ops than the pool.  A repeat could be answered
by a content-keyed cache (the walk memo, the segment cache), which
would measure the cache instead of the simulator.  Only the fleet's
cached requests repeat, on purpose.

Correctness is checked outside the timed region: every op's outputs are
hashed (:func:`digest_results`), checked against physical invariants,
and once per run compared with a second code path of the program that
must agree with it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from repro import HayatManager, VAAManager
from repro.aging import tables
from repro.core.delta_eval import delta_options
from repro.sim.campaign import run_campaign
from repro.sim.batch import BatchLifetimeSimulator
from repro.sim.config import SimulationConfig
from repro.sim.context import ChipContext
from repro.sim.export import result_to_dict
from repro.sim.fleet import daemon as fleet
from repro.sim.simulator import LifetimeSimulator
from repro.util.constants import AMBIENT_KELVIN
from repro.variation import population as silicon
from repro.variation.population import ChipPopulation

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.json")

#: Dark-silicon floors of the paper's evaluation.
FLOORS = (0.25, 0.5)
EPOCH_YEARS = 0.5
LIFETIME_YEARS = 10.0
WINDOW_S = 10.0
#: Chips per batched dispatch unit (a campaign's chips form one unit).
BATCH_SIZE = 32
#: Seed of the benchmark's silicon.  The chips are the benchmark's fixed
#: data set; ``--seed`` draws the workloads run on them (see README).
SILICON_SEED = 2015
#: Simulated years per fleet request and per cross-check lifetime.
SHORT_YEARS = 2.0

# The lru-cached table builder, kept before any tracer wraps the name.
_TABLE_BUILDER = tables.default_aging_table


def fresh_aging_table():
    """Build the default aging table anew (as a fresh process would)."""
    _TABLE_BUILDER.cache_clear()
    return tables.default_aging_table()


def sim_config(seed: int, floor: float, years: float) -> SimulationConfig:
    return SimulationConfig(
        lifetime_years=years,
        epoch_years=EPOCH_YEARS,
        dark_fraction_min=floor,
        window_s=WINDOW_S,
        seed=seed,
    )


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def digest_results(results) -> str:
    """sha256 over the canonical export of every result, in job order."""
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(canonical(result_to_dict(result)))
        hasher.update(b"\n")
    return hasher.hexdigest()


def result_errors(result, policy: str, floor: float, epochs: int) -> list[str]:
    """Physical invariants every simulated lifetime must satisfy."""
    where = f"{policy}/{result.chip_id}/dark {floor:g}"
    if result.policy_name != policy or result.dark_fraction_min != floor:
        return [f"{where}: result labelled {result.policy_name}/{result.dark_fraction_min}"]
    if len(result.epochs) != epochs:
        return [f"{where}: {len(result.epochs)} epochs, expected {epochs}"]
    errors = []
    previous = np.ones_like(result.fmax_init_ghz)
    for epoch in result.epochs:
        health = np.asarray(epoch.health_after)
        worst = np.asarray(epoch.worst_temps_k)
        duties = np.asarray(epoch.duties)
        if not (np.all(health > 0) and np.all(health <= previous)):
            errors.append(f"{where} epoch {epoch.epoch_index}: health not in (0, previous]")
        if not (np.all(np.isfinite(worst)) and np.all(worst >= AMBIENT_KELVIN)):
            errors.append(f"{where} epoch {epoch.epoch_index}: worst temperature below ambient")
        if not np.all((duties >= 0) & (duties <= 1)):
            errors.append(f"{where} epoch {epoch.epoch_index}: duty outside [0, 1]")
        if min(epoch.dtm_migrations, epoch.dtm_throttles, epoch.qos_violations) < 0:
            errors.append(f"{where} epoch {epoch.epoch_index}: negative count")
        previous = health
    return errors


def identical(a, b) -> bool:
    return canonical(result_to_dict(a)) == canonical(result_to_dict(b))


def load_inputs() -> dict:
    """``inputs.json``: per workload, the admitted and rejected inputs."""
    if not os.path.exists(INPUTS):
        return {}
    with open(INPUTS, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class OpOutcome:
    """What the runner records about one op, computed off the clock."""

    chip_epochs: int
    attempted: int
    failed: int
    digest: str
    errors: list


class Workload:
    """Base of the four workloads; see README for why each exists."""

    name = ""
    why = ""
    #: Chips of the workload's silicon (2 in smoke runs).
    chip_count = 0
    #: Inputs ``calibrate.py vet`` admits: about four times the ops one
    #: run starts on the calibration host.
    pool_size = 0
    #: Set-ups timed per run; ``setup_s`` is their median.
    setup_reps = 3

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.chips = 2 if smoke else self.chip_count
        self.years = EPOCH_YEARS if smoke else LIFETIME_YEARS
        self.epochs = int(round(self.years / EPOCH_YEARS))
        self.pool = load_inputs().get(self.name, {}).get("admitted", [])

    def input_id(self, index: int) -> int:
        """The input of simulating op ``index`` (-1: the warm-up)."""
        if not self.pool:
            raise RuntimeError(f"{self.name}: no vetted inputs; run calibrate.py vet")
        return self.pool[(self.seed + index) % len(self.pool)]

    def setup(self) -> None:
        """One set-up; the runner times several and keeps the last."""
        self.table = fresh_aging_table()
        self.population = silicon.generate_population(self.chips, seed=SILICON_SEED)

    def warm_up(self, input_id: int) -> None:
        """1 epoch on 2 chips, unmeasured, to fill process-wide caches."""
        raise NotImplementedError

    def simulate(self, input_id: int):
        """The simulating op on ``input_id``; returns ``(input_id, output)``."""
        raise NotImplementedError

    def round(self, index: int) -> list:
        """The ops of loop turn ``index``: callables, each returning the
        raw output that :meth:`outcome` checks."""
        input_id = self.input_id(index)
        return [lambda: self.simulate(input_id)]

    def outcome(self, raw) -> OpOutcome:
        raise NotImplementedError

    def cross_check(self, raw) -> list[str]:
        """Compare a simulating op's output with a second code path;
        returns errors."""
        return []

    def store_bytes(self) -> int:
        """Bytes the workload's result store holds (fleet only)."""
        return 0

    def close(self) -> None:
        pass


class CampaignWorkload(Workload):
    """A campaign on the batched population engine.

    One dark floor per op: ops on the two floors differ twofold in cost,
    and a run needs many ops of one kind for a steady median.  The 0.5
    floor (32 threads per 64-core chip) gives the shorter ops and the
    fewer DTM events, so the decision and window layers carry the op;
    the fleet workload runs both floors.
    """

    policy_factory = None
    floor = 0.5

    def _campaign(self, seed, population, years):
        return run_campaign(
            [self.policy_factory()],
            config=sim_config(seed, self.floor, years),
            population=population,
            table=self.table,
            batch_size=BATCH_SIZE,
            allow_partial=True,
        )

    def warm_up(self, input_id):
        pair = ChipPopulation(
            self.population.floorplan, self.population.params, self.population.chips[:2]
        )
        self._campaign(input_id, pair, EPOCH_YEARS)

    def simulate(self, input_id):
        return input_id, self._campaign(input_id, self.population, self.years)

    def outcome(self, raw):
        _, campaign = raw
        name = self.policy_factory.name
        results = campaign.results[name]
        errors = [failure.describe() for failure in campaign.failures]
        for lifetime in results:
            errors += result_errors(lifetime, name, self.floor, self.epochs)
        jobs = len(results)
        return OpOutcome(
            chip_epochs=sum(len(r.epochs) for r in results),
            attempted=jobs,
            failed=jobs if errors else 0,
            digest=digest_results(results),
            errors=errors,
        )

    def cross_check(self, raw):
        """The batched engine against the per-chip simulator.

        Campaign mapping rounds take the delta engine only above its
        cost gate, which single-chip rounds never reach, so the two
        engines agree bit for bit only with the gate forced open on
        both (``min_dense_rows=0``).  Two chips, a short lifetime, the
        op's input.
        """
        input_id, _ = raw
        years = EPOCH_YEARS if self.smoke else SHORT_YEARS
        config = sim_config(input_id, self.floor, years)
        chips = self.population.chips
        ctxs = [
            ChipContext(chip, self.table, dark_fraction_min=self.floor)
            for chip in (chips[0], chips[1], chips[0])
        ]
        with delta_options(min_dense_rows=0):
            lane = BatchLifetimeSimulator(config).run(ctxs[:2], self.policy_factory())[0]
            solo = LifetimeSimulator(config).run(ctxs[2], self.policy_factory())
        if identical(lane, solo):
            return []
        return ["batched lane 0 differs from the per-chip path"]


class HayatBatch(CampaignWorkload):
    name = "hayat_batch"
    why = "decision-heavy: batched Algorithm 1 (stacked predict, delta engine, table walk) dominates"
    policy_factory = HayatManager
    chip_count = 8
    pool_size = 48


class VAABatch(CampaignWorkload):
    name = "vaa_batch"
    why = "decision-light: stacked settle solves, DTM and the fused window dominate; bypasses Algorithm 1"
    policy_factory = VAAManager
    chip_count = 8
    pool_size = 96


class HayatSerial(Workload):
    """One chip lifetime at a time on the per-chip engine.

    Input ``i`` runs chip ``i mod c`` with simulation seed ``i // c``,
    for ``c`` chips (8; 2 in smoke runs).
    """

    name = "hayat_serial"
    why = "per-chip engine (LifetimeSimulator + dense HayatMapper) used by single runs and fallbacks"
    floor = 0.5
    chip_count = 8
    pool_size = 192

    def _lifetime(self, chip, seed, years):
        ctx = ChipContext(chip, self.table, dark_fraction_min=self.floor)
        return LifetimeSimulator(sim_config(seed, self.floor, years)).run(
            ctx, HayatManager()
        )

    def _chip_and_seed(self, input_id):
        return input_id % self.chips, input_id // self.chips

    def warm_up(self, input_id):
        chip, seed = self._chip_and_seed(input_id)
        self._lifetime(self.population[chip], seed, EPOCH_YEARS)

    def simulate(self, input_id):
        chip, seed = self._chip_and_seed(input_id)
        return input_id, self._lifetime(self.population[chip], seed, self.years)

    def outcome(self, raw):
        _, result = raw
        errors = result_errors(result, "hayat", self.floor, self.epochs)
        return OpOutcome(
            chip_epochs=len(result.epochs),
            attempted=1,
            failed=1 if errors else 0,
            digest=digest_results([result]),
            errors=errors,
        )

    def cross_check(self, raw):
        """The lifetime against the batched engine's dense path.

        Per-chip mapping rounds stay below the delta engine's cost gate,
        so the per-chip path is the dense evaluation; the batched engine
        with ``delta_candidates=False`` must reproduce it bit for bit as
        lane 0 of a two-chip batch.
        """
        input_id, solo = raw
        chip, seed = self._chip_and_seed(input_id)
        config = replace(
            sim_config(seed, self.floor, self.years), delta_candidates=False
        )
        ctxs = [
            ChipContext(self.population[c], self.table, dark_fraction_min=self.floor)
            for c in (chip, (chip + 1) % self.chips)
        ]
        lane = BatchLifetimeSimulator(config).run(ctxs, HayatManager())[0]
        if identical(lane, solo):
            return []
        return ["lifetime differs from the batched dense path"]


class Fleet(Workload):
    """The fleet service in-process: cold requests plus cached repeats.

    Input ``i`` is the cold request with ``"seed": i``.
    """

    name = "fleet"
    why = "the fleet service: cold requests simulate and append, cached repeats only read the store"
    chip_count = 8
    pool_size = 48
    # A set-up takes about 60 ms, and three of them gave setup_s an
    # interquartile range of 30 % over a set of runs.
    setup_reps = 15

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.cached_per_cold = 2 if smoke else 20
        self.years = EPOCH_YEARS if smoke else SHORT_YEARS
        self.served: list[int] = []
        self.cold: dict[str, bytes] = {}
        self.daemon = None
        self._setups = 0

    def _request(self, seed, years):
        return {
            "policies": ["vaa", "hayat"],
            "chips": self.chips,
            "population_seed": SILICON_SEED,
            "dark_fractions": list(FLOORS),
            "years": years,
            "window_s": WINDOW_S,
            "seed": seed,
            "baseline": "vaa",
        }

    def setup(self):
        if self.daemon is not None:
            self.daemon.close()
        self._setups += 1
        root = os.path.join(self.workdir, f"fleet{self._setups}")
        # The daemon builds (and keeps) a request's silicon on first
        # use, which the warm-up request does.
        fresh_aging_table()
        self.daemon = fleet.FleetDaemon(root, workers=1)
        self.root = root

    def _serve(self, request):
        request_id = fleet.submit_request(self.root, request)
        self.daemon.process_once()
        path = os.path.join(self.root, "results", f"{request_id}.json")
        with open(path, encoding="utf-8") as handle:
            return request_id, json.load(handle)

    def warm_up(self, input_id):
        """One 1-epoch request, served cold and then cached."""
        request = self._request(input_id, EPOCH_YEARS)
        self._serve(request)
        self._serve(request)

    def simulate(self, input_id):
        request = self._request(input_id, self.years)
        return "cold", request, self._serve(request)

    def round(self, index):
        input_id = self.input_id(index)
        self.served.append(input_id)
        ops = [lambda: self.simulate(input_id)]
        for repeat in range(self.cached_per_cold):
            again = self._request(self.served[repeat % len(self.served)], self.years)
            ops.append(lambda again=again: ("cached", again, self._serve(again)))
        return ops

    def outcome(self, raw):
        kind, request, (request_id, response) = raw
        jobs = len(request["policies"]) * request["chips"] * len(request["dark_fractions"])
        errors = []
        if "error" in response:
            errors.append(f"request {request_id}: {response['error']}")
            return OpOutcome(0, 1, 1, "", errors)
        if response["failures"]:
            errors.append(f"request {request_id}: {len(response['failures'])} failed jobs")
        aggregates = canonical(response["aggregates"])
        if kind == "cold":
            if (response["simulated"], response["cache_hits"]) != (jobs, 0):
                errors.append(f"cold request {request_id} answered from the cache")
            if response["aggregates"]["jobs"] != jobs:
                errors.append(f"cold request {request_id}: aggregates cover "
                              f"{response['aggregates']['jobs']} of {jobs} jobs")
            self.cold[request_id] = aggregates
        else:
            if (response["simulated"], response["cache_hits"]) != (0, jobs):
                errors.append(f"cached request {request_id} re-simulated jobs")
            if aggregates != self.cold.get(request_id):
                errors.append(f"cached request {request_id}: aggregates differ from the cold response")
        simulated = response["simulated"] * int(round(request["years"] / EPOCH_YEARS))
        return OpOutcome(
            chip_epochs=simulated,
            attempted=1,
            failed=1 if errors else 0,
            digest=hashlib.sha256(aggregates).hexdigest(),
            errors=errors,
        )

    def close(self):
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None

    def store_bytes(self) -> int:
        return self.daemon.store.bytes_on_disk()


WORKLOADS = {w.name: w for w in (HayatBatch, VAABatch, HayatSerial, Fleet)}


def vet(workload: Workload, input_id: int) -> list[str]:
    """Everything a run may do with ``input_id``: as the warm-up, as an
    op and as the cross-checked op.  Returns the errors; none admits it."""
    try:
        workload.warm_up(input_id)
        raw = workload.simulate(input_id)
        return workload.outcome(raw).errors + workload.cross_check(raw)
    except Exception as error:  # noqa: BLE001 - a failing input is the finding
        return [f"{type(error).__name__}: {error}"]
