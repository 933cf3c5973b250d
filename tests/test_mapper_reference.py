"""The lockstep engine against the sequential Algorithm 1 loop.

``HayatMapper.map_threads`` is a one-lane batch of
:func:`repro.core.mapper_batch.map_threads_batch`; the loop it replaced
lives on as the oracle in ``tests/mapper_reference.py``.  Over seeded
mapping problems (several chips, mixed thread counts, per-lane health,
warm starts and ages) every engine entry point must reproduce the
oracle bit for bit: placements, frequencies and unmapped lists, and —
for the one-lane path — every Eq. 9 score vector the winner is picked
from, so a reordered floating-point operation shows even when it flips
no decision.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest

from repro.core import HayatMapper, OnlineHealthEstimator
from repro.core.dcm import temperature_optimized_dcm
from repro.core.delta_eval import delta_options
from repro.core.estimation import DutyCycleAssumption
from repro.core.mapper_batch import MapperLane, map_threads_batch
from repro.mapping import ChipState
from repro.noc import MeshTopology
from repro.power import PowerModel
from repro.thermal import ThermalPredictor, ThermalRCNetwork
from repro.workload import make_mix
from tests.mapper_reference import reference_map_threads

APPS = ["bodytrack", "x264", "dedup", "ferret", "blackscholes", "canneal"]
SEEDS = range(12)

#: Each scenario exercises one branch of Algorithm 1 the plain problem
#: may not reach.
SCENARIOS = {
    "plain": {},
    "comm_weight": {"comm_weight": 6.0},
    "all_overshoot": {"tsafe_k": 300.0},
    "tight_tsafe": {"tight": True},
    "infeasible": {"slow_cores": True},
    "preplaced": {"preplaced": True},
    "generic_duty": {"duty": DutyCycleAssumption.GENERIC},
    "worst_case_duty": {"duty": DutyCycleAssumption.WORST_CASE},
    "delta_everywhere": {"delta": True},
}


@pytest.fixture(scope="module")
def rig(population, floorplan):
    net = ThermalRCNetwork(floorplan)
    predictors = [
        ThermalPredictor.learn(net, PowerModel.for_chip(chip))
        for chip in population
    ]
    return net.influence_matrix(), predictors, MeshTopology(floorplan).hop_matrix


def _problems(rig, population, floorplan, aging_table, seed, scenario):
    """Three clone sets of the same lanes: (engine, one-lane, oracle)."""
    influence, predictors, hops = rig
    rng = np.random.default_rng(seed)
    sets = ([], [], [])
    for i, (chip, predictor) in enumerate(zip(population, predictors)):
        n = chip.num_cores
        count = int(rng.integers(10, 25))
        apps = list(rng.choice(APPS, size=2, replace=False))
        mix_seed = int(rng.integers(1 << 30))
        health = rng.uniform(0.85, 1.0, n)
        fmax = chip.fmax_init_ghz * health
        if scenario.get("slow_cores"):
            fmax = np.where(rng.random(n) < 0.6, 0.5, fmax)
        temps = rng.uniform(320.0, 350.0, n) if rng.random() < 0.7 else None
        if scenario.get("tight"):
            tsafe_k = float(rng.uniform(335.0, 350.0))
        else:
            tsafe_k = scenario.get("tsafe_k", float(rng.uniform(355.0, 370.0)))
        estimator = OnlineHealthEstimator(
            predictor,
            aging_table,
            scenario.get("duty", DutyCycleAssumption.KNOWN),
        )
        comm_weight = scenario.get("comm_weight", 0.0)
        mapper_kwargs = dict(
            tsafe_k=tsafe_k,
            chip_health_coeff=float(rng.uniform(0.5, 6.0)),
            comm_weight=comm_weight,
            hop_matrix=hops if comm_weight > 0 else None,
        )
        preplace = int(rng.integers(1, 5)) if scenario.get("preplaced") else 0
        elapsed = float(rng.uniform(0.0, 6.0))
        for lanes in sets:
            mix = make_mix(apps, count, np.random.default_rng(mix_seed))
            dcm = temperature_optimized_dcm(floorplan, count, influence)
            state = ChipState(n, mix.threads, dcm)
            # The mid-epoch arrival path: earlier threads already run.
            for thread_index, core in enumerate(
                np.flatnonzero(state.powered_on)[:preplace]
            ):
                thread = state.threads[thread_index]
                state.place(thread_index, int(core), thread.fmin_ghz)
            lanes.append(
                MapperLane(
                    mapper=HayatMapper(estimator, **mapper_kwargs),
                    state=state,
                    fmax_now_ghz=fmax,
                    health_now=health,
                    elapsed_years=elapsed,
                    initial_temps_k=temps,
                )
            )
    return sets


def _solo(fn, lane, epoch_years):
    return fn(
        lane.state,
        lane.fmax_now_ghz,
        lane.health_now,
        epoch_years,
        lane.elapsed_years,
        initial_temps_k=lane.initial_temps_k,
    )


class _ScoreSpy:
    """Records every vector ``np.argmax`` is called on (the Eq. 9
    scores each mapper picks its winner from)."""

    def __init__(self, monkeypatch):
        self.calls: list[np.ndarray] = []
        original = np.argmax

        def spy(a, *args, **kwargs):
            self.calls.append(np.array(a, copy=True))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np, "argmax", spy)

    def take(self) -> list[np.ndarray]:
        calls, self.calls = self.calls, []
        return calls


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_reference(
    seed, name, rig, population, floorplan, aging_table, monkeypatch
):
    scenario = SCENARIOS[name]
    engine, one_lane, oracle = _problems(
        rig, population, floorplan, aging_table, seed, scenario
    )
    epoch_years = 0.5
    spy = _ScoreSpy(monkeypatch)
    options = (
        delta_options(min_dense_rows=0)
        if scenario.get("delta")
        else contextlib.nullcontext()
    )
    with options:
        batched = map_threads_batch(engine, epoch_years)
        spy.take()
        for i, (got, solo, want) in enumerate(zip(engine, one_lane, oracle)):
            solo_unmapped = _solo(solo.mapper.map_threads, solo, epoch_years)
            solo_scores = spy.take()
            want_unmapped = _solo(
                functools.partial(reference_map_threads, want.mapper),
                want,
                epoch_years,
            )
            want_scores = spy.take()

            assert batched[i] == want_unmapped
            assert solo_unmapped == want_unmapped
            assert len(solo_scores) == len(want_scores)
            for a, b in zip(solo_scores, want_scores):
                np.testing.assert_array_equal(a, b, strict=True)
            for state in (got.state, solo.state):
                np.testing.assert_array_equal(state.assignment, want.state.assignment)
                np.testing.assert_array_equal(state.freq_ghz, want.state.freq_ghz)
                np.testing.assert_array_equal(
                    state.powered_on, want.state.powered_on
                )
    if name == "infeasible":
        assert any(batched), "the slow cores should leave threads unmapped"
