"""Cross-lane batched Algorithm 1: bit-identity with the sequential path.

Every test pins the tentpole contract of
:mod:`repro.core.mapper_batch`: the lockstep engine is purely an
execution strategy.  Whatever mix of thread counts, infeasibility,
thermal overshoot, communication weighting, pre-placed threads, or
demoted lanes a batch carries, each lane's placements, frequencies, and
unmapped list must equal its solo ``map_threads`` call bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import HayatManager, HayatMapper, MappingError, OnlineHealthEstimator
from repro.core.dcm import temperature_optimized_dcm
from repro.core.mapper_batch import MapperLane, map_threads_batch, unstackable_reason
from repro.mapping import ChipState
from repro.noc import MeshTopology
from repro.obs import MetricsRegistry, use_registry
from repro.power import PowerModel
from repro.sim import ChipContext, SimulationConfig, run_campaign
from repro.sim.export import result_to_dict
from repro.thermal import ThermalPredictor, ThermalRCNetwork
from repro.variation import generate_population
from repro.workload import make_mix

APPS = [["bodytrack", "x264"], ["dedup", "ferret"], ["bodytrack", "ferret"]]
COUNTS = [12, 16, 20]


@pytest.fixture(scope="module")
def rig(population, floorplan, aging_table):
    """Per-chip estimators over the shared 64-core floorplan."""
    net = ThermalRCNetwork(floorplan)
    estimators = [
        OnlineHealthEstimator(
            ThermalPredictor.learn(net, PowerModel.for_chip(chip)), aging_table
        )
        for chip in population
    ]
    return net.influence_matrix(), estimators


def build_state(chip, floorplan, influence, apps, num_threads, seed):
    """A fresh mapping problem; same arguments -> bit-identical clone."""
    mix = make_mix(apps, num_threads, np.random.default_rng(seed))
    dcm = temperature_optimized_dcm(floorplan, num_threads, influence)
    return ChipState(chip.num_cores, mix.threads, dcm)


def assert_states_identical(got: ChipState, want: ChipState) -> None:
    np.testing.assert_array_equal(got.assignment, want.assignment)
    np.testing.assert_array_equal(got.freq_ghz, want.freq_ghz)
    np.testing.assert_array_equal(got.powered_on, want.powered_on)


def run_both_ways(lanes, twins, epoch_years=0.5):
    """Map ``lanes`` through the batch engine and ``twins`` solo, then
    require lane-for-lane bit identity (states and unmapped lists)."""
    unmapped = map_threads_batch(lanes, epoch_years)
    for lane, twin, got_unmapped in zip(lanes, twins, unmapped):
        want_unmapped = twin.mapper.map_threads(
            twin.state,
            twin.fmax_now_ghz,
            twin.health_now,
            epoch_years,
            twin.elapsed_years,
            initial_temps_k=twin.initial_temps_k,
        )
        assert got_unmapped == want_unmapped
        assert_states_identical(lane.state, twin.state)
    return unmapped


class TestLockstepBitIdentity:
    def _paired_lanes(self, rig, population, floorplan, seed, **mapper_kwargs):
        """Build (lanes, twins): same chips, same problems, two state
        clones each, with per-lane health / warm-start / age diversity."""
        influence, estimators = rig
        rng = np.random.default_rng(seed)
        lanes, twins = [], []
        for i, (chip, est, apps, count) in enumerate(
            zip(population, estimators, APPS, COUNTS)
        ):
            health = rng.uniform(0.9, 1.0, chip.num_cores)
            fmax = chip.fmax_init_ghz * health
            temps = (
                rng.uniform(320.0, 350.0, chip.num_cores) if i % 2 else None
            )
            pair = []
            for _ in range(2):
                pair.append(
                    MapperLane(
                        mapper=HayatMapper(est, **mapper_kwargs),
                        state=build_state(
                            chip, floorplan, influence, apps, count, seed
                        ),
                        fmax_now_ghz=fmax,
                        health_now=health,
                        elapsed_years=0.7 * i,
                        initial_temps_k=temps,
                    )
                )
            lanes.append(pair[0])
            twins.append(pair[1])
        return lanes, twins

    def test_matches_sequential_across_seeds(self, rig, population, floorplan):
        """Mixed thread counts, health maps, and warm starts over
        several seeds: every lane rides the stack and matches solo."""
        for seed in range(3):
            lanes, twins = self._paired_lanes(rig, population, floorplan, seed)
            registry = MetricsRegistry()
            with use_registry(registry):
                unmapped = run_both_ways(lanes, twins)
            assert registry.counter("sim.decision_batched_lanes") == len(lanes)
            assert all(um == [] for um in unmapped)

    def test_infeasible_threads_same_unmapped(self, rig, population, floorplan):
        """A lane whose chip can satisfy nothing reports the exact same
        unmapped list as its solo call, without disturbing siblings."""
        lanes, twins = self._paired_lanes(rig, population, floorplan, seed=5)
        slow = np.full(population[0].num_cores, 0.5)
        lanes[0].fmax_now_ghz = slow
        twins[0].fmax_now_ghz = slow
        unmapped = run_both_ways(lanes, twins)
        assert len(unmapped[0]) == COUNTS[0]  # nothing feasible there
        assert unmapped[1] == [] and unmapped[2] == []

    def test_all_overshoot_fallback(self, rig, population, floorplan):
        """An impossible thermal constraint forces every placement down
        the least-bad fallback; batch and solo still agree bit for bit."""
        lanes, twins = self._paired_lanes(
            rig, population, floorplan, seed=2, tsafe_k=1.0
        )
        run_both_ways(lanes, twins)

    def test_comm_weight_identical(self, rig, population, floorplan):
        """The incremental sibling map scores the same penalties as the
        solo path's rebuilt one."""
        mesh = MeshTopology(floorplan)
        lanes, twins = self._paired_lanes(
            rig,
            population,
            floorplan,
            seed=3,
            comm_weight=6.0,
            hop_matrix=mesh.hop_matrix,
        )
        run_both_ways(lanes, twins)

    def test_preplaced_threads_identical(self, rig, population, floorplan):
        """Incremental/mid-epoch use: threads already on cores are
        skipped and their running-vector contributions carried equally."""
        lanes, twins = self._paired_lanes(rig, population, floorplan, seed=4)
        for holder in (lanes, twins):
            for lane in holder:
                on = np.flatnonzero(lane.state.powered_on)[:3]
                for thread_index, core in enumerate(on):
                    thread = lane.state.threads[thread_index]
                    lane.state.place(thread_index, int(core), thread.fmin_ghz)
        run_both_ways(lanes, twins)

    def test_strict_lane_demoted(self, rig, population, floorplan):
        """A strict lane never joins the stack (a mid-round raise would
        strand siblings) but maps identically on the sequential path."""
        lanes, twins = self._paired_lanes(rig, population, floorplan, seed=6)
        strict = HayatMapper(lanes[1].mapper.estimator, strict=True)
        lanes[1].mapper = strict
        twins[1].mapper = HayatMapper(twins[1].mapper.estimator, strict=True)
        assert unstackable_reason(lanes[1], lanes[0]) == "strict mapper"
        registry = MetricsRegistry()
        with use_registry(registry):
            run_both_ways(lanes, twins)
        assert registry.counter("sim.decision_batched_lanes") == 2

    def test_strict_infeasible_still_raises(self, rig, population, floorplan):
        lanes, _ = self._paired_lanes(rig, population, floorplan, seed=6)
        lanes[1].mapper = HayatMapper(lanes[1].mapper.estimator, strict=True)
        lanes[1].fmax_now_ghz = np.full(population[1].num_cores, 0.5)
        with pytest.raises(MappingError):
            map_threads_batch(lanes, 0.5)

    def test_mixed_core_counts_demoted(
        self, rig, population, floorplan, small_floorplan, aging_table
    ):
        """A lane on different silicon geometry cannot share the stack;
        it runs sequentially and still matches its solo call."""
        lanes, twins = self._paired_lanes(rig, population, floorplan, seed=8)
        small_chip = generate_population(
            1, seed=3, floorplan=small_floorplan
        )[0]
        small_net = ThermalRCNetwork(small_floorplan)
        small_est = OnlineHealthEstimator(
            ThermalPredictor.learn(small_net, PowerModel.for_chip(small_chip)),
            aging_table,
        )
        small_influence = small_net.influence_matrix()
        for holder in (lanes, twins):
            holder.append(
                MapperLane(
                    mapper=HayatMapper(small_est),
                    state=build_state(
                        small_chip,
                        small_floorplan,
                        small_influence,
                        ["dedup"],
                        6,
                        seed=8,
                    ),
                    fmax_now_ghz=small_chip.fmax_init_ghz,
                    health_now=np.ones(small_chip.num_cores),
                    elapsed_years=0.0,
                )
            )
        assert unstackable_reason(lanes[-1], lanes[0]) == "mixed core counts"
        registry = MetricsRegistry()
        with use_registry(registry):
            run_both_ways(lanes, twins)
        assert registry.counter("sim.decision_batched_lanes") == 3


class TestManagerBatch:
    def test_prepare_epoch_batch_matches_per_lane(self, population, aging_table):
        """The full manager path — DCM, fencing, batched mapping,
        unmapped absorption — equals per-lane ``prepare_epoch``."""
        policy = HayatManager()
        mixes = [
            make_mix(apps, count, np.random.default_rng(90 + i))
            for i, (apps, count) in enumerate(zip(APPS, COUNTS))
        ]
        make_ctxs = lambda: [
            ChipContext(chip, aging_table, dark_fraction_min=0.5)
            for chip in population
        ]
        batch_states = policy.prepare_epoch_batch(make_ctxs(), mixes, 0.5)
        solo_states = [
            policy.prepare_epoch(ctx, mix, 0.5)
            for ctx, mix in zip(make_ctxs(), mixes)
        ]
        for got, want in zip(batch_states, solo_states):
            assert_states_identical(got, want)


def small_cfg(**overrides) -> SimulationConfig:
    base = dict(
        lifetime_years=1.0, epoch_years=0.5, dark_fraction_min=0.5,
        window_s=5.0, seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestEscapeHatches:
    """Campaign-level identity of the two new fast paths and their
    ``--no-batch-decision`` / ``--no-segment-cache`` escape hatches."""

    @pytest.fixture(scope="class")
    def reference(self, population, aging_table):
        return run_campaign(
            [HayatManager()],
            config=small_cfg(), population=population, table=aging_table,
        )

    def test_batch_decision_off_identical(
        self, reference, population, aging_table
    ):
        cfg = small_cfg()
        on_registry = MetricsRegistry()
        with use_registry(on_registry):
            batched = run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=aging_table,
                batch_size=len(population),
            )
        off_registry = MetricsRegistry()
        with use_registry(off_registry):
            unbatched = run_campaign(
                [HayatManager()],
                config=dataclasses.replace(cfg, batch_decision=False),
                population=population, table=aging_table,
                batch_size=len(population),
            )
        for a, b, c in zip(
            reference.results["hayat"],
            batched.results["hayat"],
            unbatched.results["hayat"],
        ):
            assert result_to_dict(a) == result_to_dict(b)
            assert result_to_dict(a) == result_to_dict(c)
        assert on_registry.counter("sim.decision_batched_lanes") > 0
        assert off_registry.counter("sim.decision_batched_lanes") == 0
