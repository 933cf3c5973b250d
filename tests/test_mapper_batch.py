"""Cross-lane batched Algorithm 1: bit-identity with the sequential loop.

Every test pins the contract of :mod:`repro.core.mapper_batch`: the
lockstep engine is purely an execution strategy.  Whatever mix of
thread counts, infeasibility, thermal overshoot, communication
weighting, pre-placed threads, strict lanes or geometries a batch
carries, each lane's placements, frequencies, and unmapped list must
equal the sequential reference loop (``tests/mapper_reference.py``)
bit for bit.
"""

import numpy as np
import pytest

from repro.baselines import CoolestFirstManager, VAAManager
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
from tests.mapper_reference import reference_map_threads

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
    """Map ``lanes`` through the batch engine and ``twins`` through the
    sequential reference loop, then require lane-for-lane bit identity
    (states and unmapped lists)."""
    unmapped = map_threads_batch(lanes, epoch_years)
    for lane, twin, got_unmapped in zip(lanes, twins, unmapped):
        want_unmapped = reference_map_threads(
            twin.mapper,
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
        """A strict lane never joins a stack (a mid-round raise would
        strand its group mates): it maps alone, still bit-identical."""
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

    @pytest.mark.parametrize("strict_at", [0, 1, 2])
    def test_strict_raise_leaves_no_lane_half_mapped(
        self, rig, population, floorplan, strict_at
    ):
        """Wherever the raising strict lane sits, every other lane is
        either fully mapped (its group ran first) or untouched."""
        lanes, twins = self._paired_lanes(rig, population, floorplan, seed=6)
        slow = np.full(population[strict_at].num_cores, 0.5)
        lanes[strict_at].mapper = HayatMapper(
            lanes[strict_at].mapper.estimator, strict=True
        )
        lanes[strict_at].fmax_now_ghz = slow
        with pytest.raises(MappingError):
            map_threads_batch(lanes, 0.5)
        for i, (lane, twin) in enumerate(zip(lanes, twins)):
            if i == strict_at:
                continue
            if (lane.state.assignment >= 0).any():
                reference_map_threads(
                    twin.mapper,
                    twin.state,
                    twin.fmax_now_ghz,
                    twin.health_now,
                    0.5,
                    twin.elapsed_years,
                    initial_temps_k=twin.initial_temps_k,
                )
            assert_states_identical(lane.state, twin.state)
        # The other lanes form one group: it runs (and finishes) before
        # the strict lane's unless the strict lane comes first.
        assert all(
            (lane.state.assignment >= 0).any() == (strict_at > 0)
            for i, lane in enumerate(lanes)
            if i != strict_at
        )

    def _small_lanes(self, small_floorplan, aging_table, count):
        """``count`` lanes on a 16-core chip (clone pairs, like
        :meth:`_paired_lanes`)."""
        small_chip = generate_population(
            1, seed=3, floorplan=small_floorplan
        )[0]
        small_net = ThermalRCNetwork(small_floorplan)
        small_est = OnlineHealthEstimator(
            ThermalPredictor.learn(small_net, PowerModel.for_chip(small_chip)),
            aging_table,
        )
        small_influence = small_net.influence_matrix()
        pairs = []
        for k in range(count):
            pairs.append(
                [
                    MapperLane(
                        mapper=HayatMapper(small_est),
                        state=build_state(
                            small_chip,
                            small_floorplan,
                            small_influence,
                            ["dedup"],
                            6 + k,
                            seed=8 + k,
                        ),
                        fmax_now_ghz=small_chip.fmax_init_ghz,
                        health_now=np.ones(small_chip.num_cores),
                        elapsed_years=0.0,
                    )
                    for _ in range(2)
                ]
            )
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def test_mixed_core_counts_demoted(
        self, rig, population, floorplan, small_floorplan, aging_table
    ):
        """A lane on different silicon geometry cannot share the stack;
        it maps in a group of its own and still matches the reference."""
        lanes, twins = self._paired_lanes(rig, population, floorplan, seed=8)
        small, small_twins = self._small_lanes(small_floorplan, aging_table, 1)
        lanes += small
        twins += small_twins
        assert unstackable_reason(lanes[-1], lanes[0]) == "mixed core counts"
        registry = MetricsRegistry()
        with use_registry(registry):
            run_both_ways(lanes, twins)
        assert registry.counter("sim.decision_batched_lanes") == 3

    def test_mixed_core_counts_form_two_groups(
        self, rig, population, floorplan, small_floorplan, aging_table,
        monkeypatch,
    ):
        """Interleaved 64- and 16-core lanes split into two stacked
        groups, one per geometry, each in first-lane order."""
        import repro.core.mapper_batch as mapper_batch

        big, big_twins = self._paired_lanes(rig, population, floorplan, seed=9)
        small, small_twins = self._small_lanes(small_floorplan, aging_table, 2)
        lanes = [big[0], small[0], big[1], small[1], big[2]]
        twins = [big_twins[0], small_twins[0], big_twins[1], small_twins[1],
                 big_twins[2]]
        groups = []
        original = mapper_batch._map_group

        def spy(runs, epoch_years):
            position = {id(lane.state): i for i, lane in enumerate(lanes)}
            groups.append([position[id(run.state)] for run in runs])
            return original(runs, epoch_years)

        monkeypatch.setattr(mapper_batch, "_map_group", spy)
        registry = MetricsRegistry()
        with use_registry(registry):
            run_both_ways(lanes, twins)
        assert groups == [[0, 2, 4], [1, 3]]
        assert registry.counter("sim.decision_batched_lanes") == 5


class TestUncalledOverrides:
    """An estimator override the engine would never call is an error,
    raised before any lane is mapped."""

    @pytest.mark.parametrize(
        "method, hook",
        [
            ("estimate_next_health", "estimate_next_health_rows"),
            ("predict_temperature_batch", "ThermalPredictor.predict_batch"),
        ],
    )
    def test_override_raises_before_mapping(
        self, rig, population, floorplan, method, hook
    ):
        influence, estimators = rig

        def ignored(self, *args, **kwargs):
            raise AssertionError("the engine called an override")

        subclass = type("Overriding", (OnlineHealthEstimator,), {method: ignored})
        stock = estimators[0]
        odd = subclass(stock.predictor, stock.table)
        lanes = [
            MapperLane(
                mapper=HayatMapper(est),
                state=build_state(chip, floorplan, influence, APPS[0], 12, 3),
                fmax_now_ghz=chip.fmax_init_ghz,
                health_now=np.ones(chip.num_cores),
                elapsed_years=0.0,
            )
            for chip, est in zip(population[:2], (stock, odd))
        ]
        with pytest.raises(TypeError, match=f"Overriding overrides {method}.*{hook}"):
            map_threads_batch(lanes, 0.5)
        assert (lanes[0].state.assignment < 0).all()
        with pytest.raises(TypeError, match=method):
            HayatMapper(odd).map_threads(
                lanes[1].state, lanes[1].fmax_now_ghz, lanes[1].health_now,
                0.5, 0.0,
            )


class TestManagerBatch:
    @staticmethod
    def _mixes():
        return [
            make_mix(apps, count, np.random.default_rng(90 + i))
            for i, (apps, count) in enumerate(zip(APPS, COUNTS))
        ]

    @pytest.mark.parametrize(
        "policy_type", [HayatManager, VAAManager, CoolestFirstManager],
        ids=lambda policy_type: policy_type.__name__,
    )
    def test_prepare_epoch_batch_matches_per_lane(
        self, policy_type, population, aging_table
    ):
        """The full manager path — Hayat's DCM, fencing, batched
        mapping and unmapped absorption; VAA's hill climb; Coolest's
        shared DCM — equals per-lane ``prepare_epoch``."""
        policy = policy_type()
        mixes = self._mixes()
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

    def test_vaa_batch_over_two_floorplan_shapes(
        self, population, small_floorplan, aging_table
    ):
        """Each VAA lane reads the hop matrix of its own context, so
        interleaved 8x8 and 4x4 lanes each match their solo decision."""
        small_chips = generate_population(2, seed=3, floorplan=small_floorplan)
        chips = [population[0], small_chips[0], population[1], small_chips[1]]
        mixes = [
            make_mix(["bodytrack", "x264"], 16, np.random.default_rng(70)),
            make_mix(["dedup"], 6, np.random.default_rng(71)),
            make_mix(["dedup", "ferret"], 12, np.random.default_rng(72)),
            make_mix(["ferret"], 7, np.random.default_rng(73)),
        ]
        make_ctxs = lambda: [
            ChipContext(chip, aging_table, dark_fraction_min=0.5)
            for chip in chips
        ]
        policy = VAAManager()
        batch_states = policy.prepare_epoch_batch(make_ctxs(), mixes, 0.5)
        solo_states = [
            policy.prepare_epoch(ctx, mix, 0.5)
            for ctx, mix in zip(make_ctxs(), mixes)
        ]
        assert [state.num_cores for state in batch_states] == [64, 16, 64, 16]
        for got, want in zip(batch_states, solo_states):
            assert_states_identical(got, want)

    def test_vaa_batch_honours_prepare_epoch_override(
        self, population, aging_table
    ):
        """A subclass that overrides only ``prepare_epoch`` gets its
        override on every lane of a batch."""

        class HalfSpeed(VAAManager):
            def prepare_epoch(self, ctx, mix, epoch_years):
                calls.append(ctx.chip.chip_id)
                state = super().prepare_epoch(ctx, mix, epoch_years)
                for core in np.flatnonzero(state.assignment >= 0):
                    state.set_frequency(int(core), 0.5 * state.freq_ghz[core])
                return state

        calls = []
        make_ctxs = lambda: [
            ChipContext(chip, aging_table, dark_fraction_min=0.5)
            for chip in population
        ]
        mixes = self._mixes()
        states = HalfSpeed().prepare_epoch_batch(make_ctxs(), mixes, 0.5)
        plain = VAAManager().prepare_epoch_batch(make_ctxs(), mixes, 0.5)
        assert calls == [chip.chip_id for chip in population]
        for got, want in zip(states, plain):
            np.testing.assert_array_equal(got.assignment, want.assignment)
            np.testing.assert_array_equal(got.freq_ghz, 0.5 * want.freq_ghz)


def small_cfg(**overrides) -> SimulationConfig:
    base = dict(
        lifetime_years=1.0, epoch_years=0.5, dark_fraction_min=0.5,
        window_s=5.0, seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestEscapeHatches:
    """Campaign-level identity of the batched decision path with the
    per-chip engine."""

    @pytest.fixture(scope="class")
    def reference(self, population, aging_table):
        return run_campaign(
            [HayatManager()],
            config=small_cfg(), population=population, table=aging_table,
        )

    def test_batched_campaign_identical(
        self, reference, population, aging_table
    ):
        registry = MetricsRegistry()
        with use_registry(registry):
            batched = run_campaign(
                [HayatManager()],
                config=small_cfg(), population=population, table=aging_table,
                batch_size=len(population),
            )
        for a, b in zip(reference.results["hayat"], batched.results["hayat"]):
            assert result_to_dict(a) == result_to_dict(b)
        assert registry.counter("sim.decision_batched_lanes") > 0
