"""The incremental delta-candidate engine (`repro.core.delta_eval`).

Three contracts are pinned here:

* **Thermal accuracy** — `DeltaEvaluator.solve_base` reproduces the
  dense ``predict_batch`` temperatures bit for bit on the base rows,
  and `candidate_temps` reconstructs candidate rows within the
  documented off-column linearization bound (numerically exact with
  ``leakage_iterations=0``).
* **Decision identity** — Algorithm 1 with the delta path engaged makes
  the same placements as the dense path across feasibility regimes
  (plenty of slack, strict/infeasible, every-candidate-overshoots,
  mixed batched lanes, dark cores), and the escape hatch
  (``enabled=False`` / ``--no-delta-candidates``) restores the dense
  path verbatim (zero delta rounds, no ``sim.delta_eval`` timer).
* **Campaign identity** — whole campaigns run bit-identical with the
  engine on or off, including through a kill-mid-campaign checkpoint
  resume.
"""

import numpy as np
import pytest

from repro.core import HayatManager, HayatMapper, MappingError, OnlineHealthEstimator
from repro.core.dcm import temperature_optimized_dcm
from repro.core.delta_eval import (
    DeltaEvaluator,
    DeltaOptions,
    current_delta_options,
    delta_options,
)
from repro.core.mapper_batch import MapperLane, map_threads_batch
from repro.mapping import ChipState
from repro.obs import MetricsRegistry, use_registry
from repro.power import PowerModel
from repro.sim import (
    CampaignCheckpoint,
    CampaignJobError,
    SimulationConfig,
    run_campaign,
)
from repro.sim.export import result_to_dict
from repro.thermal import ThermalPredictor, ThermalRCNetwork
from repro.variation import generate_population
from repro.workload import make_mix
from tests.mapper_reference import reference_map_threads
from tests.test_sim_checkpoint import InterruptedHayat
from tests.test_sim_supervisor import tiny_config

#: Documented worst-case off-column linearization error (kelvin) for
#: full thread-power deltas; measured maxima sit an order below this.
LINEARIZATION_BOUND_K = 0.1


@pytest.fixture(scope="module")
def rig(population, floorplan):
    net = ThermalRCNetwork(floorplan)
    predictors = [
        ThermalPredictor.learn(net, PowerModel.for_chip(chip))
        for chip in population
    ]
    return net.influence_matrix(), predictors


def _random_base_state(rng, n):
    """A mapper-shaped incumbent: gated cores, idle powered cores, and a
    loaded subset."""
    powered = rng.random(n) < 0.6
    freq = np.where(rng.random(n) < 0.4, rng.uniform(1.0, 3.0, n), 0.0)
    freq *= powered
    act = np.where(freq > 0, rng.uniform(0.3, 1.0, n), 0.0)
    temps0 = rng.uniform(310.0, 360.0, n)
    return freq, act, powered, temps0


def _dense_candidates(pred, freq, act, powered, temps0, cand, newf, newa):
    """The dense-path temperatures for candidate rows (reference)."""
    b = cand.size
    fb = np.tile(freq, (b, 1))
    ab = np.tile(act, (b, 1))
    rows = np.arange(b)
    fb[rows, cand] = newf
    ab[rows, cand] = newa
    return pred.predict_batch(
        fb, ab, np.tile(powered, (b, 1)), initial_temps_k=temps0
    )


class TestThermalAccuracy:
    def test_base_rows_bit_identical(self, rig, population):
        _, predictors = rig
        rng = np.random.default_rng(11)
        for chip, pred in zip(population, predictors):
            ev = DeltaEvaluator(pred)
            freq, act, powered, temps0 = _random_base_state(
                rng, chip.num_cores
            )
            base = ev.solve_base(freq, act, powered, temps0)
            dense = pred.predict_batch(
                freq[None], act[None], powered[None], initial_temps_k=temps0
            )
            np.testing.assert_array_equal(base.final, dense)

    def test_candidate_error_within_bound(self, rig, population):
        _, predictors = rig
        rng = np.random.default_rng(7)
        checked = 0
        for chip, pred in zip(population, predictors):
            ev = DeltaEvaluator(pred)
            n = chip.num_cores
            for _ in range(4):
                freq, act, powered, temps0 = _random_base_state(rng, n)
                cand = np.flatnonzero(powered & (freq == 0))[:20]
                if cand.size == 0:
                    continue
                newf, newa = 2.8, 0.9
                dense = _dense_candidates(
                    pred, freq, act, powered, temps0, cand, newf, newa
                )
                base = ev.solve_base(freq, act, powered, temps0)
                new_dyn = pred.power_model.dynamic.power_w(newf, newa)
                got = ev.candidate_temps(
                    base,
                    np.zeros(cand.size, dtype=np.intp),
                    cand,
                    np.full(cand.size, new_dyn),
                )
                assert np.abs(got - dense).max() < LINEARIZATION_BOUND_K
                checked += cand.size
        assert checked > 100  # the sweep actually exercised candidates

    def test_exact_without_leakage_feedback(self, floorplan, population):
        """With ``leakage_iterations=0`` the rank-1 seed is the whole
        answer: no feedback pass exists to linearize."""
        net = ThermalRCNetwork(floorplan)
        pred = ThermalPredictor.learn(
            net, PowerModel.for_chip(population[0]), leakage_iterations=0
        )
        ev = DeltaEvaluator(pred)
        rng = np.random.default_rng(1)
        freq, act, powered, temps0 = _random_base_state(
            rng, population[0].num_cores
        )
        cand = np.flatnonzero(powered & (freq == 0))[:10]
        dense = _dense_candidates(
            pred, freq, act, powered, temps0, cand, 2.5, 0.7
        )
        base = ev.solve_base(freq, act, powered, temps0)
        new_dyn = pred.power_model.dynamic.power_w(2.5, 0.7)
        got = ev.candidate_temps(
            base,
            np.zeros(cand.size, dtype=np.intp),
            cand,
            np.full(cand.size, new_dyn),
        )
        np.testing.assert_allclose(got, dense, atol=1e-9)

    def test_multi_lane_base_matches_per_lane(self, rig, population):
        """Stacked lanes solve to the same values as solo lanes (up to
        the last-bit GEMV/GEMM rounding difference a one-row matmul
        carries — the dense ``predict_batch`` has the same property)."""
        _, predictors = rig
        pred = predictors[0]
        ev = DeltaEvaluator(pred)
        rng = np.random.default_rng(3)
        n = population[0].num_cores
        states = [_random_base_state(rng, n) for _ in range(3)]
        stacked = ev.solve_base(
            np.stack([s[0] for s in states]),
            np.stack([s[1] for s in states]),
            np.stack([s[2] for s in states]),
            np.stack([s[3] for s in states]),
        )
        for lane, (freq, act, powered, temps0) in enumerate(states):
            solo = ev.solve_base(freq, act, powered, temps0)
            np.testing.assert_allclose(
                stacked.final[lane], solo.final[0], rtol=0, atol=1e-10
            )
            cand = np.flatnonzero(powered & (freq == 0))[:8]
            if cand.size == 0:
                continue
            new_dyn = pred.power_model.dynamic.power_w(2.6, 0.8)
            lanes = np.full(cand.size, lane, dtype=np.intp)
            got = ev.candidate_temps(
                stacked, lanes, cand, np.full(cand.size, new_dyn)
            )
            want = ev.candidate_temps(
                solo,
                np.zeros(cand.size, dtype=np.intp),
                cand,
                np.full(cand.size, new_dyn),
            )
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def build_state(chip, floorplan, influence, num_threads=16, seed=0):
    mix = make_mix(
        ["bodytrack", "x264"], num_threads, np.random.default_rng(seed)
    )
    dcm = temperature_optimized_dcm(floorplan, num_threads, influence)
    return ChipState(chip.num_cores, mix.threads, dcm)


@pytest.fixture(scope="module")
def mapper_rig(population, floorplan, aging_table, rig):
    influence, predictors = rig
    estimator = OnlineHealthEstimator(predictors[0], aging_table)
    return influence, estimator, population[0]


def _map_both_ways(mapper_rig, floorplan, fmax=None, **mapper_kwargs):
    """Run one mapping problem with the delta engine on and off;
    returns ((state, unmapped), (state, unmapped)).

    ``min_dense_rows=0`` forces every round onto the delta path — the
    single-lane problems here sit below the default cost gate, and the
    point is to compare the two arithmetic routes, not the gate.
    """
    influence, estimator, chip = mapper_rig
    fmax = chip.fmax_init_ghz if fmax is None else fmax
    outcomes = []
    for enabled in (True, False):
        state = build_state(chip, floorplan, influence)
        with delta_options(enabled=enabled, min_dense_rows=0):
            unmapped = HayatMapper(estimator, **mapper_kwargs).map_threads(
                state, fmax, np.ones(chip.num_cores), 0.5, 0.0
            )
        outcomes.append((state, unmapped))
    return outcomes


class TestMapperDecisionIdentity:
    def test_delta_matches_dense_decisions(self, mapper_rig, floorplan):
        (on_state, on_unmapped), (off_state, off_unmapped) = _map_both_ways(
            mapper_rig, floorplan
        )
        assert on_unmapped == off_unmapped == []
        np.testing.assert_array_equal(on_state.assignment, off_state.assignment)
        np.testing.assert_array_equal(on_state.freq_ghz, off_state.freq_ghz)

    def test_counters_and_timer_recorded(self, mapper_rig, floorplan):
        influence, estimator, chip = mapper_rig
        state = build_state(chip, floorplan, influence)
        registry = MetricsRegistry()
        with use_registry(registry), delta_options(
            enabled=True, min_dense_rows=0
        ):
            HayatMapper(estimator).map_threads(
                state, chip.fmax_init_ghz, np.ones(chip.num_cores), 0.5, 0.0
            )
        snapshot = registry.snapshot()
        assert snapshot.counters["sim.delta_rounds"] == 16
        # Idle cores of every candidate row skip the walk.
        assert snapshot.counters["aging.walk_idle"] > 0
        assert snapshot.timers["sim.delta_eval"].count == 16

    def test_escape_hatch_restores_dense(self, mapper_rig, floorplan):
        influence, estimator, chip = mapper_rig
        state = build_state(chip, floorplan, influence)
        registry = MetricsRegistry()
        with use_registry(registry), delta_options(enabled=False):
            HayatMapper(estimator).map_threads(
                state, chip.fmax_init_ghz, np.ones(chip.num_cores), 0.5, 0.0
            )
        snapshot = registry.snapshot()
        assert "sim.delta_rounds" not in snapshot.counters
        assert "sim.delta_eval" not in snapshot.timers

    def test_strict_infeasible_still_raises(self, mapper_rig, floorplan):
        influence, estimator, chip = mapper_rig
        state = build_state(chip, floorplan, influence)
        slow = np.full(chip.num_cores, 0.5)
        with delta_options(enabled=True, min_dense_rows=0):
            with pytest.raises(MappingError):
                HayatMapper(estimator, strict=True).map_threads(
                    state, slow, np.ones(chip.num_cores), 0.5, 0.0
                )

    def test_nonstrict_unmapped_matches_dense(self, mapper_rig, floorplan):
        slow = np.full(mapper_rig[2].num_cores, 0.5)
        (on_state, on_unmapped), (off_state, off_unmapped) = _map_both_ways(
            mapper_rig, floorplan, fmax=slow
        )
        assert on_unmapped == off_unmapped
        assert len(on_unmapped) == 16
        np.testing.assert_array_equal(on_state.assignment, off_state.assignment)

    def test_all_overshoot_fallback_matches_dense(self, mapper_rig, floorplan):
        """With an impossible Tsafe every candidate overshoots; both
        paths must fall back to the same least-bad placement."""
        (on_state, on_unmapped), (off_state, off_unmapped) = _map_both_ways(
            mapper_rig, floorplan, tsafe_k=300.0
        )
        assert on_unmapped == off_unmapped
        np.testing.assert_array_equal(on_state.assignment, off_state.assignment)

    def test_subclassed_estimator_bypasses_delta(self, mapper_rig, floorplan):
        """A subclass may override estimation semantics the evaluator
        replays, so engagement requires the exact classes."""
        influence, estimator, chip = mapper_rig

        class TweakedEstimator(OnlineHealthEstimator):
            pass

        tweaked = TweakedEstimator(estimator.predictor, estimator.table)
        state = build_state(chip, floorplan, influence)
        registry = MetricsRegistry()
        with use_registry(registry), delta_options(
            enabled=True, min_dense_rows=0
        ):
            HayatMapper(tweaked).map_threads(
                state, chip.fmax_init_ghz, np.ones(chip.num_cores), 0.5, 0.0
            )
        assert "sim.delta_rounds" not in registry.snapshot().counters

    def test_cost_gate_keeps_small_rounds_dense(self, mapper_rig, floorplan):
        """Under the default gate a single 64-core lane never reaches
        ``min_dense_rows``, so the engine (though enabled) stays on the
        dense kernels — and still places identically."""
        influence, estimator, chip = mapper_rig
        state = build_state(chip, floorplan, influence)
        registry = MetricsRegistry()
        with use_registry(registry), delta_options(enabled=True):
            HayatMapper(estimator).map_threads(
                state, chip.fmax_init_ghz, np.ones(chip.num_cores), 0.5, 0.0
            )
        assert "sim.delta_rounds" not in registry.snapshot().counters
        forced = build_state(chip, floorplan, influence)
        with delta_options(enabled=True, min_dense_rows=0):
            HayatMapper(estimator).map_threads(
                forced, chip.fmax_init_ghz, np.ones(chip.num_cores), 0.5, 0.0
            )
        np.testing.assert_array_equal(state.assignment, forced.assignment)


class TestBatchedLanes:
    def test_mixed_lanes_match_sequential_under_delta(
        self, population, floorplan, aging_table, rig
    ):
        """Lanes with different thread counts, health maps, and warm
        starts: the batched engine under the delta path must equal the
        sequential reference loop (which also runs the delta path) bit
        for bit."""
        influence, predictors = rig
        rng = np.random.default_rng(5)
        lanes, twins = [], []
        for i, (chip, pred, count) in enumerate(
            zip(population, predictors, (12, 16, 20))
        ):
            est = OnlineHealthEstimator(pred, aging_table)
            health = rng.uniform(0.9, 1.0, chip.num_cores)
            fmax = chip.fmax_init_ghz * health
            temps = (
                rng.uniform(320.0, 350.0, chip.num_cores) if i % 2 else None
            )
            pair = []
            for _ in range(2):
                pair.append(
                    MapperLane(
                        mapper=HayatMapper(est),
                        state=build_state(
                            chip, floorplan, influence, num_threads=count,
                            seed=i,
                        ),
                        fmax_now_ghz=fmax,
                        health_now=health,
                        elapsed_years=0.5 * i,
                        initial_temps_k=temps,
                    )
                )
            lanes.append(pair[0])
            twins.append(pair[1])
        with delta_options(enabled=True, min_dense_rows=0):
            got_unmapped = map_threads_batch(lanes, 0.5)
            for lane, twin, got in zip(lanes, twins, got_unmapped):
                want = reference_map_threads(
                    twin.mapper,
                    twin.state,
                    twin.fmax_now_ghz,
                    twin.health_now,
                    0.5,
                    twin.elapsed_years,
                    initial_temps_k=twin.initial_temps_k,
                )
                assert got == want
                np.testing.assert_array_equal(
                    lane.state.assignment, twin.state.assignment
                )
                np.testing.assert_array_equal(
                    lane.state.freq_ghz, twin.state.freq_ghz
                )

    def test_batched_delta_counters(
        self, population, floorplan, aging_table, rig
    ):
        influence, predictors = rig
        lanes = [
            MapperLane(
                mapper=HayatMapper(
                    OnlineHealthEstimator(pred, aging_table)
                ),
                state=build_state(
                    chip, floorplan, influence, num_threads=16, seed=9
                ),
                fmax_now_ghz=chip.fmax_init_ghz,
                health_now=np.ones(chip.num_cores),
                elapsed_years=0.0,
            )
            for chip, pred in zip(population, predictors)
        ]
        registry = MetricsRegistry()
        with use_registry(registry), delta_options(
            enabled=True, min_dense_rows=0
        ):
            map_threads_batch(lanes, 0.5)
        snapshot = registry.snapshot()
        assert snapshot.counters["sim.delta_rounds"] > 0
        assert snapshot.counters["aging.walk_idle"] > 0
        assert snapshot.timers["sim.delta_eval"].count > 0


class TestOptionsPlumbing:
    def test_defaults_enabled(self):
        assert DeltaOptions() == DeltaOptions(enabled=True)
        assert current_delta_options().enabled

    def test_nested_contexts_inherit_and_restore(self):
        with delta_options(enabled=False):
            assert not current_delta_options().enabled
            with delta_options():
                assert not current_delta_options().enabled
            with delta_options(enabled=True):
                assert current_delta_options().enabled
        assert current_delta_options().enabled

    def test_min_dense_rows_inherits_through_nesting(self):
        """The campaign wrappers re-wrap with ``enabled`` only, so a
        test's outer gate override must survive the inner context."""
        default = current_delta_options().min_dense_rows
        assert default > 0
        with delta_options(min_dense_rows=0):
            with delta_options(enabled=True):
                assert current_delta_options().min_dense_rows == 0
        assert current_delta_options().min_dense_rows == default

    def test_config_field_default(self):
        assert SimulationConfig().delta_candidates is True


class TestCampaignIdentity:
    def test_campaign_bit_identical_on_and_off(self, aging_table):
        cfg = SimulationConfig(
            lifetime_years=1.0, epoch_years=0.5, window_s=10.0, seed=3
        )
        population = generate_population(3, seed=29)
        runs = {}
        for enabled in (True, False):
            with delta_options(min_dense_rows=0):
                runs[enabled] = run_campaign(
                    [HayatManager()],
                    config=dataclass_replace(cfg, delta_candidates=enabled),
                    population=population,
                    table=aging_table,
                )
        for a, b in zip(
            runs[True].results["hayat"], runs[False].results["hayat"]
        ):
            assert result_to_dict(a) == result_to_dict(b)

    def test_kill_mid_campaign_resume_with_delta(self, aging_table, tmp_path):
        """Checkpoint resume under the delta engine: the resumed
        campaign reproduces the uninterrupted one bit for bit."""
        cfg = tiny_config()
        population = generate_population(3, seed=29)
        path = str(tmp_path / "campaign.jsonl")
        with delta_options(enabled=True, min_dense_rows=0):
            reference = run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=aging_table,
            )
            with pytest.raises(CampaignJobError):
                run_campaign(
                    [InterruptedHayat()],
                    config=cfg, population=population, table=aging_table,
                    checkpoint=path,
                )
            assert len(CampaignCheckpoint(path)) == 1
            resumed = run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=aging_table,
                checkpoint=path,
            )
        for a, b in zip(
            reference.results["hayat"], resumed.results["hayat"]
        ):
            assert result_to_dict(a) == result_to_dict(b)


def dataclass_replace(cfg, **changes):
    import dataclasses

    return dataclasses.replace(cfg, **changes)
