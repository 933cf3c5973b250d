"""Traffic matrices and mapping-level NoC metrics."""

import numpy as np
import pytest

from repro.floorplan import Floorplan
from repro.mapping import ChipState, DarkCoreMap
from repro.noc import MeshTopology, evaluate_mapping, traffic_matrix
from repro.workload import PARSEC_PROFILES, ThreadSpec, make_mix
from tests.noc_reference import reference_traffic_matrix


def build_state(cores_for_threads, mix_names=("dedup", "ferret"), n=16):
    threads = make_mix(list(mix_names), len(cores_for_threads), np.random.default_rng(0)).threads
    dcm = DarkCoreMap.from_on_indices(n, cores_for_threads)
    state = ChipState(n, threads, dcm)
    for i, core in enumerate(cores_for_threads):
        state.place(i, core, 2.5)
    return state


class TestTrafficMatrix:
    def test_same_app_threads_communicate(self):
        state = build_state([0, 1, 2, 3, 4, 5, 6])
        traffic = traffic_matrix(state)
        # dedup has min 3 threads; its threads talk pairwise.
        app0_cores = [
            c for c in range(7)
            if state.threads[state.assignment[c]].app_name.startswith("dedup")
        ]
        a, b = app0_cores[0], app0_cores[1]
        assert traffic[a, b] > 0

    def test_cross_app_silence(self):
        state = build_state([0, 1, 2, 3, 4, 5, 6])
        traffic = traffic_matrix(state)
        dedup = [
            c for c in range(7)
            if state.threads[state.assignment[c]].app_name.startswith("dedup")
        ]
        ferret = [
            c for c in range(7)
            if state.threads[state.assignment[c]].app_name.startswith("ferret")
        ]
        assert traffic[dedup[0], ferret[0]] == 0.0

    def test_scales_with_frequency(self):
        slow = build_state([0, 1, 2, 3, 4, 5, 6])
        fast = build_state([0, 1, 2, 3, 4, 5, 6])
        for core in range(7):
            fast.set_frequency(core, 3.0)
        assert traffic_matrix(fast).sum() > traffic_matrix(slow).sum()

    def test_empty_mapping_no_traffic(self):
        threads = make_mix(["dedup"], 3, np.random.default_rng(0)).threads
        state = ChipState(16, threads, DarkCoreMap.from_on_indices(16, [0, 1, 2]))
        assert traffic_matrix(state).sum() == 0.0

    def test_rejects_nonpositive_nominal(self):
        state = build_state([0, 1, 2, 3, 4, 5, 6])
        with pytest.raises(ValueError):
            traffic_matrix(state, nominal_ghz=0.0)


def _fuzz_state(seed):
    """A random mapping: a mixed workload (sometimes with a thread of an
    unknown application, which talks at the fallback intensity), a
    random subset of threads placed, throttled cores at random
    frequencies, and now and then nothing mapped at all."""
    rng = np.random.default_rng(seed)
    n = 16 if seed % 2 else 64
    names = list(rng.choice(sorted(PARSEC_PROFILES), size=int(rng.integers(1, 4)), replace=False))
    least = sum(PARSEC_PROFILES[name].min_threads for name in names)
    threads = make_mix(names, int(rng.integers(least, max(least, n // 2) + 1)), rng).threads
    if seed % 3 == 0:
        solo = threads[0]
        threads.append(ThreadSpec("synthetic#0", 0, 1.0, 0.5, 1.0, solo.trace))
    cores = rng.permutation(n)[: len(threads)]
    state = ChipState(n, threads, DarkCoreMap.from_on_indices(n, sorted(cores.tolist())))
    placed = 0 if seed % 7 == 0 else int(rng.integers(1, len(threads) + 1))
    for index in rng.permutation(len(threads))[:placed]:
        state.place(int(index), int(cores[index]), float(rng.uniform(1.0, 3.6)))
    for core in np.flatnonzero(state.assignment >= 0):
        if rng.random() < 0.3:
            state.set_frequency(int(core), float(rng.uniform(0.4, 2.0)), throttled=True)
    return state


class TestTrafficMatrixReference:
    @pytest.mark.parametrize("nominal", [3.0, 2.2])
    def test_bit_equal_to_pair_loop(self, nominal):
        """The masked-array rates equal the per-pair loop bit for bit
        over mixed and one-thread applications, throttled frequencies
        and empty mappings."""
        shapes = set()
        for seed in range(120):
            state = _fuzz_state(seed)
            fast = traffic_matrix(state, nominal)
            ref = reference_traffic_matrix(state, nominal)
            np.testing.assert_array_equal(fast.view(np.int64), ref.view(np.int64))
            apps = [state.threads[i].app_name for i in state.assignment if i >= 0]
            shapes.add("mapped" if apps else "empty")
            if any(apps.count(name) == 1 for name in apps):
                shapes.add("one-thread")
            if state.throttled.any():
                shapes.add("throttled")
        assert shapes == {"empty", "mapped", "one-thread", "throttled"}


class TestEvaluateMapping:
    def test_packed_cheaper_than_spread(self):
        """The Fattah objective: contiguity reduces weighted hops."""
        mesh = MeshTopology(Floorplan(4, 4))
        packed = build_state([0, 1, 2, 4, 5, 6, 8])
        spread = build_state([0, 3, 12, 15, 5, 10, 6])
        report_packed = evaluate_mapping(packed, mesh)
        report_spread = evaluate_mapping(spread, mesh)
        assert report_packed.weighted_hops < report_spread.weighted_hops
        assert report_packed.mean_hops < report_spread.mean_hops

    def test_total_traffic_mapping_invariant(self):
        """Injected traffic depends on the mix, not on placement."""
        mesh = MeshTopology(Floorplan(4, 4))
        a = build_state([0, 1, 2, 4, 5, 6, 8])
        b = build_state([0, 3, 12, 15, 5, 10, 6])
        ra = evaluate_mapping(a, mesh)
        rb = evaluate_mapping(b, mesh)
        assert ra.total_traffic == pytest.approx(rb.total_traffic)

    def test_power_proportional_to_weighted_hops(self):
        mesh = MeshTopology(Floorplan(4, 4))
        state = build_state([0, 1, 2, 4, 5, 6, 8])
        report = evaluate_mapping(state, mesh)
        assert report.noc_power_w == pytest.approx(
            report.weighted_hops * 8.0e-3
        )

    def test_congestion_positive_when_traffic_flows(self):
        mesh = MeshTopology(Floorplan(4, 4))
        state = build_state([0, 1, 2, 4, 5, 6, 8])
        assert evaluate_mapping(state, mesh).max_link_load > 0
