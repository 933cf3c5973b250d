"""Fleet service: result store, running aggregates, daemon lifecycle.

The subprocess tests (SIGKILL mid-run) spawn the CLI daemon against a
tmp fleet directory; everything else drives the daemon in-process with
``drain=True`` so no test ever polls an empty spool.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.sim import Scenario, ScenarioError, run_campaign
from repro.sim import scenario as scenario_module
from repro.sim.fleet import (
    FleetDaemon,
    ResultStore,
    ShortBlockError,
    aggregate_campaign,
    aggregate_store,
    fleet_status,
    result_blocks,
    result_scalars,
    submit_request,
)
from repro.sim.checkpoint import campaign_digest, job_keys
from repro.sim.fleet import daemon as daemon_module
from repro.sim.fleet.aggregates import PERCENTILES, Histogram, RunningStat
from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.variation import generate_population
from tests.test_sim_supervisor import tiny_config


def loop_percentile(histogram: Histogram, q: float):
    """The per-bin percentile loop the vectorized one replaced: the
    oracle it must match bit for bit."""
    if histogram.total == 0:
        return None
    target = q / 100.0 * histogram.total
    width = (histogram.hi - histogram.lo) / len(histogram.counts)
    cumulative = 0
    for index, count in enumerate(histogram.counts):
        if count == 0:
            continue
        if cumulative + count >= target:
            within = (target - cumulative) / count
            return histogram.lo + (index + within) * width
        cumulative += count
    return histogram.hi


def fleet_request(**overrides) -> dict:
    """The canonical tiny fleet request the daemon tests share."""
    request = {
        "policies": ["vaa", "hayat"],
        "chips": 2,
        "dark_fractions": [0.5],
        "years": 0.5,
        "config": {"epoch_years": 0.5, "window_s": 3.0},
        "seed": 3,
        "baseline": "vaa",
    }
    request.update(overrides)
    return request


@pytest.fixture(scope="module")
def lifetime_results(aging_table):
    campaign = run_campaign(
        [VAAManager(), HayatManager()],
        config=tiny_config(),
        population=generate_population(2, seed=29),
        table=aging_table,
    )
    return campaign


class TestResultStore:
    def test_append_then_reopen_round_trips(self, lifetime_results, tmp_path):
        result = lifetime_results.results["hayat"][0]
        with ResultStore(str(tmp_path / "store")) as store:
            record = store.append("job-a", result, requirement_ghz=1.0)
        with ResultStore(str(tmp_path / "store")) as reopened:
            assert len(reopened) == 1 and "job-a" in reopened
            back = reopened.record("job-a")
            assert back == json.loads(json.dumps(record))
            expected = json.loads(
                json.dumps(result_scalars(result, requirement_ghz=1.0))
            )
            assert back["scalars"] == expected
            for name, block in result_blocks(result).items():
                np.testing.assert_array_equal(
                    reopened.block(back, name), block
                )

    def test_missing_key_is_none(self, tmp_path):
        with ResultStore(str(tmp_path / "store")) as store:
            assert store.record("nope") is None
            assert "nope" not in store

    def test_torn_tail_is_silent_midfile_corruption_is_not(
        self, lifetime_results, tmp_path
    ):
        result = lifetime_results.results["hayat"][0]
        directory = str(tmp_path / "store")
        with ResultStore(directory) as store:
            store.append("a", result, requirement_ghz=1.0)
            store.append("b", result, requirement_ghz=1.0)
        scalars = os.path.join(directory, "scalars.jsonl")
        lines = open(scalars, "rb").read().splitlines(keepends=True)
        # Torn final line: silent (dirty shutdown).
        with open(scalars, "wb") as handle:
            handle.write(lines[0] + lines[1][: len(lines[1]) // 2])
        with ResultStore(directory) as store:
            assert len(store) == 1 and store.truncated_tail
            assert store.skipped_lines == 0
        # Same torn bytes mid-file: corruption, counted and warned.
        with open(scalars, "wb") as handle:
            handle.write(lines[1][: len(lines[1]) // 2] + b"\n" + lines[0])
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.warns(RuntimeWarning, match="mid-file corruption"):
                with ResultStore(directory) as store:
                    assert len(store) == 1
                    assert store.skipped_lines == 1
        assert registry.counter("fleet.store_skipped_lines") == 1

    def test_short_block_read_raises(self, lifetime_results, tmp_path):
        """A blocks file shorter than a record says fails loudly, naming
        the offset and both byte counts, instead of returning a short
        health map."""
        result = lifetime_results.results["hayat"][0]
        directory = str(tmp_path / "store")
        with ResultStore(directory) as store:
            record = store.append("a", result, requirement_ghz=1.0)
        offset, count = record["blocks"]["final_health"]
        blocks = os.path.join(directory, "blocks.bin")
        os.truncate(blocks, os.path.getsize(blocks) - 16)
        with ResultStore(directory) as store:
            with pytest.raises(ShortBlockError) as caught:
                store.block(store.record("a"), "final_health")
        error = caught.value
        assert (error.offset, error.expected, error.actual) == (
            offset, 4 * count, 4 * count - 16
        )
        assert f"byte {offset}" in str(error)

    def test_append_after_blocks_shrink_reads_back(
        self, lifetime_results, tmp_path
    ):
        """The blocks appender takes each offset from the file's size, so
        a record appended after ``blocks.bin`` shrank under the open store
        points at its own bytes."""
        result = lifetime_results.results["hayat"][0]
        directory = str(tmp_path / "store")
        with ResultStore(directory) as store:
            store.append("a", result, requirement_ghz=1.0)
            blocks = os.path.join(directory, "blocks.bin")
            cut = os.path.getsize(blocks) - 16
            os.truncate(blocks, cut)
            record = store.append("b", result, requirement_ghz=1.0)
            assert record["blocks"]["avg_fmax"][0] == cut
            for name, array in result_blocks(result).items():
                np.testing.assert_array_equal(store.block(record, name), array)

    def test_duplicate_key_keeps_last_record(self, lifetime_results, tmp_path):
        first = lifetime_results.results["hayat"][0]
        second = lifetime_results.results["hayat"][1]
        with ResultStore(str(tmp_path / "store")) as store:
            store.append("k", first, requirement_ghz=1.0)
            store.append("k", second, requirement_ghz=1.0)
            assert len(store) == 1
        with ResultStore(str(tmp_path / "store")) as reopened:
            assert reopened.record("k")["scalars"]["chip_id"] == second.chip_id

    def test_thousand_job_store_stays_indexed_not_resident(
        self, lifetime_results, tmp_path
    ):
        """The million-job contract in miniature: N appended jobs cost
        the store one (offset, length) index entry each — results live
        on disk, and streaming them back visits every record."""
        result = lifetime_results.results["hayat"][0]
        with ResultStore(str(tmp_path / "store")) as store:
            for index in range(1000):
                store.append(f"job-{index}", result, requirement_ghz=1.0)
            assert len(store) == 1000
            assert all(
                isinstance(v, tuple) and len(v) == 2
                for v in store._index.values()
            )
            assert sum(1 for _ in store.records()) == 1000
        aggregates = aggregate_store(ResultStore(str(tmp_path / "store")))
        assert aggregates.jobs == 1000


class TestAggregates:
    def test_running_stat_matches_numpy(self):
        values = np.linspace(-3.0, 7.0, 101)
        stat = RunningStat()
        for value in values:
            stat.add(value)
        assert stat.count == values.size
        np.testing.assert_allclose(stat.mean, values.mean())
        np.testing.assert_allclose(stat.stddev, values.std(ddof=1))
        assert (stat.min, stat.max) == (values.min(), values.max())

    def test_running_stat_skips_non_finite(self):
        stat = RunningStat()
        for value in (1.0, None, float("nan"), float("inf"), 3.0):
            stat.add(value)
        assert stat.count == 2 and stat.mean == 2.0

    def test_histogram_percentiles_on_uniform_data(self):
        histogram = Histogram(0.0, 1.0, bins=256)
        histogram.add_array(np.linspace(0.0, 1.0, 10_001))
        for q in (5.0, 50.0, 95.0):
            assert histogram.percentile(q) == pytest.approx(
                q / 100.0, abs=2.0 / 256
            )
        assert Histogram(0.0, 1.0).percentile(50.0) is None

    def test_percentiles_match_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(2015)
        bins = 64
        layouts = [np.zeros(bins, dtype=np.int64)]
        for total in (1, 2, 3, 7, 10, 100, 1_000, 10_000, 100_000):
            for where in (0, bins - 1, int(rng.integers(bins))):
                one = np.zeros(bins, dtype=np.int64)
                one[where] = total
                layouts.append(one)
            ends = np.zeros(bins, dtype=np.int64)
            ends[0], ends[-1] = total // 2, total - total // 2
            layouts.append(ends)
            sparse = np.zeros(bins, dtype=np.int64)
            occupied = rng.choice(bins, size=5, replace=False)
            sparse[occupied] = rng.multinomial(total, np.full(5, 0.2))
            layouts.append(sparse)
            layouts.append(rng.multinomial(total, np.full(bins, 1.0 / bins)))
        qs = (*PERCENTILES, 0.0, 0.01, 33.3, 100.0, 101.0)
        for counts in layouts:
            histogram = Histogram(0.0, 50.0, bins=bins)
            histogram.counts[:] = counts
            histogram.total = int(counts.sum())
            got = histogram.percentiles(qs)
            for q, value in zip(qs, got):
                want = loop_percentile(histogram, q)
                if want is None:
                    assert value is None
                    continue
                assert float(value).hex() == float(want).hex(), (counts, q)
                assert histogram.percentile(q) == value

    def test_add_array_counts_like_scalar_adds(self):
        values = np.array(
            [-1.0, 0.0, 0.25, 0.5, 0.999, 1.0, 2.0, np.nan, np.inf, -np.inf]
        )
        vectorized, scalar = Histogram(0.0, 1.0, bins=8), Histogram(0.0, 1.0, bins=8)
        vectorized.add_array(values)
        for value in values:
            scalar.add(value)
        assert vectorized.total == scalar.total == 7
        np.testing.assert_array_equal(vectorized.counts, scalar.counts)

    def test_store_and_campaign_paths_agree_bit_for_bit(
        self, lifetime_results, tmp_path
    ):
        with ResultStore(str(tmp_path / "store")) as store:
            for policy, results in lifetime_results.results.items():
                for result in results:
                    store.append(
                        f"{policy}|{result.chip_id}",
                        result,
                        requirement_ghz=1.0,
                    )
            from_store = aggregate_store(store)
        from_campaign = aggregate_campaign(
            lifetime_results, requirement_ghz=1.0
        )
        assert json.dumps(
            from_store.to_dict(baseline="vaa"), sort_keys=True
        ) == json.dumps(from_campaign.to_dict(baseline="vaa"), sort_keys=True)

    def test_normalized_requires_a_recorded_baseline(self, lifetime_results):
        aggregates = aggregate_campaign(lifetime_results)
        with pytest.raises(ValueError, match="baseline policy 'missing'"):
            aggregates.normalized("missing")
        normalized = aggregates.normalized("vaa")
        assert set(normalized) == {"hayat"}
        assert 0.5 in normalized["hayat"]


#: Malformed campaign documents and the field each refusal must name.
#: A fleet request is a campaign document, so this one table pins the
#: field checks of ``Scenario.from_dict`` for scenarios and requests
#: alike, through ``submit_request`` (and, below, through a request
#: dropped straight into the spool).  Unknown names are checked by the
#: ``test_unknown_*`` tests of ``TestFleetRequest``.
BAD_DOCUMENTS = [
    ({"batch_size": 0}, "batch_size"),
    ({"batch_size": "big"}, "batch_size"),
    ({"batch_size": None}, "batch_size"),
    ({"dark_fractions": [1.5]}, "dark_fraction_min"),
    ({"dark_fractions": [-0.1]}, "dark_fraction_min"),
    ({"chips": 2.5}, "chips"),
    ({"population_seed": None}, "population_seed"),
    ({"allow_partial": "no"}, "allow_partial"),
    ({"requirement_ghz": None}, "requirement_ghz"),
    ({"request_id": "../escape"}, "request_id"),
    ({"config": {"dark_fraction_min": 0.25}}, "dark_fractions"),
    ({"years": "0.5"}, "lifetime_years"),
    ({"seed": 1.9}, "seed"),
    ({"config": {"lifetime_years": 2.0}}, "years and config.lifetime_years"),
    ({"policies": []}, "at least one policy"),
    ({"policies": [{"comm_weight": 2.0}]}, "'type'"),
    ({"policies": [{"type": "hayat", "nope": 1}]}, "bad arguments"),
    ({"policies": [{"type": "vaa", "boost": "false"}]}, "knob 'boost'"),
    ({"policies": [{"type": "hayat", "comm_weight": "2"}]}, "knob 'comm_weight'"),
    ({"policies": [{"type": "hayat", "comm_weight": True}]}, "knob 'comm_weight'"),
    ({"policies": [{"type": "vaa", "neighborhood_radius": 2.0}]}, "knob 'neighborhood_radius'"),
    (
        {"policies": ["hayat", {"type": "hayat", "comm_weight": 2.0}]},
        "duplicate policy names",
    ),
]


class TestFleetRequest:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ScenarioError, match="unknown policy"):
            Scenario.from_dict(fleet_request(policies=["warp-drive"]))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ScenarioError, match="unknown field"):
            Scenario.from_dict(fleet_request(frobnicate=True))

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown config field"):
            Scenario.from_dict(fleet_request(config={"warp": 9}))

    def test_baseline_must_be_requested(self):
        with pytest.raises(ScenarioError, match="baseline"):
            Scenario.from_dict(
                fleet_request(policies=["hayat"], baseline="vaa")
            )

    def test_content_addressed_request_id(self):
        a = Scenario.from_dict(fleet_request())
        b = Scenario.from_dict(fleet_request())
        c = Scenario.from_dict(fleet_request(seed=4))
        assert a.request_id == b.request_id != c.request_id

    def test_batch_size_defaults_to_the_cli_default(self):
        from repro.cli import _build_parser

        cli_default = _build_parser().parse_args(["campaign"]).batch_size
        assert Scenario.from_dict(fleet_request()).batch_size == cli_default
        assert Scenario.from_dict(fleet_request(batch_size=3)).batch_size == 3

    @pytest.mark.parametrize("bad,cause", BAD_DOCUMENTS, ids=str)
    def test_submit_rejects_bad_field(self, bad, cause, tmp_path):
        with pytest.raises(ScenarioError, match=cause):
            submit_request(str(tmp_path), fleet_request(**bad))
        assert not os.path.exists(tmp_path / "spool")

    def test_shortcuts_land_in_config(self):
        request = Scenario.from_dict(fleet_request(years=2.0, seed=7))
        (config,) = request.configs
        assert config.lifetime_years == 2.0
        assert config.seed == 7
        assert request.job_count == 4


class TestDaemon:
    def test_serve_then_repeat_is_all_cache_hits(self, tmp_path):
        root = str(tmp_path / "fleet")
        registry = MetricsRegistry()
        with use_registry(registry):
            with FleetDaemon(root, workers=1) as daemon:
                request_id = submit_request(root, fleet_request())
                assert daemon.serve(drain=True) == 1
                first = json.load(
                    open(os.path.join(root, "results", f"{request_id}.json"))
                )
                assert first["simulated"] == first["jobs"] == 4
                assert first["cache_hits"] == 0
                submit_request(root, fleet_request())
                assert daemon.serve(drain=True) == 1
                second = json.load(
                    open(os.path.join(root, "results", f"{request_id}.json"))
                )
        # Repeat submission answered fully from the store...
        assert second["cache_hits"] == second["jobs"]
        assert second["simulated"] == 0
        assert registry.counter("fleet.cache_hits") == second["jobs"]
        # ...with byte-identical aggregates.
        assert json.dumps(first["aggregates"], sort_keys=True) == json.dumps(
            second["aggregates"], sort_keys=True
        )
        assert "normalized" in first["aggregates"]

    def test_restarted_daemon_rebuilds_identical_aggregates(self, tmp_path):
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            submit_request(root, fleet_request())
            daemon.serve(drain=True)
            live = daemon.aggregates.to_dict()
        with FleetDaemon(root) as restarted:
            rebuilt = restarted.aggregates.to_dict()
        assert json.dumps(live, sort_keys=True) == json.dumps(
            rebuilt, sort_keys=True
        )

    def test_invalid_request_gets_error_response(self, tmp_path):
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            spool = os.path.join(root, "spool")
            with open(os.path.join(spool, "bad.json"), "w") as handle:
                handle.write('{"policies": ["warp-drive"]}')
            assert daemon.serve(drain=True) == 1
            assert daemon.requests_failed == 1
        response = json.load(
            open(os.path.join(root, "results", "bad.json"))
        )
        assert "unknown policy" in response["error"]
        assert not os.listdir(spool)

    @pytest.mark.parametrize("bad,cause", BAD_DOCUMENTS, ids=str)
    def test_bad_spooled_request_is_answered_and_serving_continues(
        self, bad, cause, tmp_path
    ):
        """A bad file written straight into the spool gets an error
        response and is retired; the request queued after it still
        runs."""
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            spool = os.path.join(root, "spool")
            with open(os.path.join(spool, "a-bad.json"), "w") as handle:
                json.dump(fleet_request(**bad), handle)
            good = submit_request(
                root, fleet_request(policies=["vaa"], baseline=None, chips=1)
            )
            assert daemon.serve(drain=True) == 2
            assert (daemon.requests_failed, daemon.requests_done) == (1, 1)
            assert not os.listdir(spool)
        results = os.path.join(root, "results")
        response = json.load(open(os.path.join(results, "a-bad.json")))
        assert response["error"].startswith("ScenarioError: ")
        assert cause in response["error"]
        assert "error" not in json.load(
            open(os.path.join(results, f"{good}.json"))
        )
        assert set(os.listdir(os.path.join(root, "done"))) == {
            "a-bad.json", f"{good}.json",
        }

    def test_exhausted_fail_fast_request_is_answered(
        self, tmp_path, monkeypatch
    ):
        """``allow_partial: false`` with a job that exhausts its retries
        gets an error response naming the job; the daemon keeps
        serving."""
        from tests.test_sim_supervisor import AlwaysCrashPolicy

        monkeypatch.setitem(
            scenario_module.POLICIES,
            "crashy",
            lambda: AlwaysCrashPolicy("chip-00"),
        )
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            failing = submit_request(
                root,
                fleet_request(
                    policies=["crashy"], baseline=None, allow_partial=False,
                    request_id="a-failing",
                ),
            )
            good = submit_request(
                root, fleet_request(policies=["vaa"], baseline=None, chips=1)
            )
            assert daemon.serve(drain=True) == 2
            assert (daemon.requests_failed, daemon.requests_done) == (1, 1)
            assert not os.listdir(os.path.join(root, "spool"))
        # The fail-fast request's exhausted job and its misses are
        # counted, not only the failed request.
        status = fleet_status(root)
        assert status["jobs_failed"] == 1
        assert status["cache_misses"] == 2 + 1
        results = os.path.join(root, "results")
        error = json.load(open(os.path.join(results, f"{failing}.json")))["error"]
        assert error.startswith("CampaignJobError: crashy/chip-00")
        assert "injected permanent fault" in error
        assert "error" not in json.load(
            open(os.path.join(results, f"{good}.json"))
        )

    def test_short_block_is_answered_and_serving_continues(self, tmp_path):
        """A store read that finds a truncated block answers that
        request with an error and retires it; the next request runs."""
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            submit_request(root, fleet_request())
            daemon.serve(drain=True)
            blocks = os.path.join(root, "store", "blocks.bin")
            os.truncate(blocks, os.path.getsize(blocks) - 16)
            # Another baseline: the same stored jobs, not the memo.
            short = submit_request(
                root, fleet_request(baseline="hayat", request_id="a-short")
            )
            good = submit_request(
                root, fleet_request(policies=["vaa"], baseline=None, chips=1, seed=9)
            )
            assert daemon.serve(drain=True) == 2
            assert (daemon.requests_failed, daemon.requests_done) == (1, 2)
            assert not os.listdir(os.path.join(root, "spool"))
        results = os.path.join(root, "results")
        error = json.load(open(os.path.join(results, f"{short}.json")))["error"]
        assert error.startswith("ShortBlockError: ")
        assert "read" in error
        assert "error" not in json.load(
            open(os.path.join(results, f"{good}.json"))
        )

    def test_cold_request_after_blocks_shrink_reads_back(self, tmp_path):
        """A cold request served after ``blocks.bin`` shrank under the
        running daemon stores blocks that read back whole."""
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            submit_request(root, fleet_request())
            daemon.serve(drain=True)
            blocks = os.path.join(root, "store", "blocks.bin")
            os.truncate(blocks, os.path.getsize(blocks) - 16)
            before = set(daemon.store.keys())
            cold = submit_request(root, fleet_request(seed=9))
            assert daemon.serve(drain=True) == 1
            response = json.load(
                open(os.path.join(root, "results", f"{cold}.json"))
            )
            assert "error" not in response
            assert response["simulated"] == response["jobs"]
            fresh = [key for key in daemon.store.keys() if key not in before]
            assert len(fresh) == response["jobs"]
            for key in fresh:
                record = daemon.store.record(key)
                for name in record["blocks"]:
                    daemon.store.block(record, name)

    def test_daemon_starts_over_a_short_block(self, tmp_path):
        """The start-up fold leaves a record with a short block out,
        counts it and warns naming the file, instead of refusing to
        start; the daemon then serves a cold request."""
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            submit_request(root, fleet_request())
            daemon.serve(drain=True)
            stored = daemon.aggregates.jobs
        blocks = os.path.join(root, "store", "blocks.bin")
        os.truncate(blocks, os.path.getsize(blocks) - 16)
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.warns(RuntimeWarning, match="blocks.bin"):
                daemon = FleetDaemon(root)
            with daemon:
                assert daemon.aggregates.jobs == stored - 1
                cold = submit_request(root, fleet_request(seed=9))
                assert daemon.serve(drain=True) == 1
        assert registry.counter("fleet.short_block_records") == 1
        response = json.load(open(os.path.join(root, "results", f"{cold}.json")))
        assert "error" not in response
        assert response["simulated"] == response["jobs"]

    def test_different_requirement_misses_the_cache(self, tmp_path):
        """The MTTF requirement shapes the stored scalars, so it must be
        part of the job identity — never answered by a stale record."""
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            submit_request(root, fleet_request())
            daemon.serve(drain=True)
            rid = submit_request(root, fleet_request(requirement_ghz=2.5))
            daemon.serve(drain=True)
            response = json.load(
                open(os.path.join(root, "results", f"{rid}.json"))
            )
        assert response["cache_hits"] == 0
        assert response["simulated"] == response["jobs"]

    def test_different_batch_size_misses_the_cache(self, tmp_path):
        """A chip's result can depend on its batch mates, so the unit
        size is part of the job identity too."""
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            submit_request(root, fleet_request())
            daemon.serve(drain=True)
            rid = submit_request(root, fleet_request(batch_size=1))
            daemon.serve(drain=True)
            response = json.load(
                open(os.path.join(root, "results", f"{rid}.json"))
            )
        assert response["cache_hits"] == 0
        assert response["simulated"] == response["jobs"]

    def test_different_policy_knob_misses_the_cache(self, tmp_path):
        """A request that differs only in a policy knob runs a
        different policy: every one of its jobs is a cold miss."""
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            submit_request(root, fleet_request(policies=["hayat"], baseline=None))
            daemon.serve(drain=True)
            rid = submit_request(
                root,
                fleet_request(
                    policies=[{"type": "hayat", "comm_weight": 2.0}],
                    baseline=None,
                ),
            )
            daemon.serve(drain=True)
            response = json.load(
                open(os.path.join(root, "results", f"{rid}.json"))
            )
        assert response["cache_hits"] == 0
        assert response["simulated"] == response["jobs"] == 2

    def test_status_aggregates_track_the_store(self, tmp_path):
        """``status.json`` reuses its rendered aggregates until a fold:
        after a cold request, a cached repeat and a second cold request
        it still equals a rebuild from the store."""
        root = str(tmp_path / "fleet")

        def status_matches_store(daemon) -> dict:
            with open(os.path.join(root, "status.json")) as handle:
                status = json.load(handle)["aggregates"]
            rebuilt = aggregate_store(daemon.store).to_dict()
            assert json.dumps(status, sort_keys=True) == json.dumps(
                rebuilt, sort_keys=True
            )
            return status

        with FleetDaemon(root) as daemon:
            submit_request(root, fleet_request())
            daemon.serve(drain=True)
            first = status_matches_store(daemon)
            submit_request(root, fleet_request())
            daemon.serve(drain=True)
            assert status_matches_store(daemon) == first
            submit_request(root, fleet_request(seed=4))
            daemon.serve(drain=True)
            assert status_matches_store(daemon)["jobs"] == 2 * first["jobs"]

    def test_store_keys_carry_a_fresh_campaign_digest(self, tmp_path):
        """Each floor's campaign digest is part of its store keys: a
        served request's keys equal the keys built from a fresh
        ``campaign_digest`` of its config, population and table."""
        root = str(tmp_path / "fleet")
        document = fleet_request()
        with FleetDaemon(root) as daemon:
            submit_request(root, document)
            daemon.serve(drain=True)
            request = Scenario.from_dict(document)
            population = generate_population(
                request.chips, seed=request.population_seed
            )
            jobs = [(p, chip) for p in request.policies for chip in population]
            (config,) = request.configs
            digest = campaign_digest(config, population, daemon._table)
            suffix = f":r{request.requirement_ghz!r}:b{request.batch_size}"
            want = job_keys(jobs, config.dark_fraction_min, digest + suffix)
            assert sorted(daemon.store.keys()) == sorted(want)

    def test_json_files_are_compact_and_published_by_rename(
        self, tmp_path, monkeypatch
    ):
        """Spool, response and status files hold one sorted-key JSON
        line that parses back to the written payload, and each appears
        only through ``os.replace`` of a fsync'd ``.tmp`` file."""
        root = str(tmp_path / "fleet")
        writes = []
        replaced = []
        synced = []
        real_write, real_replace, real_fsync = (
            daemon_module._atomic_write_json, os.replace, os.fsync
        )

        def recording_replace(src, dst):
            replaced.append((os.fspath(src), os.fspath(dst)))
            real_replace(src, dst)

        def recording_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        def recording_write(path, payload):
            synced_before = len(synced)
            real_write(path, payload)
            assert len(synced) == synced_before + 1
            assert replaced[-1] == (path + ".tmp", path)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            assert text == json.dumps(payload, sort_keys=True) + "\n"
            assert json.loads(text) == payload
            writes.append(os.path.relpath(path, root))

        monkeypatch.setattr(os, "replace", recording_replace)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(daemon_module, "_atomic_write_json", recording_write)
        with FleetDaemon(root) as daemon:
            request_id = submit_request(root, fleet_request())
            daemon.serve(drain=True)
        assert os.path.join("spool", f"{request_id}.json") in writes
        assert os.path.join("results", f"{request_id}.json") in writes
        assert "status.json" in writes
        assert not [name for name in os.listdir(root) if name.endswith(".tmp")]

    def test_status_cold_and_live(self, tmp_path):
        root = str(tmp_path / "fleet")
        cold = fleet_status(root)
        assert cold["jobs_stored"] == 0 and cold["queue_depth"] == 0
        with FleetDaemon(root) as daemon:
            submit_request(root, fleet_request())
            daemon.serve(drain=True)
        live = fleet_status(root)
        assert live["jobs_stored"] == 4
        assert live["requests_done"] == 1
        assert live["aggregates"]["jobs"] == 4

    def test_failed_jobs_are_not_cached(self, tmp_path, monkeypatch):
        """A job that exhausts retries must stay absent from the store
        so a later request re-attempts it instead of caching failure."""
        from tests.test_sim_supervisor import AlwaysCrashPolicy

        root = str(tmp_path / "fleet")
        monkeypatch.setitem(
            scenario_module.POLICIES,
            "crashy",
            lambda: AlwaysCrashPolicy("chip-00"),
        )
        with FleetDaemon(root) as daemon:
            rid = submit_request(
                root,
                fleet_request(policies=["crashy"], baseline=None),
            )
            daemon.serve(drain=True)
            response = json.load(
                open(os.path.join(root, "results", f"{rid}.json"))
            )
            assert len(response["failures"]) == 1
            assert response["failures"][0]["chip"] == "chip-00"
            # One chip crashed, one completed: only the success is
            # stored, and a re-run re-simulates only the failure.
            assert len(daemon.store) == 1
            submit_request(
                root, fleet_request(policies=["crashy"], baseline=None)
            )
            daemon.serve(drain=True)
            retry = json.load(
                open(os.path.join(root, "results", f"{rid}.json"))
            )
            assert retry["cache_hits"] == 1
            assert retry["simulated"] == 1


def serve_one(root: str, daemon: FleetDaemon, document: dict) -> tuple[bytes, dict]:
    """Submit and answer one request: its response file's bytes and
    the ``last_request`` entry of ``status.json``."""
    request_id = submit_request(root, document)
    assert daemon.serve(drain=True) == 1
    with open(os.path.join(root, "results", f"{request_id}.json"), "rb") as handle:
        raw = handle.read()
    return raw, fleet_status(root)["last_request"]


class TestAnswerMemo:
    """A repeat of a failure-free answer is served from the daemon's
    memo, with the same bytes a store answer would give."""

    def test_memo_answer_equals_a_store_answer_and_a_rebuild(self, tmp_path):
        root = str(tmp_path / "fleet")
        registry = MetricsRegistry()
        with use_registry(registry):
            with FleetDaemon(root) as daemon:
                _, cold = serve_one(root, daemon, fleet_request())
                memo, last = serve_one(root, daemon, fleet_request())
                ((keys, _),) = daemon._answers.values()
        assert cold["answered_from"] == "simulated"
        assert last["answered_from"] == "memo"
        assert registry.counter("fleet.answer_memo_hits") == 1
        # A restarted daemon has an empty memo: it folds the store.
        with FleetDaemon(root) as restarted:
            stored, last = serve_one(root, restarted, fleet_request())
        assert last["answered_from"] == "store"
        assert memo == stored
        with ResultStore(os.path.join(root, "store")) as store:
            assert sorted(keys) == sorted(store.keys())
            rebuilt = aggregate_store(store, keys).to_dict(baseline="vaa")
        assert json.dumps(json.loads(memo)["aggregates"], sort_keys=True) == (
            json.dumps(rebuilt, sort_keys=True)
        )

    def test_new_request_id_hits_the_memo(self, tmp_path):
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            first, _ = serve_one(root, daemon, fleet_request())
            renamed, last = serve_one(
                root, daemon, fleet_request(request_id="renamed")
            )
        assert last["answered_from"] == "memo"
        assert last["request_id"] == "renamed"
        first, renamed = json.loads(first), json.loads(renamed)
        assert renamed["request_id"] == "renamed"
        assert renamed["aggregates"] == first["aggregates"]

    def test_other_baseline_or_requirement_misses_the_memo(self, tmp_path):
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            serve_one(root, daemon, fleet_request())
            _, last = serve_one(root, daemon, fleet_request(baseline="hayat"))
            assert last["answered_from"] == "store"
            daemon.requirement_ghz = 2.5
            raw, last = serve_one(root, daemon, fleet_request())
            assert last["answered_from"] == "simulated"
            assert json.loads(raw)["requirement_ghz"] == 2.5
            _, last = serve_one(root, daemon, fleet_request())
            assert last["answered_from"] == "memo"
            daemon.requirement_ghz = None
            _, last = serve_one(root, daemon, fleet_request())
            assert last["answered_from"] == "memo"

    def test_partial_answer_is_never_memoized(self, tmp_path, monkeypatch):
        from tests.test_sim_supervisor import AlwaysCrashPolicy

        monkeypatch.setitem(
            scenario_module.POLICIES,
            "crashy",
            lambda: AlwaysCrashPolicy("chip-00"),
        )
        root = str(tmp_path / "fleet")
        document = fleet_request(policies=["crashy"], baseline=None)
        with FleetDaemon(root) as daemon:
            raw, _ = serve_one(root, daemon, document)
            assert json.loads(raw)["failures"]
            assert not daemon._answers
            _, last = serve_one(root, daemon, document)
        assert last["answered_from"] == "simulated"
        assert (last["cache_hits"], last["simulated"]) == (1, 1)

    def test_memo_answer_needs_every_key_in_the_store(self, tmp_path):
        root = str(tmp_path / "fleet")
        with FleetDaemon(root) as daemon:
            serve_one(root, daemon, fleet_request())
            ((keys, _),) = daemon._answers.values()
            del daemon.store._index[keys[0]]
            _, last = serve_one(root, daemon, fleet_request())
        assert last["answered_from"] == "simulated"
        assert (last["cache_hits"], last["simulated"]) == (3, 1)

    def test_least_recently_used_is_evicted_and_answers_the_same_bytes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(daemon_module, "ANSWER_MEMO_SIZE", 2)
        root = str(tmp_path / "fleet")
        a, b, c = (fleet_request(seed=seed) for seed in (3, 4, 5))
        with FleetDaemon(root) as daemon:
            serve_one(root, daemon, a)
            serve_one(root, daemon, b)
            memo, last = serve_one(root, daemon, a)
            assert last["answered_from"] == "memo"
            serve_one(root, daemon, c)  # evicts b, used before a
            assert len(daemon._answers) == 2
            again, last = serve_one(root, daemon, a)
            assert last["answered_from"] == "memo"
            _, last = serve_one(root, daemon, b)
            assert last["answered_from"] == "store"
            serve_one(root, daemon, c)  # evicts a
            stored, last = serve_one(root, daemon, a)
            assert last["answered_from"] == "store"
        assert memo == again == stored

    def test_memo_answer_counts_cache_hits(self, tmp_path):
        root = str(tmp_path / "fleet")
        registry = MetricsRegistry()
        with use_registry(registry):
            with FleetDaemon(root) as daemon:
                serve_one(root, daemon, fleet_request())
                raw, last = serve_one(root, daemon, fleet_request())
        response = json.loads(raw)
        status = fleet_status(root)
        assert (response["cache_hits"], response["simulated"]) == (4, 0)
        assert (status["cache_hits"], status["cache_misses"]) == (4, 4)
        assert registry.counter("fleet.cache_hits") == 4
        assert registry.counter("fleet.cache_misses") == 4
        assert {k: v for k, v in last.items() if k != "ms"} == {
            "request_id": response["request_id"],
            "jobs": 4,
            "cache_hits": 4,
            "simulated": 0,
            "answered_from": "memo",
        }
        assert last["ms"] > 0
        assert not {"ms", "answered_from"} & set(response)


class TestDaemonPool:
    def test_warm_pool_reused_across_requests(self, tmp_path):
        """Back-to-back requests with the same campaign digest must run
        on the same spawn pool (signature-keyed reuse), not rebuild it."""
        root = str(tmp_path / "fleet")
        with FleetDaemon(root, workers=2) as daemon:
            submit_request(
                root, fleet_request(policies=["hayat"], baseline=None)
            )
            daemon.serve(drain=True)
            first_pool = daemon.pool_host._pool
            assert first_pool is not None
            # Different requirement: same digest (config unchanged), so
            # jobs re-simulate on the *same* warm pool.
            submit_request(
                root,
                fleet_request(
                    policies=["hayat"], baseline=None, requirement_ghz=2.0
                ),
            )
            daemon.serve(drain=True)
            assert daemon.pool_host._pool is first_pool
            assert len(daemon.store) == 4


class TestKillResume:
    def test_sigkill_mid_run_then_resume_bit_identical(self, tmp_path):
        """The acceptance scenario: SIGKILL the daemon mid-request,
        restart it, and the response aggregates are byte-identical to an
        uninterrupted fleet's."""
        request = fleet_request(chips=4, years=1.0)

        # Uninterrupted reference fleet.
        reference_root = str(tmp_path / "reference")
        with FleetDaemon(reference_root) as daemon:
            request_id = submit_request(reference_root, request)
            daemon.serve(drain=True)
        reference = json.load(
            open(
                os.path.join(
                    reference_root, "results", f"{request_id}.json"
                )
            )
        )

        # Victim fleet: spawn the CLI daemon, kill it mid-request.
        root = str(tmp_path / "fleet")
        submit_request(root, request)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--fleet-dir", root, "--drain", "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        scalars = os.path.join(root, "store", "scalars.jsonl")
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before we could kill it; resume is
                # then a pure cache replay, which must still match.
            if os.path.exists(scalars) and os.path.getsize(scalars) > 0:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

        # Restart: the spool still holds the request (never retired
        # mid-run); stored jobs answer from cache, the rest re-run.
        with FleetDaemon(root) as daemon:
            assert daemon.serve(drain=True) == 1
        resumed = json.load(
            open(os.path.join(root, "results", f"{request_id}.json"))
        )
        assert resumed["jobs"] == reference["jobs"]
        assert json.dumps(
            resumed["aggregates"], sort_keys=True
        ) == json.dumps(reference["aggregates"], sort_keys=True)
