"""Checkpoint/resume: durable campaign jobs, bit-identical resumes."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import HayatManager
from repro.obs import MetricsRegistry, MetricsSnapshot, TimerStats, use_registry
from repro.sim import (
    CampaignCheckpoint,
    CampaignJobError,
    SimulationConfig,
    campaign_digest,
    job_keys,
    run_campaign,
)
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    DurableAppender,
    snapshot_from_dict,
    snapshot_to_dict,
)
from repro.sim.export import result_to_dict
from repro.variation import generate_population
from tests.test_sim_supervisor import tiny_config


class InterruptedHayat(HayatManager):
    """Hayat by name, knobs and behavior, except it dies on
    ``crash_chip`` — so the records it checkpoints are resumable by a
    real ``HayatManager``.  The chip is a class attribute: job keys
    digest a policy's instance attributes, which must match Hayat's."""

    name = "hayat"
    crash_chip = "chip-01"

    def prepare_epoch(self, ctx, mix, epoch_years):
        if ctx.chip.chip_id == self.crash_chip:
            raise RuntimeError("injected permanent fault")
        return super().prepare_epoch(ctx, mix, epoch_years)


@pytest.fixture(scope="module")
def pieces(aging_table):
    return tiny_config(), generate_population(3, seed=29), aging_table


def _record_payload(key: str) -> dict:
    """A minimal valid version-current checkpoint record."""
    return {
        "version": CHECKPOINT_VERSION,
        "key": key,
        "result": {
            "chip_id": "c", "policy_name": "p",
            "dark_fraction_min": 0.5, "fmax_init_ghz": [1.0],
            "epochs": [],
        },
        "snapshot": None,
    }


class TestDigestAndKeys:
    def test_digest_stable_for_same_invariants(self, pieces):
        cfg, population, table = pieces
        assert campaign_digest(cfg, population, table) == campaign_digest(
            cfg, population, table
        )

    def test_digest_separates_configs_and_silicon(self, pieces):
        cfg, population, table = pieces
        base = campaign_digest(cfg, population, table)
        other_cfg = SimulationConfig(
            lifetime_years=0.5, epoch_years=0.5, dark_fraction_min=0.5,
            window_s=3.0, seed=cfg.seed + 1,
        )
        assert campaign_digest(other_cfg, population, table) != base
        other_population = generate_population(3, seed=31)
        assert campaign_digest(cfg, other_population, table) != base

    def test_job_key_fields(self, pieces):
        _, population, _ = pieces
        chip = population[2]
        (key,) = job_keys([(HayatManager(), chip)], 0.25, "abc123")
        policy, chip_id, floor, digest = key.split("|")
        assert policy.startswith("hayat#")
        assert (chip_id, floor, digest) == (chip.chip_id, "0.25", "abc123")
        # The policy part digests the knobs, not the object identity.
        same, knob = job_keys(
            [(HayatManager(), chip), (HayatManager(comm_weight=2.0), chip)],
            0.25, "abc123",
        )
        assert same == key != knob


@dataclass(frozen=True)
class ArrayConfig:
    """A config-shaped dataclass with an array field, for digest tests
    (``campaign_digest`` hashes any dataclass's fields)."""

    grid: np.ndarray
    scale: float = 1.0


class TestCanonicalDigest:
    """Regression pins for the repr-hashing bug: the digest must encode
    values canonically, never through ``repr``."""

    def test_arrays_sharing_a_truncated_repr_get_distinct_digests(self):
        # Large arrays elide their middle in repr: these two differ only
        # inside the elided region, so their reprs are identical and the
        # old repr-based digest served one's cached results for the
        # other.
        a = np.zeros(10_000)
        b = np.zeros(10_000)
        b[5_000] = 1.0
        assert repr(a) == repr(b)
        assert campaign_digest(ArrayConfig(a)) != campaign_digest(
            ArrayConfig(b)
        )

    def test_digest_is_printoptions_stable(self):
        cfg = ArrayConfig(np.linspace(0.0, 1.0, 2_000))
        reference = campaign_digest(cfg)
        with np.printoptions(threshold=5, precision=2):
            assert campaign_digest(cfg) == reference

    def test_container_fields_hash_structurally(self):
        # Same leaves, different nesting: a flat concatenation of the
        # encodings must not collide these.
        one = campaign_digest(ArrayConfig(np.array([1.0, 2.0])))
        other = campaign_digest(ArrayConfig(np.array([1.0]), scale=2.0))
        assert one != other

    def test_bool_and_int_do_not_collide(self):
        @dataclass(frozen=True)
        class Flag:
            value: object

        assert campaign_digest(Flag(True)) != campaign_digest(Flag(1))
        assert campaign_digest(Flag(False)) != campaign_digest(Flag(0))


class TestSnapshotRoundTrip:
    def test_lossless(self):
        snapshot = MetricsSnapshot(
            counters={"a": 3, "b": 1.5},
            gauges={"g": 2.25},
            timers={"t": TimerStats(2, 0.1 + 0.2, 0.1, 0.2)},
            events=[{"kind": "span", "t": 0.125, "name": "t"}],
            dropped_events=4,
        )
        back = snapshot_from_dict(
            json.loads(json.dumps(snapshot_to_dict(snapshot)))
        )
        assert back.counters == snapshot.counters
        assert back.gauges == snapshot.gauges
        assert back.events == snapshot.events
        assert back.dropped_events == snapshot.dropped_events
        stats = back.timers["t"]
        assert (stats.count, stats.total_s, stats.min_s, stats.max_s) == (
            2, 0.1 + 0.2, 0.1, 0.2,
        )


class TestStore:
    def test_round_trip_is_bit_identical(self, pieces, tmp_path):
        cfg, population, table = pieces
        campaign = run_campaign(
            [HayatManager()], config=cfg,
            population=generate_population(1, seed=29), table=table,
        )
        result = campaign.results["hayat"][0]
        path = str(tmp_path / "ckpt.jsonl")
        store = CampaignCheckpoint(path)
        store.append("k", result, None)
        reloaded = CampaignCheckpoint(path).get("k").result
        assert result_to_dict(reloaded) == result_to_dict(result)
        assert reloaded.fmax_init_ghz.dtype == result.fmax_init_ghz.dtype

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        good = json.dumps(_record_payload("k"))
        path.write_text(good + "\n" + good[: len(good) // 2])
        store = CampaignCheckpoint(str(path))
        assert len(store) == 1 and "k" in store
        # A torn tail is the expected dirty-shutdown signature, not
        # corruption: flagged, but never counted or warned about.
        assert store.truncated_tail
        assert store.skipped_lines == 0

    def test_midfile_corruption_is_counted_and_warned(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        good = json.dumps(_record_payload("k"))
        corrupt = good[: len(good) // 2]
        path.write_text(corrupt + "\n" + good + "\n")
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.warns(RuntimeWarning, match="line 1 of 2"):
                store = CampaignCheckpoint(str(path))
        assert len(store) == 1 and "k" in store
        assert store.skipped_lines == 1
        assert not store.truncated_tail
        assert registry.counter("checkpoint.skipped_lines") == 1

    def test_unknown_version_is_ignored(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(json.dumps({"version": 999, "key": "k"}) + "\n")
        assert len(CampaignCheckpoint(str(path))) == 0


class TestResume:
    def test_kill_mid_campaign_then_resume(self, pieces, tmp_path):
        """The acceptance scenario: a campaign dies after N of M jobs;
        the resumed run executes only the M-N survivors and reproduces
        the uninterrupted campaign bit for bit."""
        cfg, population, table = pieces
        path = str(tmp_path / "campaign.jsonl")

        # Uninterrupted reference run (no checkpoint involved).
        reference_registry = MetricsRegistry()
        with use_registry(reference_registry):
            reference = run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=table,
            )

        # Run 1: job 2 of 3 (chip-01) crashes fail-fast -> the process
        # "dies" with exactly one job checkpointed.  It collects metrics
        # so the record carries its snapshot for the resume to replay.
        with use_registry(MetricsRegistry()):
            with pytest.raises(CampaignJobError):
                run_campaign(
                    [InterruptedHayat()],
                    config=cfg, population=population, table=table,
                    checkpoint=path,
                )
        assert len(CampaignCheckpoint(path)) == 1

        # Run 2: resume with the fault gone.  Only the two unrecorded
        # jobs execute; the checkpointed one is replayed.
        resumed_registry = MetricsRegistry()
        with use_registry(resumed_registry):
            resumed = run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=table,
                checkpoint=path,
            )
        assert resumed_registry.counter("campaign.resumed_jobs") == 1
        assert resumed_registry.counter("campaign.jobs_executed") == 2

        # Bit-identical results...
        for a, b in zip(
            reference.results["hayat"], resumed.results["hayat"]
        ):
            assert result_to_dict(a) == result_to_dict(b)
        # ...and bit-identical merged engine metrics.  Only the
        # supervision meta-counters (what was resumed vs executed here)
        # may differ.
        meta = {"campaign.resumed_jobs", "campaign.jobs_executed"}
        reference_counters = {
            k: v
            for k, v in reference_registry.snapshot().counters.items()
            if k not in meta
        }
        resumed_counters = {
            k: v
            for k, v in resumed_registry.snapshot().counters.items()
            if k not in meta
        }
        assert reference_counters == resumed_counters

    def test_resume_never_replays_a_differently_configured_policy(
        self, aging_table, tmp_path
    ):
        """Job keys carry the policy's knobs: a checkpoint written by
        ``HayatManager(comm_weight=50)`` must not answer a plain
        ``HayatManager`` of the same name."""
        cfg = SimulationConfig(
            lifetime_years=1.0, epoch_years=0.5, dark_fraction_min=0.5,
            window_s=3.0, seed=3,
        )
        population = generate_population(1, seed=29)
        path = str(tmp_path / "campaign.jsonl")

        def run(policy, checkpoint=None):
            campaign = run_campaign(
                [policy], config=cfg, population=population,
                table=aging_table, checkpoint=checkpoint,
            )
            return result_to_dict(campaign.results["hayat"][0])

        clean = run(HayatManager())
        assert run(HayatManager(comm_weight=50), path) != clean
        registry = MetricsRegistry()
        with use_registry(registry):
            assert run(HayatManager(), path) == clean
        assert registry.counter("campaign.resumed_jobs") == 0

    def test_resume_skips_nothing_for_different_silicon(self, pieces, tmp_path):
        """A checkpoint written for one population must not poison a
        campaign over different silicon: the digests differ, so every
        job re-runs."""
        cfg, population, table = pieces
        path = str(tmp_path / "campaign.jsonl")
        run_campaign(
            [HayatManager()],
            config=cfg, population=population, table=table, checkpoint=path,
        )
        other_population = generate_population(3, seed=31)
        registry = MetricsRegistry()
        with use_registry(registry):
            run_campaign(
                [HayatManager()],
                config=cfg, population=other_population, table=table,
                checkpoint=path,
            )
        assert registry.counter("campaign.resumed_jobs") == 0
        assert registry.counter("campaign.jobs_executed") == 3

    def test_completed_checkpoint_resumes_everything(self, pieces, tmp_path):
        cfg, population, table = pieces
        path = str(tmp_path / "campaign.jsonl")
        first = run_campaign(
            [HayatManager()],
            config=cfg, population=population, table=table, checkpoint=path,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            second = run_campaign(
                [HayatManager()],
                config=cfg, population=population, table=table,
                checkpoint=path,
            )
        assert registry.counter("campaign.resumed_jobs") == 3
        assert registry.counter("campaign.jobs_executed") == 0
        for a, b in zip(first.results["hayat"], second.results["hayat"]):
            np.testing.assert_array_equal(
                a.health_trajectory(), b.health_trajectory()
            )

    def test_sweep_shares_one_checkpoint_across_floors(self, pieces, tmp_path):
        from repro.sim import sweep_dark_fractions

        cfg, population, table = pieces
        path = str(tmp_path / "sweep.jsonl")
        sweep_dark_fractions(
            [HayatManager()], fractions=[0.25, 0.5],
            config=cfg, population=population, table=table, checkpoint=path,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            sweep_dark_fractions(
                [HayatManager()], fractions=[0.25, 0.5],
                config=cfg, population=population, table=table,
                checkpoint=path,
            )
        assert registry.counter("campaign.resumed_jobs") == 6
        assert registry.counter("campaign.jobs_executed") == 0


def _torture_writer(path: str, writer: int, count: int) -> None:
    """One concurrent appender (runs in a spawned process)."""
    appender = DurableAppender(path)
    for index in range(count):
        # Varying lengths shake out partial-write interleaving.
        payload = {"writer": writer, "index": index, "pad": "x" * (index % 37)}
        appender.append((json.dumps(payload) + "\n").encode())
    appender.close()


class TestDurableAppender:
    def test_multi_writer_torture(self, tmp_path):
        """N processes hammer one file through O_APPEND handles: every
        record must land whole — no splicing, no loss."""
        path = str(tmp_path / "torture.jsonl")
        writers, count = 3, 40
        context = multiprocessing.get_context("spawn")
        procs = [
            context.Process(target=_torture_writer, args=(path, w, count))
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        seen = set()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)  # any torn line would raise
                assert record["pad"] == "x" * (record["index"] % 37)
                seen.add((record["writer"], record["index"]))
        assert seen == {
            (w, i) for w in range(writers) for i in range(count)
        }

    def test_kill_mid_append_loses_at_most_the_torn_tail(self, tmp_path):
        """SIGKILL a process that is appending checkpoint records in a
        tight loop: on reload, every complete line is a valid record and
        nothing is classified as mid-file corruption."""
        path = str(tmp_path / "killed.jsonl")
        script = (
            "import json, sys\n"
            "from repro.sim.checkpoint import CHECKPOINT_VERSION, DurableAppender\n"
            "appender = DurableAppender(sys.argv[1])\n"
            "i = 0\n"
            "while True:\n"
            "    payload = {'version': CHECKPOINT_VERSION, 'key': f'k{i}',\n"
            "               'result': {'chip_id': 'c', 'policy_name': 'p',\n"
            "                          'dark_fraction_min': 0.5,\n"
            "                          'fmax_init_ghz': [1.0], 'epochs': []},\n"
            "               'snapshot': None}\n"
            "    appender.append((json.dumps(payload) + '\\n').encode())\n"
            "    i += 1\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen([sys.executable, "-c", script, path], env=env)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(path) and os.path.getsize(path) > 500:
                break
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        store = CampaignCheckpoint(path)
        assert len(store) >= 1
        assert store.skipped_lines == 0  # only the tail may be torn

    def test_append_after_torn_tail_repairs_framing(self, tmp_path, pieces):
        """A new record appended after a dirty shutdown must not fuse
        with the torn line: both the old intact records and the new one
        survive the next load."""
        cfg, population, table = pieces
        campaign = run_campaign(
            [HayatManager()], config=cfg,
            population=generate_population(1, seed=29), table=table,
        )
        result = campaign.results["hayat"][0]
        path = str(tmp_path / "torn.jsonl")
        good = json.dumps(_record_payload("old"))
        with open(path, "w") as handle:
            handle.write(good + "\n" + good[: len(good) // 2])
        store = CampaignCheckpoint(path)
        assert store.truncated_tail and len(store) == 1
        store.append("new", result, None)
        store.close()
        # The repaired file now holds the torn fragment as a complete
        # mid-file line: the reload classifies it as corruption (warned,
        # counted) while both real records survive.
        with pytest.warns(RuntimeWarning, match="mid-file corruption"):
            reloaded = CampaignCheckpoint(path)
        assert "old" in reloaded and "new" in reloaded
        assert reloaded.skipped_lines == 1

    def test_offset_tracking_matches_file(self, tmp_path):
        path = str(tmp_path / "offsets.bin")
        appender = DurableAppender(path, line_framed=False)
        offsets = [appender.append(b"x" * n) for n in (3, 5, 7)]
        appender.close()
        assert offsets == [0, 3, 8]
        assert os.path.getsize(path) == 15

    def test_offset_follows_the_file_after_it_shrinks(self, tmp_path):
        """Each offset is the file's size at the write, not a counter
        kept since open, so a file cut under the held handle still gets
        offsets that point at the new record."""
        path = str(tmp_path / "offsets.bin")
        appender = DurableAppender(path, line_framed=False)
        appender.append(b"x" * 8)
        os.truncate(path, 5)
        assert appender.append(b"yz") == 5
        appender.close()
        with open(path, "rb") as handle:
            assert handle.read() == b"xxxxxyz"
