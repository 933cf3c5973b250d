"""CI smoke: a traced campaign emits a schema-valid, self-consistent JSONL.

The tier-1 contract for the observability subsystem: a small (2-chip,
2-epoch) campaign with tracing enabled must produce a trace whose lines
all validate against the schema and whose span counts agree with the
counter totals — the accounting the paper's per-chip figures rely on.
"""

import pytest

from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.obs import (
    MetricsRegistry,
    load_trace_jsonl,
    use_registry,
    write_trace_jsonl,
)
from repro.sim import SimulationConfig, run_campaign
from repro.variation import generate_population


@pytest.fixture(scope="module")
def traced_campaign(aging_table):
    cfg = SimulationConfig(
        lifetime_years=1.0, epoch_years=0.5, dark_fraction_min=0.5,
        window_s=5.0, seed=11,
    )
    population = generate_population(2, seed=5)
    registry = MetricsRegistry(trace=True)
    with use_registry(registry):
        campaign = run_campaign(
            [VAAManager(), HayatManager()],
            config=cfg,
            population=population,
            table=aging_table,
        )
    return campaign, registry.snapshot()


class TestTraceSmoke:
    def test_every_line_validates(self, traced_campaign, tmp_path):
        _, snapshot = traced_campaign
        path = str(tmp_path / "campaign.jsonl")
        written = write_trace_jsonl(snapshot, path)
        lines = load_trace_jsonl(path, validate=True)  # raises on violation
        assert len(lines) == written > 0

    def test_per_epoch_spans_present(self, traced_campaign):
        _, snapshot = traced_campaign
        epoch_spans = [
            e for e in snapshot.events
            if e["kind"] == "span" and e["name"] == "sim.epoch"
        ]
        # 2 chips x 2 policies x 2 epochs
        assert len(epoch_spans) == 8
        assert {e["policy"] for e in epoch_spans} == {"vaa", "hayat"}
        assert all("chip" in e and "epoch" in e for e in epoch_spans)

    def test_span_counts_sum_to_counters(self, traced_campaign):
        _, snapshot = traced_campaign
        epoch_spans = sum(
            1 for e in snapshot.events
            if e["kind"] == "span" and e["name"] == "sim.epoch"
        )
        run_spans = sum(
            1 for e in snapshot.events
            if e["kind"] == "span" and e["name"] == "campaign.run"
        )
        assert epoch_spans == snapshot.counter("sim.epochs")
        assert run_spans == snapshot.counter("campaign.runs") == 4
        # Timers are keyed by span path: each epoch runs inside its job.
        assert snapshot.timers["campaign.run/sim.epoch"].count == epoch_spans

    def test_dtm_counters_match_results(self, traced_campaign):
        campaign, snapshot = traced_campaign
        total = sum(
            r.total_dtm_events()
            for runs in campaign.results.values()
            for r in runs
        )
        counted = snapshot.counter("sim.dtm_migrations") + snapshot.counter(
            "sim.dtm_throttles"
        )
        assert counted == total

    def test_thermal_solves_counted(self, traced_campaign):
        _, snapshot = traced_campaign
        assert snapshot.counter("thermal.coupled_solves") > 0
        assert snapshot.counter("thermal.transient_steps") > 0
        # run_campaign pre-warms the thermal compute cache (outside the
        # registry), so jobs record reuse, not factorization work: the
        # hit count grows with (chips x policies x epochs) while the
        # factorization count stays flat — 0 here.
        assert snapshot.counter("thermal.cache_hits") > 0
        assert snapshot.counter("thermal.factorizations") == 0
        # Every coupled solve performs at least one steady solve per
        # Picard iteration.
        assert (
            snapshot.counter("thermal.steady_solves")
            >= snapshot.counter("thermal.coupled_iterations")
            >= snapshot.counter("thermal.coupled_solves")
        )
