"""The observability core: registries, merging, nesting, null mode."""

import pickle

import pytest

from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    TimerStats,
    TraceSchemaError,
    disable_metrics,
    enable_metrics,
    get_registry,
    load_trace_jsonl,
    set_registry,
    use_registry,
    validate_trace_file,
    validate_trace_line,
    write_trace_jsonl,
)


class TestCounters:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a") == 5

    def test_missing_counter_default(self):
        assert MetricsRegistry().counter("missing", default=-1) == -1

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1.0)
        reg.gauge("g", 7.5)
        assert reg.snapshot().gauges["g"] == 7.5


class TestTimers:
    def test_span_records_count_and_duration(self):
        reg = MetricsRegistry()
        with reg.timer("work"):
            pass
        with reg.timer("work"):
            pass
        stats = reg.snapshot().timers["work"]
        assert stats.count == 2
        assert stats.total_s >= 0.0
        assert stats.min_s <= stats.max_s

    def test_nested_spans_record_depth(self):
        reg = MetricsRegistry(trace=True)
        with reg.timer("outer"):
            with reg.timer("inner"):
                with reg.timer("innermost"):
                    pass
        depths = {e["name"]: e["depth"] for e in reg.snapshot().events}
        assert depths == {"outer": 0, "inner": 1, "innermost": 2}

    def test_span_depth_restored_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.timer("boom"):
                raise RuntimeError("x")
        assert reg._span_depth == 0
        assert reg.snapshot().timers["boom"].count == 1

    def test_nested_spans_key_timers_by_path(self):
        reg = MetricsRegistry()
        with reg.timer("outer"):
            with reg.timer("inner"):
                with reg.timer("walk"):
                    pass
            with reg.timer("walk"):
                pass
        with reg.timer("walk"):
            pass
        counts = {name: s.count for name, s in reg.snapshot().timers.items()}
        assert counts == {
            "outer": 1,
            "outer/inner": 1,
            "outer/inner/walk": 1,
            "outer/walk": 1,
            "walk": 1,
        }

    def test_timer_stats_merge(self):
        a = TimerStats()
        a.observe(1.0)
        b = TimerStats()
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.total_s == pytest.approx(4.0)
        assert a.max_s == pytest.approx(3.0)
        assert a.mean_s == pytest.approx(2.0)


class TestSnapshotMerge:
    def test_counter_merge_sums(self):
        a = MetricsSnapshot(counters={"x": 2, "y": 1})
        b = MetricsSnapshot(counters={"x": 3, "z": 5})
        a.merge(b)
        assert a.counters == {"x": 5, "y": 1, "z": 5}

    def test_merge_is_order_insensitive_for_counters(self):
        parts = [
            MetricsSnapshot(counters={"x": i, "k": 1}) for i in range(5)
        ]
        forward = MetricsSnapshot.merged(parts)
        backward = MetricsSnapshot.merged(reversed(parts))
        assert forward.counters == backward.counters

    def test_merge_does_not_alias_timers(self):
        worker = MetricsSnapshot(timers={"t": TimerStats(1, 1.0, 1.0, 1.0)})
        parent = MetricsSnapshot()
        parent.merge(worker)
        parent.timers["t"].observe(9.0)
        assert worker.timers["t"].count == 1  # source unchanged

    def test_registry_merge_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("x", 1)
        reg.merge_snapshot(MetricsSnapshot(counters={"x": 2}, dropped_events=3))
        snap = reg.snapshot()
        assert snap.counters["x"] == 3
        assert snap.dropped_events == 3

    def test_worker_merge_under_open_span_matches_in_place(self):
        """A worker's snapshot, merged while the caller holds a span
        open, lands on the keys the same spans record in place."""

        def job(reg):
            with reg.timer("campaign.run"):
                with reg.timer("sim.epoch"):
                    with reg.timer("aging.walk"):
                        pass

        in_place = MetricsRegistry(trace=True)
        with in_place.timer("caller"):
            job(in_place)
            job(in_place)

        merged = MetricsRegistry(trace=True)
        with merged.timer("caller"):
            for _ in range(2):
                worker = MetricsRegistry(trace=True)
                job(worker)
                merged.merge_snapshot(worker.snapshot())

        def counts(reg):
            return {n: s.count for n, s in reg.snapshot().timers.items()}

        def depths(reg):
            return [(e["name"], e["depth"]) for e in reg.snapshot().events]

        assert counts(merged) == counts(in_place)
        assert counts(in_place)["caller/campaign.run/sim.epoch/aging.walk"] == 2
        assert depths(merged) == depths(in_place)

    def test_snapshot_pickles(self):
        reg = MetricsRegistry(trace=True)
        reg.inc("n", 2)
        with reg.timer("t", chip="chip-00"):
            pass
        clone = pickle.loads(pickle.dumps(reg.snapshot()))
        assert clone.counters["n"] == 2
        assert clone.timers["t"].count == 1
        assert clone.events[0]["chip"] == "chip-00"


class TestDisabledMode:
    def test_default_global_registry_is_null(self):
        reg = get_registry()
        assert isinstance(reg, NullRegistry)
        assert not reg.enabled

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        reg.inc("a", 5)
        reg.gauge("g", 1.0)
        reg.event("e", detail=1)
        with reg.timer("t"):
            pass
        snap = reg.snapshot()
        assert snap.counters == {} and snap.timers == {} and snap.events == []
        assert reg.counter("a") == 0

    def test_enable_disable_roundtrip(self):
        try:
            reg = enable_metrics()
            assert get_registry() is reg
        finally:
            disable_metrics()
        assert isinstance(get_registry(), NullRegistry)

    def test_use_registry_restores_previous(self):
        reg = MetricsRegistry()
        with use_registry(reg) as active:
            assert active is reg
            assert get_registry() is reg
        assert isinstance(get_registry(), NullRegistry)

    def test_use_registry_restores_on_error(self):
        with pytest.raises(ValueError):
            with use_registry(MetricsRegistry()):
                raise ValueError("x")
        assert isinstance(get_registry(), NullRegistry)

    def test_set_registry_returns_previous(self):
        previous = set_registry(MetricsRegistry())
        restored = set_registry(previous)
        assert isinstance(restored, MetricsRegistry)


class TestTracing:
    def test_events_only_buffered_when_tracing(self):
        silent = MetricsRegistry(trace=False)
        silent.event("e", name="x")
        assert silent.snapshot().events == []
        loud = MetricsRegistry(trace=True)
        loud.event("e", name="x")
        assert len(loud.snapshot().events) == 1

    def test_event_buffer_bounded(self):
        reg = MetricsRegistry(trace=True, max_events=3)
        for i in range(5):
            reg.event("event", name=f"e{i}")
        snap = reg.snapshot()
        assert len(snap.events) == 3
        assert snap.dropped_events == 2

    def test_reset_clears_everything(self):
        reg = MetricsRegistry(trace=True)
        reg.inc("a")
        with reg.timer("t"):
            pass
        reg.reset()
        snap = reg.snapshot()
        assert snap.counters == {} and snap.timers == {} and snap.events == []


class TestTraceJsonl:
    def _snapshot(self):
        reg = MetricsRegistry(trace=True)
        reg.inc("sim.epochs", 2)
        reg.gauge("load", 0.5)
        with reg.timer("sim.epoch", chip="chip-00"):
            pass
        return reg.snapshot()

    def test_roundtrip_and_validation(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        written = write_trace_jsonl(self._snapshot(), path)
        assert validate_trace_file(path) == written
        lines = load_trace_jsonl(path)
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "meta"
        assert "span" in kinds and "counter" in kinds and "timer" in kinds

    def test_invalid_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span", "t": 0.0, "name": "x"}\n')
        with pytest.raises(TraceSchemaError, match="dur_s"):
            validate_trace_file(str(path))

    def test_unknown_kind_rejected(self):
        assert validate_trace_line({"kind": "mystery"}) != []

    def test_wrong_type_rejected(self):
        errors = validate_trace_line(
            {"kind": "counter", "name": "x", "value": "many"}
        )
        assert any("wrong type" in e for e in errors)

    def test_non_object_rejected(self):
        assert validate_trace_line([1, 2]) != []
        assert validate_trace_line({"no": "kind"}) != []
