"""Harness tests: run with ``pytest perfbench/test_bench_harness.py``.

Every workload runs through the same code as a measured run, at
``--smoke`` scale (2 chips, 1 epoch, 1 cold and 2 cached requests), so
the whole file stays well under a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def cli(args, cwd=ROOT):
    command = list(SPEC["command"]) + args
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, check=False)


def smoke_run(workload, trace, tmp_path):
    details = tmp_path / f"{workload}-{trace}.json"
    proc = cli(
        ["--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace), "--smoke", "--json", str(details)]
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(details.read_text())


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_metrics()


def test_every_workload_has_a_full_vetted_input_pool():
    import workloads

    inputs = workloads.load_inputs()
    for name in WORKLOADS:
        admitted, rejected = inputs[name]["admitted"], inputs[name]["rejected"]
        assert len(admitted) == len(set(admitted)) == workloads.WORKLOADS[name].pool_size
        assert not {str(i) for i in admitted} & set(rejected)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_traced_outputs_match(workload, tmp_path):
    plain, plain_details = smoke_run(workload, 0, tmp_path)
    traced, traced_details = smoke_run(workload, 1, tmp_path)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    # The wrappers and the obs registry are transparent: op for op, the
    # traced run reproduces the untraced run's outputs.
    shared = min(len(plain_details["digests"]), len(traced_details["digests"]))
    assert shared >= 1
    assert traced_details["digests"][:shared] == plain_details["digests"][:shared]


def test_tracer_restores_every_patch_and_spans_close(tmp_path):
    sites = [site for layer in tracing.LAYERS for site in layer.sites]
    before = {site: tracing.resolve(site)[2] for site in sites}
    spans_path = tmp_path / "spans.jsonl"
    report = run.run_workload(
        "hayat_serial", seed=3, seconds=0.1, trace=True, smoke=True,
        spans_path=str(spans_path),
    )
    assert report["result"]["correct"], report["errors"]
    assert all(tracing.resolve(site)[2] is before[site] for site in sites)

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    for root in (s for s in spans if s["parent"] is None):
        members = [s for s in spans if s["op"] == root["op"]]
        self_total = sum(
            (s["end"] - s["start"]) - children.get(s["id"], 0.0) for s in members
        )
        wall = root["end"] - root["start"]
        assert abs(self_total - wall) <= 0.01 * wall
    assert {s["name"] for s in spans} >= {"op", "sim.lifetime_run", "core.map_threads"}


def test_tracer_restores_after_an_error():
    sites = [site for layer in tracing.LAYERS for site in layer.sites]
    before = {site: tracing.resolve(site)[2] for site in sites}
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert tracing.resolve(sites[0])[2] is not before[sites[0]]
            raise RuntimeError("boom")
    assert all(tracing.resolve(site)[2] is before[site] for site in sites)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = cli(
        ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_failed_check_fails_the_whole_run(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads.HayatSerial, "cross_check", lambda self, raw: ["differs"])
    report = run.run_workload("hayat_serial", seed=3, seconds=0.1, trace=False, smoke=True)
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert report["errors"] == ["cross-check: differs"]
