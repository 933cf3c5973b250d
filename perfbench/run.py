#!/usr/bin/env python3
"""The repository's benchmark: one command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hayat_batch --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 42            # every workload, one subprocess each

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` is the separate traced run: it wraps the layers listed in
``perfbench/tracing.py``, alternates traced and untraced loop turns, and
reports the per-layer metrics (``--spans FILE`` also writes every span
as JSONL).  ``--smoke`` shrinks every workload to 2 chips and 1 epoch
for the harness tests.  ``--json FILE`` writes the run's details: op
samples, output digests, errors and the host.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
outputs fail a check prints it with ``"correct": false`` and exits 1; a
checkout without the program's sources exits 2 and prints nothing.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the benchmark is a single client and the
# load must stay within the host's cores.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected.json")

#: The seed whose first-op digests ``expected.json`` pins.
PINNED_SEED = 42

END_TO_END = (
    ("chip_epochs_per_s", "chip-epochs/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Ratios and counts read from the program's own obs counters.
COUNTER_METRICS = (
    ("aging.bracket_reuse_ratio", "ratio"),
    ("sim.delta_rounds", "rounds/op"),
    ("sim.settle_rounds_per_chip_epoch", "rounds"),
    ("sim.segment_cache_hit_ratio", "ratio"),
    ("fleet.cache_hit_ratio", "ratio"),
    ("fleet.store_bytes", "B"),
)
TRACE_METRICS = (
    ("setup.default_aging_table_s", "s"),
    ("setup.generate_population_s", "s"),
    ("trace.op_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    from tracing import LAYERS

    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "calls/op"))
        out.append((f"{layer.name}.self_s", "s/op"))
        if layer.size_label:
            out.append((f"{layer.name}.{layer.size_label}", f"{layer.size_label}/op"))
    return out + list(COUNTER_METRICS) + list(TRACE_METRICS)


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation) of two or more values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def host_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_expected() -> dict:
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name, seed, seconds, trace, smoke=False, spans_path=None) -> dict:
    """Run one workload in this process; returns the detailed report."""
    from repro.obs import MetricsRegistry, use_registry
    from tracing import ROOT as ROOT_SPAN
    from tracing import Tracer
    from workloads import WORKLOADS

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    workload = WORKLOADS[name](seed, smoke, workdir)
    tracer = Tracer() if trace else None
    registry = MetricsRegistry() if trace else None

    def scope(op_id, counters=True):
        """Trace one op (and collect the program's counters for it)."""
        stack = contextlib.ExitStack()
        if tracer is not None and op_id is not None:
            stack.enter_context(tracer.op(op_id))
            if counters:
                stack.enter_context(use_registry(registry))
        return stack

    errors: list[str] = []
    digests: list[str] = []
    op_seconds: list[float] = []
    op_chip_epochs: list[int] = []
    rounds: list[tuple[bool, float]] = []
    traced_ops: list[int] = []
    chip_epochs = attempted = failed = 0
    setup_times = []
    first = None
    try:
        if tracer is not None:
            tracer.install()
        for rep in range(workload.setup_reps):
            with scope(("setup", rep), counters=False):
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
        workload.warm_up(workload.input_id(-1))

        started = time.perf_counter()
        index = 0
        op_ids = itertools.count()
        while True:
            traced = tracer is not None and index % 2 == 0
            round_s = 0.0
            for op in workload.round(index):
                op_id = next(op_ids)
                try:
                    with scope(op_id if traced else None):
                        start = time.perf_counter()
                        raw = op()
                        elapsed = time.perf_counter() - start
                    outcome = workload.outcome(raw)
                except Exception as error:  # noqa: BLE001 - counted and reported
                    errors.append(f"op {op_id}: {type(error).__name__}: {error}")
                    attempted += 1
                    failed += 1
                    continue
                if traced:
                    traced_ops.append(op_id)
                if first is None:
                    first = raw
                op_seconds.append(elapsed)
                round_s += elapsed
                chip_epochs += outcome.chip_epochs
                op_chip_epochs.append(outcome.chip_epochs)
                attempted += outcome.attempted
                failed += outcome.failed
                digests.append(outcome.digest)
                errors.extend(f"op {op_id}: {e}" for e in outcome.errors)
            rounds.append((traced, round_s))
            index += 1
            wall = time.perf_counter() - started
            enough = index >= (2 if trace else 1)
            # Stop when the next turn would end more than half a turn
            # past the deadline.
            if enough and wall + 0.5 * wall / index >= seconds:
                break
        if tracer is not None:
            tracer.restore()
        try:
            if first is None:
                errors.append("cross-check: no op completed")
            else:
                errors.extend(f"cross-check: {e}" for e in workload.cross_check(first))
        except Exception as error:  # noqa: BLE001 - a failed check
            errors.append(f"cross-check: {type(error).__name__}: {error}")
        store_bytes = workload.store_bytes()
    finally:
        if tracer is not None:
            tracer.restore()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    expected = load_expected().get(name) if seed == PINNED_SEED and not smoke else None
    if expected is not None and digests and digests[0] != expected:
        errors.append(f"op 0 digest {digests[0]} != pinned {expected} (seed {seed})")

    if trace:
        metrics = layer_metrics(
            tracer, registry, traced_ops, rounds, len(setup_times), store_bytes,
            ROOT_SPAN, errors,
        )
        if spans_path:
            tracer.write_jsonl(spans_path)
    else:
        rates = [c / t for c, t in zip(op_chip_epochs, op_seconds) if c]
        metrics = {
            "chip_epochs_per_s": statistics.median(rates) if rates else 0.0,
            "op_ms_p50": statistics.median(op_seconds) * 1e3 if op_seconds else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = dict(per_layer_metrics() if trace else END_TO_END)
    if errors:
        # Any failed check condemns the whole run's outputs.
        failed = attempted
    result = {
        "correct": not errors and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "smoke": smoke,
        "result": result,
        "ops": len(op_seconds),
        "chip_epochs": chip_epochs,
        "op_seconds": op_seconds,
        "op_chip_epochs": op_chip_epochs,
        "setup_seconds": setup_times,
        "digests": digests,
        "errors": errors,
        "host": host_info(),
        "wall_s": time.perf_counter() - STARTED,
    }


def layer_metrics(tracer, registry, traced_ops, rounds, setups, store_bytes, root, errors):
    """Per-layer metrics of a traced run, normalized per traced op."""
    from tracing import LAYERS

    ops = max(len(traced_ops), 1)
    summary = tracer.summary(traced_ops)
    metrics = {}
    for layer in LAYERS:
        entry = summary.get(layer.name, {"calls": 0, "self_s": 0.0, "size": 0})
        metrics[f"{layer.name}.calls"] = entry["calls"] / ops
        metrics[f"{layer.name}.self_s"] = entry["self_s"] / ops
        if layer.size_label:
            metrics[f"{layer.name}.{layer.size_label}"] = entry["size"] / ops

    count = registry.counter
    walk = summary.get("aging.walk", {"size": 0})["size"]
    hits, misses = count("sim.segment_cache_hits"), count("sim.segment_cache_misses")
    fleet_hits, fleet_misses = count("fleet.cache_hits"), count("fleet.cache_misses")
    metrics.update(
        {
            "aging.bracket_reuse_ratio": ratio(count("aging.walk_bracket_reuse"), walk),
            "sim.delta_rounds": count("sim.delta_rounds") / ops,
            "sim.settle_rounds_per_chip_epoch": ratio(
                count("sim.settle_rounds"), count("sim.epochs")
            ),
            "sim.segment_cache_hit_ratio": ratio(hits, hits + misses),
            "fleet.cache_hit_ratio": ratio(fleet_hits, fleet_hits + fleet_misses),
            "fleet.store_bytes": store_bytes,
        }
    )

    setup = tracer.summary([("setup", rep) for rep in range(setups)])
    for metric, span in (
        ("setup.default_aging_table_s", "aging.default_aging_table"),
        ("setup.generate_population_s", "variation.generate_population"),
    ):
        metrics[metric] = setup.get(span, {"total_s": 0.0})["total_s"] / setups

    root_entry = summary.get(root, {"total_s": 0.0, "self_s": 0.0})
    closure = sum(entry["self_s"] for entry in summary.values())
    if root_entry["total_s"] and abs(closure - root_entry["total_s"]) > 0.01 * root_entry["total_s"]:
        errors.append(
            f"trace: self times sum to {closure:.6f} s, root wall is {root_entry['total_s']:.6f} s"
        )
    traced = [s for t, s in rounds if t]
    untraced = [s for t, s in rounds if not t]
    metrics.update(
        {
            "trace.op_s": root_entry["total_s"] / ops,
            "trace.unattributed_frac": ratio(root_entry["self_s"], root_entry["total_s"]),
            "trace.overhead_frac": (
                statistics.mean(traced) / statistics.mean(untraced) - 1.0
                if traced and untraced
                else 0.0
            ),
        }
    )
    return metrics


def describe(report: dict) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    result = report["result"]
    lines = [
        f"# {report['workload']} seed={report['seed']} trace={report['trace']}: "
        f"{report['ops']} ops, {report['chip_epochs']} chip-epochs, "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    ]
    simulating = sum(1 for c in report["op_chip_epochs"] if c)
    samples = {
        "chip_epochs_per_s": f"median of n={simulating} simulating ops",
        "op_ms_p50": f"n={report['ops']} ops",
        "setup_s": f"median of n={len(report['setup_seconds'])} set-ups",
        "peak_rss_mb": "n=1",
    }
    for name, metric in result["metrics"].items():
        note = samples.get(name, "")
        lines.append(f"{name:42s} {metric['value']:>14.6g} {metric['unit']:<14s} {note}")
    # The tail: the highest percentile with at least ten ops beyond it.
    # Informational only -- campaign workloads have too few ops for one.
    ops = report["op_seconds"]
    tail = next((q for q in (99, 95, 90, 80, 75) if len(ops) * (100 - q) >= 1000), None)
    if tail is not None:
        lines.append(
            f"# op_ms_p{tail} {quantile(ops, tail) * 1e3:.6g} ms (n={len(ops)} ops)"
        )
    if report["digests"]:
        lines.append(f"# op 0 digest {report['digests'][0]}")
    lines.extend(f"# error: {e}" for e in report["errors"][:20])
    return lines


def run_all(args) -> int:
    """Every workload in its own subprocess, one after another."""
    from workloads import WORKLOADS

    combined, status = {}, 0
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
        if lines:
            combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", dest="json_path")
    parser.add_argument("--spans", dest="spans_path")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {SOURCE}\n")
        return 2
    sys.path.insert(0, SOURCE)
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, spans_path=args.spans_path,
    )
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print("\n".join(describe(report)))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Randomized string hashing changes set and dict layouts per
        # process, and about one process in eight then peaks 7 MB higher.
        # Re-exec once with a fixed hash seed so peak_rss_mb is steady.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
