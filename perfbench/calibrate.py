#!/usr/bin/env python3
"""Calibrate the benchmark: spreads across seeds, the baseline, the pins.

Run from the repository root::

    python3 perfbench/calibrate.py vet      [--workload W]
    python3 perfbench/calibrate.py spread   [--runs 10] [--first-seed 1] [--workload W]
    python3 perfbench/calibrate.py baseline [--runs 5] [--sets 2]
    python3 perfbench/calibrate.py pin

``vet`` tries inputs 0, 1, 2, ... of each workload in this process and
records in ``perfbench/inputs.json`` the first ``pool_size`` that pass
every check as warm-up, op and cross-checked op, and the error of each
one that does not.  ``spread`` runs every workload once per seed and reports, per
end-to-end metric, the interquartile range of the runs as a share of
their median next to the metric's bound in ``BENCHMARK.json`` (a spread
must stay below a third of the bound).  ``baseline`` runs sets of runs
at the pinned seed and writes each set's medians and IQRs with the host
to ``perfbench/baseline.json``.  ``pin`` records the first op's output
digest of every workload at the pinned seed in ``perfbench/expected.json``;
only a change that is meant to alter simulated results may re-pin.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import EXPECTED, PINNED_SEED, SOURCE, WORK_ROOT  # noqa: E402

BASELINE = os.path.join(HERE, "baseline.json")
#: Seed a later performance claim must also hold on; never used while
#: calibrating or pinning.
HELD_OUT_SEED = 1337


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(spec, workload, seed, seconds=None, check=True) -> dict:
    """One benchmark run as the command line gives it; returns details.

    With ``check`` a run that exits non-zero or reports incorrect
    outputs stops the calibration."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=WORK_ROOT, delete=False) as tmp:
        details_path = tmp.name
    try:
        command = list(spec["command"]) + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds or spec["run_seconds"]),
            "--trace", "0", "--json", details_path,
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        with open(details_path, encoding="utf-8") as handle:
            text = handle.read()
        details = json.loads(text) if text else {}
    finally:
        os.unlink(details_path)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    if check and (proc.returncode != 0 or result is None or not result["correct"]):
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    details["stdout_result"] = result
    return details


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / statistics.median(values),
    }


def collect(spec, workloads, seeds, runs=None) -> dict:
    """``values[workload][metric] -> list`` over ``seeds``; appends each
    run's details to ``runs`` when given."""
    values: dict = {w: {} for w in workloads}
    for workload in workloads:
        for seed in seeds:
            details = run_once(spec, workload, seed)
            if runs is not None:
                runs.append(details)
            for name, metric in details["stdout_result"]["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {seed}: "
                + " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in details["stdout_result"]["metrics"].items()
                ),
                flush=True,
            )
    return values


def cmd_spread(args) -> int:
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [args.first_seed + i for i in range(args.runs)]
    runs: list = []
    values = collect(spec, workloads, seeds, runs)
    worst = 0
    print(f"{'workload':14s} {'metric':20s} {'median':>12s} {'iqr/med':>8s} {'bound/3':>8s}")
    for workload in workloads:
        for name, series in values[workload].items():
            stats = spread(series)
            limit = bounds[name] / 3
            flag = "" if stats["iqr_frac"] < limit or name == "setup_s" else "  TOO WIDE"
            worst |= bool(flag)
            print(
                f"{workload:14s} {name:20s} {stats['median']:12.5g} "
                f"{stats['iqr_frac']:8.4f} {limit:8.4f}{flag}"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seeds": seeds, "values": values, "runs": runs}, handle, indent=1)
    return 1 if worst else 0


def cmd_baseline(args) -> int:
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    host = None
    for _ in range(args.sets):
        values = {w: {} for w in workloads}
        for workload in workloads:
            for _ in range(args.runs):
                details = run_once(spec, workload, PINNED_SEED)
                host = details["host"]
                for name, metric in details["stdout_result"]["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
        sets.append(
            {
                w: {name: dict(spread(series), runs=series) for name, series in per.items()}
                for w, per in values.items()
            }
        )
    baseline = {
        "seed": PINNED_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": spec["run_seconds"],
        "runs_per_set": args.runs,
        "host": host,
        "sets": sets,
    }
    with open(BASELINE, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    for workload in workloads:
        for name in sets[0][workload]:
            cells = "  ".join(
                f"{s[workload][name]['median']:10.5g} ±{s[workload][name]['iqr_frac']:.4f}"
                for s in sets
            )
            print(f"{workload:14s} {name:20s} {cells}")
    return 0


def cmd_vet(args) -> int:
    sys.path.insert(0, SOURCE)
    import workloads

    names = args.workload or [w["name"] for w in benchmark_spec()["workloads"]]
    os.makedirs(WORK_ROOT, exist_ok=True)
    vetted = {}
    try:
        for name in names:
            workdir = tempfile.mkdtemp(prefix=f"vet-{name}-", dir=WORK_ROOT)
            workload = workloads.WORKLOADS[name](PINNED_SEED, False, workdir)
            admitted, rejected = [], {}
            try:
                workload.setup()
                input_id = 0
                while len(admitted) < workload.pool_size:
                    errors = workloads.vet(workload, input_id)
                    if errors:
                        rejected[str(input_id)] = errors[0]
                        print(f"{name} input {input_id}: rejected: {errors[0]}", flush=True)
                    else:
                        admitted.append(input_id)
                    input_id += 1
            finally:
                workload.close()
                shutil.rmtree(workdir, ignore_errors=True)
            vetted[name] = {"admitted": admitted, "rejected": rejected}
            print(f"{name}: admitted {len(admitted)} of {input_id} inputs", flush=True)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    # Re-read just before writing: another vet may have updated other workloads.
    merged = dict(workloads.load_inputs(), **vetted)
    with open(workloads.INPUTS, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def cmd_pin(args) -> int:
    spec = benchmark_spec()
    pins = {}
    for workload in (w["name"] for w in spec["workloads"]):
        # An outdated pin fails the run; its digest is what to record.
        details = run_once(spec, workload, PINNED_SEED, seconds=1, check=False)
        other = [e for e in details["errors"] if "!= pinned" not in e]
        if other or not details["digests"]:
            raise SystemExit(f"{workload}: {other or 'no op completed'}")
        pins[workload] = details["digests"][0]
        print(f"{workload}: {pins[workload]}")
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_vet = sub.add_parser("vet")
    p_vet.add_argument("--workload", action="append")
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--runs", type=int, default=10)
    p_spread.add_argument("--first-seed", type=int, default=1)
    p_spread.add_argument("--workload", action="append")
    p_spread.add_argument("--out")
    p_base = sub.add_parser("baseline")
    p_base.add_argument("--runs", type=int, default=5)
    p_base.add_argument("--sets", type=int, default=2)
    sub.add_parser("pin")
    args = parser.parse_args(argv)
    commands = {"vet": cmd_vet, "spread": cmd_spread, "baseline": cmd_baseline, "pin": cmd_pin}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
