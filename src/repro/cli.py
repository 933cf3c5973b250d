"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``chip``
    Manufacture a chip and print its variation maps.
``simulate``
    Run one chip's lifetime under a policy; optionally export results.
``campaign``
    Run a VAA-vs-Hayat campaign and print the normalized figure metrics.
``serve``
    Run the fleet campaign daemon over a spool directory (or submit a
    request to it / query its status).
"""

from __future__ import annotations

import argparse
import signal
import sys

import numpy as np

from repro.aging.tables import default_aging_table
from repro.analysis import format_table, metrics_report, render_core_map
from repro.baselines import (
    ContiguousManager,
    CoolestFirstManager,
    RandomManager,
    VAAManager,
)
from repro.core import HayatManager
from repro.obs import disable_metrics, enable_metrics
from repro.sim import ChipContext, LifetimeSimulator, SimulationConfig, run_campaign
from repro.sim.export import save_results_json, save_summary_csv, save_trace_jsonl
from repro.thermal import configure_thermal_cache
from repro.util.constants import AMBIENT_KELVIN
from repro.variation import generate_population

POLICIES = {
    "hayat": HayatManager,
    "vaa": VAAManager,
    "contiguous": ContiguousManager,
    "coolest": CoolestFirstManager,
    "random": RandomManager,
}


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect engine telemetry and print a counters/timers summary",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL trace (spans, counters, timers) to PATH",
    )
    parser.add_argument(
        "--no-thermal-cache",
        action="store_true",
        help=(
            "disable the process-level thermal compute cache (results are "
            "bit-identical either way; use to time the uncached path)"
        ),
    )
    parser.add_argument(
        "--no-fused-window",
        action="store_true",
        help=(
            "run the transient window step by step instead of through the "
            "fused segment engine (results are bit-identical either way)"
        ),
    )
    parser.add_argument(
        "--no-batch-decision",
        action="store_true",
        help=(
            "run epoch decisions chip by chip instead of through the "
            "cross-lane batched mapper (results are bit-identical either "
            "way; only affects batched runs)"
        ),
    )
    parser.add_argument(
        "--no-delta-candidates",
        action="store_true",
        help=(
            "evaluate every mapping candidate with the dense thermal "
            "predictor and unseeded table walks instead of the "
            "incremental delta engine (restores pre-delta behavior "
            "exactly; the delta default deviates by at most millikelvin "
            "temperatures)"
        ),
    )


def _add_supervision_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help=(
            "stream completed jobs to this JSONL checkpoint; re-running "
            "with the same path resumes, skipping recorded jobs"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-attempts granted to a job that raises, hangs, or dies",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "per-job wall-clock deadline in seconds (runs jobs in a "
            "preemptable worker pool, even with --workers 1)"
        ),
    )
    parser.add_argument(
        "--allow-partial",
        action="store_true",
        help=(
            "finish the campaign even when jobs exhaust their retries; "
            "failures are reported instead of aborting"
        ),
    )


def _add_batch_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help=(
            "chips per batched simulation unit (default: auto-sized from "
            "the population and worker count; results are bit-identical "
            "to the per-chip path)"
        ),
    )
    group.add_argument(
        "--no-batch",
        action="store_true",
        help="force the per-chip simulation path (disable batching)",
    )


def _batch_kwargs(args) -> dict:
    if args.no_batch:
        return {"batch_size": None}
    if args.batch_size is not None:
        if args.batch_size < 1:
            raise SystemExit("--batch-size must be >= 1")
        return {"batch_size": args.batch_size}
    return {"batch_size": "auto"}


def _supervision_kwargs(args) -> dict:
    return {
        "checkpoint": args.checkpoint,
        "retries": args.retries,
        "job_timeout_s": args.job_timeout,
        "allow_partial": args.allow_partial,
    }


def _report_failures(failures) -> None:
    if not failures:
        return
    print()
    print(f"{len(failures)} job(s) failed and were degraded:")
    for failure in failures:
        print(f"  {failure.describe()}")


def _start_observability(args):
    """Enable the global registry when ``--metrics``/``--trace`` ask for it."""
    if getattr(args, "metrics", False) or getattr(args, "trace", None):
        return enable_metrics(trace=bool(args.trace))
    return None


def _finish_observability(args, registry) -> None:
    """Export/print the collected telemetry and restore the null registry."""
    if registry is None:
        return
    snapshot = registry.snapshot()
    disable_metrics()
    if args.trace:
        lines = save_trace_jsonl(snapshot, args.trace)
        print(f"wrote {args.trace} ({lines} trace lines)")
    if args.metrics:
        print()
        print(metrics_report(snapshot))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hayat (DAC 2015) reproduction - aging management "
        "for dark-silicon manycores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chip = sub.add_parser("chip", help="manufacture a chip, print its maps")
    chip.add_argument("--seed", type=int, default=42)
    chip.add_argument("--index", type=int, default=0, help="chip index in the population")

    simulate = sub.add_parser("simulate", help="one chip, one policy, full lifetime")
    simulate.add_argument("--policy", choices=sorted(POLICIES), default="hayat")
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument("--years", type=float, default=10.0)
    simulate.add_argument("--dark", type=float, default=0.5, help="minimum dark fraction")
    simulate.add_argument("--json", help="export the full result to this JSON file")
    simulate.add_argument("--csv", help="export the per-epoch summary to this CSV file")
    _add_observability_flags(simulate)

    campaign = sub.add_parser("campaign", help="VAA vs Hayat over a population")
    campaign.add_argument("--chips", type=int, default=5)
    campaign.add_argument("--seed", type=int, default=42)
    campaign.add_argument("--years", type=float, default=10.0)
    campaign.add_argument("--dark", type=float, default=0.5)
    campaign.add_argument("--csv", help="export all per-epoch summaries to CSV")
    campaign.add_argument(
        "--report", help="write a full markdown report to this file"
    )
    campaign.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    _add_supervision_flags(campaign)
    _add_batch_flags(campaign)
    _add_observability_flags(campaign)

    scenario = sub.add_parser(
        "run-scenario", help="run a JSON scenario document"
    )
    scenario.add_argument("path", help="scenario JSON file")
    scenario.add_argument("--csv", help="export all per-epoch summaries to CSV")
    scenario.add_argument(
        "--report", help="write a markdown report (needs vaa+hayat policies)"
    )

    sweep = sub.add_parser("sweep", help="sweep the dark-silicon floor")
    sweep.add_argument(
        "--fractions", type=float, nargs="+", default=[0.25, 0.5],
        help="minimum dark fractions to sweep",
    )
    sweep.add_argument("--chips", type=int, default=3)
    sweep.add_argument("--seed", type=int, default=42)
    sweep.add_argument("--years", type=float, default=10.0)
    sweep.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    _add_supervision_flags(sweep)
    _add_batch_flags(sweep)
    _add_observability_flags(sweep)

    serve = sub.add_parser(
        "serve", help="fleet campaign daemon over a spool directory"
    )
    serve.add_argument(
        "--fleet-dir",
        required=True,
        metavar="DIR",
        help=(
            "fleet root directory (spool/, results/, done/, store/ are "
            "created inside it)"
        ),
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="persistent worker processes"
    )
    serve.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="S",
        help="spool poll interval in seconds",
    )
    serve.add_argument(
        "--drain",
        action="store_true",
        help="exit once the spool is empty instead of polling forever",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after processing N requests",
    )
    serve.add_argument(
        "--requirement-ghz",
        type=float,
        default=None,
        metavar="GHZ",
        help=(
            "pin one MTTF frequency requirement fleet-wide, overriding "
            "each request's requirement_ghz"
        ),
    )
    serve.add_argument(
        "--submit",
        metavar="PATH",
        help=(
            "submit the request JSON at PATH to the fleet spool and exit "
            "(prints the request id; run without --submit to process it)"
        ),
    )
    serve.add_argument(
        "--status",
        action="store_true",
        help="print the fleet's status (store, queue, aggregates) and exit",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    _add_observability_flags(serve)
    return parser


def _cmd_chip(args) -> int:
    population = generate_population(args.index + 1, seed=args.seed)
    chip = population[args.index]
    print(chip)
    print()
    print(
        render_core_map(
            population.floorplan,
            chip.fmax_init_ghz,
            title="initial fmax (GHz):",
            fmt="{:5.2f}",
        )
    )
    print()
    print(
        render_core_map(
            population.floorplan,
            chip.leakage_scale,
            title="leakage multipliers:",
            fmt="{:5.2f}",
        )
    )
    print()
    print(f"frequency spread: {100 * chip.frequency_spread():.1f} %")
    return 0


def _cmd_simulate(args) -> int:
    population = generate_population(1, seed=args.seed)
    chip = population[0]
    table = default_aging_table()
    config = SimulationConfig(
        lifetime_years=args.years, dark_fraction_min=args.dark, window_s=10.0,
        seed=args.seed, fused_window=not args.no_fused_window,
        batch_decision=not args.no_batch_decision,
        delta_candidates=not args.no_delta_candidates,
    )
    policy = POLICIES[args.policy]()
    print(f"Simulating {chip.chip_id} under {policy.name} for {args.years} years...")
    registry = _start_observability(args)
    ctx = ChipContext(chip, table, dark_fraction_min=args.dark)
    result = LifetimeSimulator(config).run(ctx, policy)

    print(
        format_table(
            ["metric", "value"],
            [
                ["DTM events", result.total_dtm_events()],
                ["avg temp rise (K)", f"{result.mean_temp_rise_k(AMBIENT_KELVIN):.1f}"],
                ["chip fmax start/end (GHz)",
                 f"{result.fmax_init_ghz.max():.2f} / "
                 f"{result.chip_fmax_trajectory_ghz()[-1]:.2f}"],
                ["avg fmax start/end (GHz)",
                 f"{result.fmax_init_ghz.mean():.2f} / "
                 f"{result.avg_fmax_trajectory_ghz()[-1]:.2f}"],
                ["QoS violations", result.total_qos_violations()],
            ],
            title=f"{policy.name} on {chip.chip_id}",
        )
    )
    if args.json:
        save_results_json([result], args.json)
        print(f"wrote {args.json}")
    if args.csv:
        save_summary_csv([result], args.csv)
        print(f"wrote {args.csv}")
    _finish_observability(args, registry)
    return 0


def _cmd_campaign(args) -> int:
    config = SimulationConfig(
        lifetime_years=args.years, dark_fraction_min=args.dark, window_s=10.0,
        seed=args.seed, fused_window=not args.no_fused_window,
        batch_decision=not args.no_batch_decision,
        delta_candidates=not args.no_delta_candidates,
    )
    print(
        f"Campaign: {args.chips} chips x {args.years} years x "
        f"{{vaa, hayat}} at >= {100 * args.dark:.0f} % dark..."
    )
    registry = _start_observability(args)
    campaign = run_campaign(
        [VAAManager(), HayatManager()],
        num_chips=args.chips,
        config=config,
        population_seed=args.seed,
        progress=lambda policy, chip: print(f"  {policy} / {chip}"),
        workers=args.workers,
        **_supervision_kwargs(args),
        **_batch_kwargs(args),
    )
    _report_failures(campaign.failures)
    dtm = campaign.normalized_dtm_events("vaa", "hayat")
    temp = campaign.normalized_temp_rise("vaa", "hayat")
    aging = campaign.normalized_avg_fmax_aging("vaa", "hayat")
    chip_aging = campaign.normalized_chip_fmax_aging("vaa", "hayat")
    rows = [
        ["DTM events", f"{dtm.mean():.3f}" if dtm.size else "n/a"],
        ["temperature rise", f"{temp.mean():.3f}"],
        ["avg-fmax aging rate", f"{aging.mean():.3f}" if aging.size else "n/a"],
        ["chip-fmax aging rate", f"{chip_aging.mean():.3f}" if chip_aging.size else "n/a"],
    ]
    print()
    print(
        format_table(
            ["metric (hayat / vaa)", "mean over chips"],
            rows,
            title="Normalized comparison (below 1.0 = Hayat better)",
        )
    )
    if args.csv:
        everything = [r for runs in campaign.results.values() for r in runs]
        save_summary_csv(everything, args.csv)
        print(f"wrote {args.csv}")
    if args.report:
        from repro.analysis import campaign_report

        with open(args.report, "w") as handle:
            handle.write(campaign_report(campaign))
        print(f"wrote {args.report}")
    _finish_observability(args, registry)
    return 0


def _cmd_run_scenario(args) -> int:
    from repro.sim import ScenarioError, load_scenario, run_scenario

    try:
        scenario = load_scenario(args.path)
        name = scenario.get("name", args.path)
        print(f"Running scenario {name!r}...")
        campaign = run_scenario(
            scenario,
            progress=lambda policy, chip: print(f"  {policy} / {chip}"),
        )
    except ScenarioError as error:
        print(f"scenario error: {error}")
        return 2
    print(f"done: policies {campaign.policies()}")
    if args.csv:
        everything = [r for runs in campaign.results.values() for r in runs]
        save_summary_csv(everything, args.csv)
        print(f"wrote {args.csv}")
    if args.report:
        from repro.analysis import campaign_report

        with open(args.report, "w") as handle:
            handle.write(campaign_report(campaign))
        print(f"wrote {args.report}")
    return 0


def _cmd_sweep(args) -> int:
    import numpy as np

    from repro.sim import SimulationConfig, sweep_dark_fractions

    config = SimulationConfig(
        lifetime_years=args.years, window_s=10.0, seed=args.seed,
        fused_window=not args.no_fused_window,
        batch_decision=not args.no_batch_decision,
        delta_candidates=not args.no_delta_candidates,
    )
    print(
        f"Sweeping dark floors {args.fractions} over {args.chips} chips..."
    )
    registry = _start_observability(args)
    sweep = sweep_dark_fractions(
        [VAAManager(), HayatManager()],
        fractions=args.fractions,
        num_chips=args.chips,
        config=config,
        population_seed=args.seed,
        workers=args.workers,
        **_supervision_kwargs(args),
        **_batch_kwargs(args),
    )
    for campaign_result in sweep.campaigns.values():
        _report_failures(campaign_result.failures)
    dtm = sweep.metric("dtm", "vaa", "hayat")
    temp = sweep.metric("temp", "vaa", "hayat")
    aging = sweep.metric("avg_aging", "vaa", "hayat")
    rows = []
    # Iterate the sweep's own fractions: duplicates in --fractions are
    # deduplicated (order preserved), so the metric rows align with
    # sweep.fractions, not the raw argument list.
    for i, fraction in enumerate(sweep.fractions):
        rows.append(
            [
                f"{100 * fraction:.1f} %",
                f"{dtm[i]:.2f}" if np.isfinite(dtm[i]) else "n/a",
                f"{temp[i]:.3f}",
                f"{aging[i]:.3f}" if np.isfinite(aging[i]) else "n/a",
            ]
        )
    print()
    print(
        format_table(
            ["min dark", "DTM (vs VAA)", "temp (vs VAA)", "avg aging (vs VAA)"],
            rows,
            title="Dark-silicon sweep (below 1.0 = Hayat better)",
        )
    )
    _finish_observability(args, registry)
    return 0


def _cmd_serve(args) -> int:
    import json

    from repro.sim.fleet import FleetDaemon, fleet_status, submit_request

    if args.status:
        status = fleet_status(args.fleet_dir)
        aggregates = status.get("aggregates") or {}
        rows = [
            ["jobs stored", status.get("jobs_stored", 0)],
            ["queue depth", status.get("queue_depth", 0)],
            ["requests done", status.get("requests_done", "n/a")],
            ["cache hits", status.get("cache_hits", "n/a")],
            ["cache misses", status.get("cache_misses", "n/a")],
            ["store bytes", status.get("store_bytes", "n/a")],
            ["jobs/s (busy)", f"{status['jobs_per_s']:.2f}"
             if isinstance(status.get("jobs_per_s"), float) else "n/a"],
        ]
        print(format_table(["fleet", "value"], rows, title=args.fleet_dir))
        for name, group in (aggregates.get("groups") or {}).items():
            mttf = group["mttf_years"]["percentiles"].get("p50")
            print(
                f"  {name}: {group['jobs']} jobs, "
                f"{group['dead_cores']}/{group['cores']} dead cores, "
                f"median MTTF "
                f"{'n/a' if mttf is None else f'{mttf:.2f} y'}"
            )
        return 0

    if args.submit:
        with open(args.submit, encoding="utf-8") as handle:
            data = json.load(handle)
        request_id = submit_request(args.fleet_dir, data)
        print(request_id)
        return 0

    registry = _start_observability(args)
    progress = (
        None if args.quiet else (lambda policy, chip: print(f"  {policy} / {chip}"))
    )
    with FleetDaemon(
        args.fleet_dir,
        workers=args.workers,
        poll_s=args.poll,
        requirement_ghz=args.requirement_ghz,
    ) as daemon:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: daemon.stop())
        print(
            f"serving fleet at {args.fleet_dir} "
            f"({daemon.workers} worker(s); SIGTERM/SIGINT to stop)"
        )
        processed = daemon.serve(
            drain=args.drain, max_requests=args.max_requests, progress=progress
        )
    print(f"processed {processed} request(s)")
    _finish_observability(args, registry)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if getattr(args, "no_thermal_cache", False):
        configure_thermal_cache(enabled=False)
    if getattr(args, "no_delta_candidates", False):
        from repro.core.delta_eval import configure_delta_eval

        configure_delta_eval(enabled=False)
    handlers = {
        "chip": _cmd_chip,
        "simulate": _cmd_simulate,
        "campaign": _cmd_campaign,
        "run-scenario": _cmd_run_scenario,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
