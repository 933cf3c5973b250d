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
from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.obs import disable_metrics, enable_metrics, write_trace_jsonl
from repro.sim import ChipContext, LifetimeSimulator, SimulationConfig, run_campaign
from repro.sim.campaign import DEFAULT_BATCH_SIZE
from repro.sim.export import save_results_json, save_summary_csv
from repro.sim.scenario import POLICIES, ScenarioError, load_scenario, run_scenario
from repro.util.constants import AMBIENT_KELVIN
from repro.variation import generate_population


def _int_at_least(minimum: int):
    """An argparse ``type``: an int >= ``minimum``, so a value out of
    range is a usage error (exit 2) instead of a library traceback."""

    def parse(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}: {text}")
        return int(text)

    parse.__name__ = "int"  # the name argparse gives a non-int value
    return parse


_COUNT = _int_at_least(1)


def _positive_float(text: str) -> float:
    """An argparse ``type``: a float > 0, so a non-positive value is a
    usage error (exit 2) instead of a library traceback."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0: {text}")
    return value


_positive_float.__name__ = "float"  # the name argparse gives a non-float value


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


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that become the run's ``SimulationConfig`` fields."""
    parser.add_argument(
        "--no-delta-candidates",
        action="store_true",
        help=(
            "evaluate every mapping candidate with the dense thermal "
            "predictor instead of the incremental delta engine (the delta "
            "default deviates by at most millikelvin temperatures, which "
            "can flip decisions near exact ties)"
        ),
    )


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """Dispatch, supervision and unit-size flags of ``campaign``/``sweep``."""
    parser.add_argument(
        "--workers", type=_COUNT, default=1, help="parallel worker processes"
    )
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
        type=_int_at_least(0),
        default=0,
        metavar="N",
        help="re-attempts granted to a job that raises, hangs, or dies",
    )
    parser.add_argument(
        "--job-timeout",
        type=_positive_float,
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
    parser.add_argument(
        "--batch-size",
        type=_COUNT,
        default=DEFAULT_BATCH_SIZE,
        metavar="N",
        help=(
            "chips per batched simulation unit (default: 32, whatever the "
            "worker count; 1 runs the per-chip path); the default "
            "delta-candidate gate counts stacked rows, so a chip's result "
            "can depend on its batch mates (see ROADMAP.md on batch-mate "
            "independence)"
        ),
    )


def _campaign_kwargs(args) -> dict:
    return {
        "workers": args.workers,
        "batch_size": args.batch_size,
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


def _export_campaigns(args, campaigns) -> None:
    """Write the ``--csv`` summaries and the ``--report`` markdown (one
    report section per campaign, i.e. per dark floor)."""
    if args.csv:
        everything = [
            r for campaign in campaigns for runs in campaign.results.values()
            for r in runs
        ]
        save_summary_csv(everything, args.csv)
        print(f"wrote {args.csv}")
    if args.report:
        from repro.analysis import campaign_report

        with open(args.report, "w") as handle:
            handle.write("\n".join(campaign_report(c) for c in campaigns))
        print(f"wrote {args.report}")


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
        lines = write_trace_jsonl(snapshot, args.trace)
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
    _add_engine_flags(simulate)

    campaign = sub.add_parser("campaign", help="VAA vs Hayat over a population")
    campaign.add_argument("--chips", type=int, default=5)
    campaign.add_argument("--seed", type=int, default=42)
    campaign.add_argument("--years", type=float, default=10.0)
    campaign.add_argument("--dark", type=float, default=0.5)
    campaign.add_argument("--csv", help="export all per-epoch summaries to CSV")
    campaign.add_argument(
        "--report", help="write a full markdown report to this file"
    )
    _add_campaign_flags(campaign)
    _add_observability_flags(campaign)
    _add_engine_flags(campaign)

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
    _add_campaign_flags(sweep)
    _add_observability_flags(sweep)
    _add_engine_flags(sweep)

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
        "--workers", type=_COUNT, default=1, help="persistent worker processes"
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
        seed=args.seed, delta_candidates=not args.no_delta_candidates,
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
        seed=args.seed, delta_candidates=not args.no_delta_candidates,
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
        **_campaign_kwargs(args),
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
    _export_campaigns(args, [campaign])
    _finish_observability(args, registry)
    return 0


def _cmd_run_scenario(args) -> int:
    try:
        scenario = load_scenario(args.path)
        name = scenario.get("name", args.path) if isinstance(scenario, dict) else args.path
        print(f"Running scenario {name!r}...")
        sweep = run_scenario(
            scenario,
            progress=lambda policy, chip: print(f"  {policy} / {chip}"),
        )
    except ScenarioError as error:
        print(f"scenario error: {error}")
        return 2
    campaigns = list(sweep.campaigns.values())
    for campaign in campaigns:
        _report_failures(campaign.failures)
    print(
        f"done: policies {campaigns[0].policies()} at dark floors "
        f"{sweep.fractions}"
    )
    _export_campaigns(args, campaigns)
    return 0


def _cmd_sweep(args) -> int:
    import numpy as np

    from repro.sim import SimulationConfig, sweep_dark_fractions

    config = SimulationConfig(
        lifetime_years=args.years, window_s=10.0, seed=args.seed,
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
        **_campaign_kwargs(args),
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
        try:
            request_id = submit_request(args.fleet_dir, load_scenario(args.submit))
        except ScenarioError as error:
            print(f"scenario error: {error}")
            return 2
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
