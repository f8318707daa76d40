"""Command-line interface.

Usage examples::

    repro list                       # available experiments
    repro run fig5                   # run one experiment, print its report
    repro run fig5 --plot            # ... with an ASCII curve plot
    repro run fig5 --jobs 4          # ... sweeping benchmarks in parallel
    repro run fig5 --chunk-size 65536  # ... bounded-memory streaming run
    repro run fig5 --profile p.json  # ... exporting timers/cache counters
    repro run table1 --csv out.csv   # ... exporting the data series
    repro run-all --jobs 4           # all experiments over a process pool
    repro run-all --shards 3 --shard-id 0   # join a 3-process run fabric
    repro fabric launch --workers 3  # single-host fabric: spawn, wait, merge
    repro fabric status              # per-unit fabric state
    repro suite                      # suite statistics (rates, sites)
    repro cache stats                # persistent stream-cache footprint (per tier)
    repro apps dual-path             # run an application model
    repro apps dual-path --json      # ... as a JSON record on stdout
    repro trace gcc --length 50000 --out gcc.npz   # dump a trace
    repro lint                       # reprolint invariant checker (src/repro)
    repro lint src/repro/sim         # ... over chosen paths
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments import get_experiment, list_experiments
from repro.experiments.config import DEFAULT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Assigning Confidence to Conditional Branch "
            "Predictions' (Jacobsen, Rotenberg & Smith, MICRO-29 1996)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run an experiment")
    run_parser.add_argument("experiment", help="experiment id (see 'repro list')")
    run_parser.add_argument(
        "--length", type=int, default=None, help="dynamic branches per benchmark"
    )
    run_parser.add_argument("--seed", type=int, default=None, help="workload seed")
    run_parser.add_argument(
        "--benchmarks", nargs="+", default=None, help="subset of benchmarks"
    )
    run_parser.add_argument(
        "--plot", action="store_true", help="render ASCII curve plot(s)"
    )
    run_parser.add_argument("--csv", default=None, help="export curves/table to CSV")
    run_parser.add_argument(
        "--json", default=None, help="export the full result record to JSON"
    )
    run_parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes for sweep fan-out"
    )
    run_parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="branches per streaming chunk (bounds peak memory; "
             "results are identical for any value)",
    )
    run_parser.add_argument(
        "--max-retries", type=int, default=None,
        help="retries per failing/timed-out parallel task before "
             "abort (errors) or serial fallback (timeouts)",
    )
    run_parser.add_argument(
        "--task-timeout", type=float, default=None,
        help="seconds to wait per parallel task before retrying it",
    )
    run_parser.add_argument(
        "--profile", default=None, help="export timers/cache counters to JSON"
    )

    run_all_parser = subparsers.add_parser(
        "run-all", help="run every registered experiment and print reports"
    )
    run_all_parser.add_argument("--length", type=int, default=None)
    run_all_parser.add_argument("--seed", type=int, default=None)
    run_all_parser.add_argument("--benchmarks", nargs="+", default=None)
    run_all_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (experiments fan out; reports stay in order)",
    )
    run_all_parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="branches per streaming chunk (bounds peak memory)",
    )
    run_all_parser.add_argument(
        "--max-retries", type=int, default=None,
        help="retries per failing/timed-out parallel task before "
             "abort (errors) or serial fallback (timeouts)",
    )
    run_all_parser.add_argument(
        "--task-timeout", type=float, default=None,
        help="seconds to wait per parallel task before retrying it",
    )
    run_all_parser.add_argument(
        "--profile", default=None, help="export timers/cache counters to JSON"
    )
    run_all_parser.add_argument(
        "--experiments", nargs="+", default=None, metavar="ID",
        help="subset of experiment ids (default: every registered one)",
    )
    run_all_parser.add_argument(
        "--shards", type=int, default=None,
        help="join a shared-cache fabric of this many cooperating "
             "processes instead of running alone (see 'repro fabric')",
    )
    run_all_parser.add_argument(
        "--shard-id", type=int, default=None,
        help="this process's shard index in [0, --shards)",
    )
    run_all_parser.add_argument(
        "--fabric-dir", default=None,
        help="shared fabric directory (default: derived from the plan "
             "digest under the cache root)",
    )

    fabric_parser = subparsers.add_parser(
        "fabric",
        help="sharded run fabric: launch/merge/inspect cooperating workers",
    )
    fabric_subparsers = fabric_parser.add_subparsers(
        dest="fabric_action", required=True
    )
    launch_parser = fabric_subparsers.add_parser(
        "launch", help="spawn N single-host workers, wait, print the merge"
    )
    launch_parser.add_argument("--workers", type=int, default=3)
    worker_parser = fabric_subparsers.add_parser(
        "worker", help="run one fabric shard (used by 'fabric launch')"
    )
    worker_parser.add_argument(
        "--plan", default=None,
        help="plan manifest written by 'fabric launch' (overrides config flags)",
    )
    worker_parser.add_argument("--shards", type=int, default=1)
    worker_parser.add_argument("--shard-id", type=int, default=0)
    worker_parser.add_argument("--ttl-seconds", type=float, default=None)
    worker_parser.add_argument("--heartbeat-seconds", type=float, default=None)
    worker_parser.add_argument("--poll-seconds", type=float, default=None)
    worker_parser.add_argument(
        "--no-steal", action="store_true",
        help="static partition: only claim owned units, never take over "
             "stale leases (benchmark attribution mode)",
    )
    worker_parser.add_argument(
        "--phase", choices=["streams", "reports"], default=None,
        help="restrict this worker pass to one unit kind",
    )
    merge_parser = fabric_subparsers.add_parser(
        "merge", help="fold published report entries, print the serial text"
    )
    status_parser = fabric_subparsers.add_parser(
        "status", help="per-unit fabric state: done / leased / pending"
    )
    for fabric_sub in (launch_parser, worker_parser, merge_parser, status_parser):
        fabric_sub.add_argument("--length", type=int, default=None)
        fabric_sub.add_argument("--seed", type=int, default=None)
        fabric_sub.add_argument("--benchmarks", nargs="+", default=None)
        fabric_sub.add_argument("--jobs", type=int, default=None)
        fabric_sub.add_argument("--chunk-size", type=int, default=None)
        fabric_sub.add_argument("--max-retries", type=int, default=None)
        fabric_sub.add_argument("--task-timeout", type=float, default=None)
        fabric_sub.add_argument(
            "--experiments", nargs="+", default=None, metavar="ID",
            help="subset of experiment ids (default: every registered one)",
        )
        fabric_sub.add_argument(
            "--fabric-dir", default=None,
            help="shared fabric directory (default: derived from the plan "
                 "digest under the cache root)",
        )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the persistent artifact store"
    )
    cache_parser.add_argument(
        "action",
        choices=["stats", "clear", "path"],
        help="stats: per-tier footprint; clear: delete entries; "
             "path: print the store's root directory",
    )

    suite_parser = subparsers.add_parser(
        "suite", help="show workload-suite statistics"
    )
    suite_parser.add_argument("--length", type=int, default=None)
    suite_parser.add_argument("--seed", type=int, default=None)
    suite_parser.add_argument("--chunk-size", type=int, default=None)

    apps_parser = subparsers.add_parser("apps", help="run an application model")
    apps_parser.add_argument(
        "application",
        choices=["dual-path", "smt-fetch", "reverser", "hybrid-selector"],
    )
    apps_parser.add_argument("--length", type=int, default=None)
    apps_parser.add_argument("--seed", type=int, default=None)
    apps_parser.add_argument("--benchmarks", nargs="+", default=None)
    apps_parser.add_argument("--chunk-size", type=int, default=None)
    apps_parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the report as JSON (to PATH, or stdout when no PATH)",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="generate and save a benchmark trace"
    )
    trace_parser.add_argument("benchmark", help="benchmark name")
    trace_parser.add_argument("--length", type=int, default=50_000)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument("--out", required=True, help="output .npz path")

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the reprolint invariant checker (see 'repro lint --help')",
        add_help=False,
    )
    lint_parser.add_argument("rest", nargs=argparse.REMAINDER)

    return parser


def _config_from_args(args: argparse.Namespace):
    config = DEFAULT_CONFIG
    overrides = {}
    if getattr(args, "length", None) is not None:
        overrides["trace_length"] = args.length
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "benchmarks", None):
        overrides["benchmarks"] = tuple(args.benchmarks)
    if getattr(args, "jobs", None) is not None:
        overrides["jobs"] = args.jobs
    if getattr(args, "chunk_size", None) is not None:
        overrides["chunk_size"] = args.chunk_size
    if getattr(args, "max_retries", None) is not None:
        overrides["max_retries"] = args.max_retries
    if getattr(args, "task_timeout", None) is not None:
        overrides["task_timeout"] = args.task_timeout
    if not overrides:
        return config
    try:
        # Range validation lives in ExperimentConfig.__post_init__, so
        # programmatic construction fails with exactly these messages too.
        return config.scaled(**overrides)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _check_output_paths(args: argparse.Namespace, *flags: str) -> None:
    """Exit with one line when an output file's directory does not exist.

    Checked before any work starts, so a mistyped path costs nothing
    instead of a traceback after the whole run.  ``apps --json -`` (stdout)
    passes: the directory of ``-`` is the working directory.
    """
    from pathlib import Path

    for flag in flags:
        path = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if path and not Path(path).parent.is_dir():
            raise SystemExit(
                f"{flag}: directory {Path(path).parent} does not exist"
            )


def _maybe_write_profile(args: argparse.Namespace, config) -> None:
    """Export the run's metrics when ``--profile`` was requested."""
    profile_path = getattr(args, "profile", None)
    from repro import observability

    observability.log_summary()
    if not profile_path:
        return
    import dataclasses

    extra = {
        "command": args.command,
        "experiment": getattr(args, "experiment", None),
        "config": dataclasses.asdict(config),
    }
    observability.write_profile(profile_path, extra=extra)
    print(f"\nwrote {profile_path}")


def _collect_curves(result) -> List:
    """Pull every ConfidenceCurve off an experiment result, best-effort."""
    from repro.analysis.curves import ConfidenceCurve

    curves: List[ConfidenceCurve] = []
    for attribute in vars(result).values():
        if isinstance(attribute, ConfidenceCurve):
            curves.append(attribute)
        elif isinstance(attribute, dict):
            curves.extend(
                value for value in attribute.values()
                if isinstance(value, ConfidenceCurve)
            )
    return curves


def _command_list() -> int:
    for experiment in list_experiments():
        print(f"{experiment.id:24s} {experiment.description}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    try:
        experiment = get_experiment(args.experiment)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    config = _config_from_args(args)
    from repro import observability

    _check_experiments([experiment.id], config)
    _check_output_paths(args, "--csv", "--json", "--profile")
    with observability.timed(f"experiment.{experiment.id}.seconds"):
        result = experiment.run(config)
    print(result.format())
    curves = _collect_curves(result)
    if args.plot and curves:
        from repro.analysis.plotting import ascii_curve_plot

        print()
        print(ascii_curve_plot(curves, title=experiment.description))
    if args.csv:
        from repro.analysis.export import curves_to_csv, table_to_csv
        from repro.analysis.table1 import Table1

        table = getattr(result, "table", None)
        if isinstance(table, Table1):
            table_to_csv(table, args.csv)
        else:
            curves_to_csv(curves, args.csv)
        print(f"\nwrote {args.csv}")
    if args.json:
        from repro.experiments.serialize import write_result_json

        write_result_json(result, args.json)
        print(f"\nwrote {args.json}")
    _maybe_write_profile(args, config)
    return 0


def _experiment_ids(args: argparse.Namespace) -> List[str]:
    """Requested experiment ids (validated), or the full registry order."""
    requested = getattr(args, "experiments", None)
    if not requested:
        return [experiment.id for experiment in list_experiments()]
    for experiment_id in requested:
        try:
            get_experiment(experiment_id)
        except KeyError as error:
            raise SystemExit(error.args[0]) from None
    return list(requested)


def _fabric_options(args: argparse.Namespace):
    from pathlib import Path

    from repro.fabric import FabricOptions

    overrides = {}
    if getattr(args, "shards", None) is not None:
        overrides["shards"] = args.shards
    if getattr(args, "shard_id", None) is not None:
        overrides["shard_id"] = args.shard_id
    if getattr(args, "fabric_dir", None):
        overrides["fabric_dir"] = Path(args.fabric_dir)
    if getattr(args, "ttl_seconds", None) is not None:
        overrides["ttl_seconds"] = args.ttl_seconds
    if getattr(args, "heartbeat_seconds", None) is not None:
        overrides["heartbeat_seconds"] = args.heartbeat_seconds
    if getattr(args, "poll_seconds", None) is not None:
        overrides["poll_seconds"] = args.poll_seconds
    if getattr(args, "no_steal", False):
        overrides["no_steal"] = True
    if getattr(args, "phase", None) is not None:
        overrides["phase"] = args.phase
    try:
        return FabricOptions(**overrides)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _check_experiments(ids: List[str], config) -> None:
    """Exit with the one-line reason when a config cannot run an experiment."""
    from repro.experiments.registry import check_experiments

    try:
        check_experiments(ids, config)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _command_run_all(args: argparse.Namespace) -> int:
    from repro.experiments import run_all_reports

    config = _config_from_args(args)
    ids = _experiment_ids(args)
    _check_experiments(ids, config)
    _check_output_paths(args, "--profile")
    if args.shards is not None or args.shard_id is not None:
        # Fabric mode: compute through the shared-cache claim loop; any
        # worker that observes the completed plan prints the merge, so a
        # one-shard fabric run is byte-identical to the serial path.
        from repro.fabric import merge_reports_text, run_worker
        from repro.fabric.runtime import fabric_complete

        options = _fabric_options(args)
        try:
            run_worker(config, ids, options)
        except (TimeoutError, ValueError) as error:
            raise SystemExit(str(error)) from None
        if fabric_complete(config, ids):
            print(merge_reports_text(config, ids), end="")
        _maybe_write_profile(args, config)
        return 0
    for report in run_all_reports(config, experiment_ids=ids):
        print(f"=== {report.experiment_id}: {report.description}")
        print(report.text)
        print()
    _maybe_write_profile(args, config)
    return 0


def _command_fabric(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fabric import fabric_status, launch_fabric, run_worker
    from repro.fabric.runtime import (
        default_fabric_dir,
        load_plan_manifest,
        merge_reports_text,
    )

    if getattr(args, "plan", None):
        try:
            config, ids = load_plan_manifest(Path(args.plan))
        except ValueError as error:
            raise SystemExit(str(error)) from None
    else:
        config = _config_from_args(args)
        ids = _experiment_ids(args)
    options = _fabric_options(args)
    fabric_dir = options.fabric_dir or default_fabric_dir(config, ids)
    if args.fabric_action == "launch":
        try:
            merged = launch_fabric(
                config,
                ids,
                workers=args.workers,
                fabric_dir=fabric_dir,
                options=options,
            )
        except (RuntimeError, ValueError) as error:
            raise SystemExit(str(error)) from None
        print(merged, end="")
        return 0
    if args.fabric_action == "worker":
        try:
            run_worker(config, ids, options)
        except (TimeoutError, ValueError) as error:
            raise SystemExit(str(error)) from None
        return 0
    if args.fabric_action == "merge":
        try:
            print(merge_reports_text(config, ids), end="")
        except FileNotFoundError as error:
            raise SystemExit(str(error)) from None
        return 0
    if args.fabric_action == "status":
        print(fabric_status(config, ids, fabric_dir))
        return 0
    raise AssertionError(f"unhandled fabric action {args.fabric_action!r}")


def _command_cache(args: argparse.Namespace) -> int:
    from repro.sim.diskcache import (
        cache_root,
        clear_disk_cache_by_tier,
        disk_cache_stats,
    )

    if args.action == "path":
        print(cache_root())
    elif args.action == "stats":
        print(disk_cache_stats().format())
    elif args.action == "clear":
        removed_by_tier = clear_disk_cache_by_tier()
        removed = sum(removed_by_tier.values())
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
        for tier, count in removed_by_tier.items():
            print(f"  {tier}: {count}")
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled cache action {args.action!r}")
    return 0


def _command_suite(args: argparse.Namespace) -> int:
    from repro.experiments.runner import suite_streams
    from repro.traces.statistics import compute_statistics
    from repro.workloads import load_benchmark

    config = _config_from_args(args)
    streams = suite_streams(config)
    print(f"{'benchmark':12s} {'dynamic':>9s} {'static':>7s} {'taken':>7s} {'mis%':>6s}")
    for name, stream in streams.items():
        trace = load_benchmark(name, config.trace_length, config.seed)
        stats = compute_statistics(trace)
        print(
            f"{name:12s} {stats.dynamic_branches:9d} {stats.static_branches:7d} "
            f"{stats.taken_fraction:7.2%} {stream.misprediction_rate:6.2%}"
        )
    return 0


def _command_apps(args: argparse.Namespace) -> int:
    from repro.apps import (
        evaluate_dual_path,
        evaluate_hybrid_selector,
        evaluate_reverser,
        evaluate_smt_fetch,
    )

    config = _config_from_args(args)
    _check_output_paths(args, "--json")
    runners = {
        "dual-path": evaluate_dual_path,
        "smt-fetch": evaluate_smt_fetch,
        "reverser": evaluate_reverser,
        "hybrid-selector": evaluate_hybrid_selector,
    }
    report = runners[args.application](config)
    if args.json is not None:
        import json

        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.json}")
    else:
        print(report.format())
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.sim.cache import _load_any_benchmark
    from repro.traces import save_trace

    config = _config_from_args(args)  # the same --length check as `run`
    _check_output_paths(args, "--out")
    try:
        # The benchmark check `run` makes (IBS or SPEC-like names), then
        # the loader the experiments use.
        config = config.scaled(benchmarks=(args.benchmark,))
        trace = _load_any_benchmark(args.benchmark, config.trace_length, config.seed)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} branches to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A reader that closes stdout early (``repro ... | head``) ends the
    run quietly with exit code 1 instead of a ``BrokenPipeError``
    traceback.
    """
    arguments = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        code = _dispatch(arguments)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's exit-time flush would hit the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _dispatch(arguments: List[str]) -> int:
    """Run the command ``arguments`` name; returns its exit code."""
    if arguments and arguments[0] == "lint":
        # Forwarded wholesale (argparse.REMAINDER cannot pass through
        # leading options); the lint CLI owns its own argument parsing.
        from repro.analysis.lint.cli import main as lint_main

        return lint_main(arguments[1:])
    args = _build_parser().parse_args(arguments)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "run-all":
        return _command_run_all(args)
    if args.command == "fabric":
        return _command_fabric(args)
    if args.command == "suite":
        return _command_suite(args)
    if args.command == "cache":
        return _command_cache(args)
    if args.command == "apps":
        return _command_apps(args)
    if args.command == "trace":
        return _command_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
