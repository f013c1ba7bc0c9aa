"""Command-line entry point: ``python -m repro.bench``.

Typical uses::

    # CI smoke gate: run the pinned smoke workload, write BENCH_<n>.json,
    # diff work counts against the committed baseline (wall times are
    # skipped because CI hardware differs from the baseline's machine).
    python -m repro.bench --smoke --baseline benchmarks/BASELINE.json \
        --ignore-time

    # Record a new baseline after an intentional change.
    python -m repro.bench --smoke --write-baseline benchmarks/BASELINE.json

    # Local perf check, medium suite, with the time gate active.
    python -m repro.bench --suite medium --baseline benchmarks/BASELINE.json

Work counts are exact oracles only under a pinned hash seed, so unless
``PYTHONHASHSEED`` is already set the process re-executes itself once
with ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .baseline import (
    DEFAULT_BASELINE,
    BaselineError,
    load_report,
    write_next_report,
    write_report,
)
from ..parallel.pool import ParallelError, repin_hash_seed
from .compare import IncomparableReportsError, compare_reports
from .harness import (
    BenchTimeoutError,
    SMOKE_REPEATS,
    SMOKE_SUITE,
    render_report,
    run_bench,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="benchmark-regression harness for the solver",
    )
    parser.add_argument(
        "--suite", default=None, choices=("quick", "medium", "full"),
        help="workload suite to run (default: quick)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"pinned CI smoke run: suite={SMOKE_SUITE!r}, "
             f"repeats={SMOKE_REPEATS}",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help=f"wall-time samples per configuration "
             f"(median is recorded; default {SMOKE_REPEATS})",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="variable-order seed (default 0)")
    parser.add_argument(
        "--experiments", nargs="+", metavar="LABEL", default=None,
        help="subset of Table-4 labels (default: all six)",
    )
    parser.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for the BENCH_<n>.json output (default: cwd)",
    )
    parser.add_argument(
        "--no-output", action="store_true",
        help="do not write a BENCH_<n>.json file",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help=f"compare against this baseline (e.g. {DEFAULT_BASELINE}) "
             "and exit nonzero on regression",
    )
    parser.add_argument(
        "--write-baseline", metavar="PATH", default=None,
        help="write this run as the new baseline",
    )
    parser.add_argument(
        "--time-tolerance", type=float, default=0.25, metavar="FRACTION",
        help="allowed median wall-time growth before failing "
             "(default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--ignore-time", action="store_true",
        help="gate on work counts only (use when the baseline was "
             "recorded on different hardware)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole suite run; a hung or "
             "regressed solve aborts with a timeout error instead of "
             "stalling the job (default: no timeout)",
    )
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="attach telemetry sinks and write trace_summary.json + "
             "trace_spans.json (Chrome/Perfetto) into DIR; counters "
             "are unaffected, wall times carry the observation cost",
    )
    parser.add_argument(
        "--metrics", metavar="DIR", default=None,
        help="attach a MetricsSink to every run and write metrics.json "
             "(snapshot) + metrics.prom (Prometheus text) into DIR; "
             "counters are unaffected, wall times carry the "
             "observation cost",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard (benchmark, experiment) pairs across N worker "
             "processes (0 = one per core; default 1 = serial); "
             "deterministic report fields are byte-identical to a "
             "serial run",
    )
    parser.add_argument(
        "--no-pin-hashseed", action="store_true",
        help="do not re-exec with PYTHONHASHSEED=0 (work counts of "
             "Online configurations then vary between processes)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    if not args.no_pin_hashseed:
        code = repin_hash_seed("repro.bench", argv)
        if code is not None:
            return code
    suite_name = args.suite or SMOKE_SUITE
    repeats = args.repeats if args.repeats is not None else SMOKE_REPEATS
    try:
        report = run_bench(
            suite_name=suite_name,
            experiments=args.experiments,
            seed=args.seed,
            repeats=repeats,
            progress=lambda line: print(line, flush=True),
            trace_dir=args.trace,
            timeout_seconds=args.timeout,
            metrics_dir=args.metrics,
            jobs=args.jobs,
        )
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except BenchTimeoutError as error:
        print(f"timeout: {error}", file=sys.stderr)
        return 3
    except ParallelError as error:
        print(f"parallel run failed: {error}", file=sys.stderr)
        return 2
    print()
    print(render_report(report))
    if args.trace:
        print(f"\nwrote trace artifacts to {args.trace}/")
    if args.metrics:
        print(f"\nwrote metrics artifacts to {args.metrics}/")
    if not args.no_output:
        path = write_next_report(report, args.out)
        print(f"\nwrote {path}")
    if args.write_baseline:
        write_report(report, args.write_baseline)
        print(f"wrote baseline {args.write_baseline}")
    if args.baseline:
        try:
            baseline = load_report(args.baseline)
            comparison = compare_reports(
                baseline,
                report,
                time_tolerance=args.time_tolerance,
                check_time=not args.ignore_time,
            )
        except (BaselineError, IncomparableReportsError) as error:
            print(f"\nbaseline compare failed: {error}", file=sys.stderr)
            return 2
        print(f"\ncompare against {args.baseline}:")
        print(comparison.render())
        if not comparison.ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
