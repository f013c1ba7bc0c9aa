"""Command-line entry point: ``python -m repro.bench``.

Typical uses::

    # CI gate: run the quick suite and require every counter of every
    # (benchmark, experiment) pair to equal the committed baseline.
    python -m repro.bench --baseline benchmarks/BASELINE.json

    # Record a new baseline after an intentional counter change.
    python -m repro.bench --write-baseline benchmarks/BASELINE.json

Work counts are exact oracles under any hash seed.  Exit codes: 0
counters match (or no baseline given), 1 a counter drifted or a
baseline pair is missing, 2 bad input or an incomparable baseline, 3
timeout.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .baseline import (
    DEFAULT_BASELINE,
    BaselineError,
    load_report,
    write_report,
)
from ..parallel.pool import ParallelError
from .compare import IncomparableReportsError, compare_reports
from .harness import (
    DEFAULT_REPEATS,
    DEFAULT_SUITE,
    BenchTimeoutError,
    render_report,
    run_bench,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="exact counter-identity gate for the solver",
    )
    parser.add_argument(
        "--suite", default=DEFAULT_SUITE,
        choices=("quick", "medium", "full"),
        help=f"workload suite to run (default: {DEFAULT_SUITE})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"solves per configuration; every repeat must reproduce "
             f"the first one's counters (default {DEFAULT_REPEATS})",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="variable-order seed (default 0)")
    parser.add_argument(
        "--experiments", nargs="+", metavar="LABEL", default=None,
        help="subset of Table-4 labels (default: all six)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help=f"compare against this baseline (e.g. {DEFAULT_BASELINE}) "
             "and exit 1 if any counter differs",
    )
    parser.add_argument(
        "--write-baseline", metavar="PATH", default=None,
        help="write this run as the new baseline",
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
             "are unaffected",
    )
    parser.add_argument(
        "--metrics", metavar="DIR", default=None,
        help="attach a MetricsSink to every run and write metrics.json "
             "(snapshot) + metrics.prom (Prometheus text) into DIR; "
             "counters are unaffected",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard (benchmark, experiment) pairs across N worker "
             "processes (0 = one per core; default 1 = serial); the "
             "report is identical to a serial run's",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = run_bench(
            suite_name=args.suite,
            experiments=args.experiments,
            seed=args.seed,
            repeats=args.repeats,
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
    if args.write_baseline:
        write_report(report, args.write_baseline)
        print(f"\nwrote baseline {args.write_baseline}")
    if args.baseline:
        try:
            baseline = load_report(args.baseline)
            comparison = compare_reports(baseline, report)
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
