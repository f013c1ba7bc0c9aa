"""Command-line entry point: ``python -m repro.trace``.

Typical uses::

    # Full event log of one run (every edge attempt, search visit,
    # collapse), plus a Chrome view of it.
    python -m repro.trace record --benchmark compress --experiment IF-Online \
        --out compress.jsonl --chrome compress.trace.json

    # Convert a saved JSONL log later.
    python -m repro.trace convert compress.jsonl compress.trace.json

Traced suite runs are ``python -m repro.bench --trace DIR``: per-run
telemetry, Chrome spans and each experiment's mean partial-search
visits (Theorem 5.2 bounds it at about 2.2).  Figure 11's detection
rates are ``python -m repro.experiments figure11``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .chrome import convert_jsonl
from .sinks import JsonlSink


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="solver event tracing, profiling, and telemetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record",
        help="full JSONL event log of one benchmark run",
    )
    record.add_argument("--benchmark", required=True, metavar="NAME")
    record.add_argument(
        "--experiment", default="IF-Online", metavar="LABEL",
        help="experiment configuration (default: IF-Online)",
    )
    record.add_argument(
        "--suite", default="medium", choices=("quick", "medium", "full"),
        help="suite to look the benchmark up in (default: medium)",
    )
    record.add_argument("--seed", type=int, default=0)
    record.add_argument(
        "--out", required=True, metavar="PATH",
        help="JSONL output path",
    )
    record.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="also write a Chrome/Perfetto view of the recording",
    )
    record.add_argument(
        "--max-instants", type=int, default=None, metavar="N",
        help="downsample high-frequency instants in the Chrome view",
    )

    convert = sub.add_parser(
        "convert", help="convert a JSONL event log to a Chrome trace",
    )
    convert.add_argument("jsonl", help="input JSONL trace")
    convert.add_argument("out", help="output Chrome trace JSON")
    convert.add_argument(
        "--max-instants", type=int, default=None, metavar="N",
        help="downsample high-frequency instants",
    )
    return parser


def _cmd_record(args) -> int:
    from ..experiments.config import options_for
    from ..solver import solve
    from ..workloads import select_benchmarks, suite_names

    try:
        (bench,) = select_benchmarks(args.suite, [args.benchmark])
    except KeyError:
        names = sorted(suite_names(args.suite))
        print(
            f"error: benchmark {args.benchmark!r} not in suite "
            f"{args.suite!r} (have: {', '.join(names)})",
            file=sys.stderr,
        )
        return 2
    try:
        options = options_for(args.experiment, seed=args.seed)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    sink = JsonlSink(args.out)
    try:
        solution = solve(
            bench.program.system, options.replace(sink=sink)
        )
    finally:
        sink.close()
    stats = solution.stats
    print(
        f"recorded {bench.name} {args.experiment} -> {args.out}\n"
        f"work={stats.work} searches={stats.cycle_searches} "
        f"visits/search={stats.mean_search_visits:.2f} "
        f"eliminated={stats.vars_eliminated}"
    )
    if args.chrome:
        document = convert_jsonl(
            args.out, args.chrome, max_instants=args.max_instants
        )
        print(
            f"wrote Chrome trace {args.chrome} "
            f"({len(document['traceEvents'])} events)"
        )
    return 0


def _cmd_convert(args) -> int:
    try:
        document = convert_jsonl(
            args.jsonl, args.out, max_instants=args.max_instants
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    dropped = document["otherData"].get("dropped_instants", {})
    suffix = (
        f" (dropped {sum(dropped.values())} instants)" if dropped else ""
    )
    print(
        f"wrote {args.out} ({len(document['traceEvents'])} "
        f"events){suffix}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "record":
        return _cmd_record(args)
    return _cmd_convert(args)


if __name__ == "__main__":
    sys.exit(main())
