"""Command-line entry point: ``python -m repro.metrics``.

Typical uses::

    # Serve a scrape endpoint over one or more metric snapshots (as
    # written by `python -m repro.bench --metrics DIR` or a
    # PeriodicFlusher); loading several snapshots aggregates them.
    python -m repro.metrics serve --snapshot metrics-out/metrics.json

    # Validate a Prometheus text dump (CI scrapes the endpoint into a
    # file, then format-checks it with this).
    python -m repro.metrics check scraped.prom

Exit codes: 0 success, 1 invalid exposition format (``check``), 2 an
input file that cannot be read or loaded, or no subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .exposition import validate_exposition
from .registry import MetricsRegistry, default_registry
from .server import serve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics",
        description="aggregated solver metrics: exposition endpoint "
                    "and format checker",
    )
    sub = parser.add_subparsers(dest="command")

    serve_cmd = sub.add_parser(
        "serve", help="expose a Prometheus /metrics endpoint",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=9464,
        help="bind port (default 9464; 0 picks a free port)",
    )
    serve_cmd.add_argument(
        "--snapshot", action="append", default=[], metavar="FILE",
        help="load this metrics snapshot JSON into the served "
             "registry (repeatable; snapshots aggregate)",
    )

    check = sub.add_parser(
        "check", help="validate Prometheus text exposition format",
    )
    check.add_argument(
        "path", help="file of exposition text ('-' for stdin)",
    )
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.snapshot:
        registry = MetricsRegistry()
        for path in args.snapshot:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    registry.load_snapshot(json.load(handle))
            except (OSError, ValueError) as error:
                print(f"error: cannot load snapshot {path!r}: {error}",
                      file=sys.stderr)
                return 2
        print(f"loaded {len(args.snapshot)} snapshot(s)")
    else:
        registry = default_registry()
    server = serve(registry, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"serving metrics on http://{host}:{port}/metrics",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    errors = validate_exposition(text)
    if errors:
        for error in errors:
            print(f"INVALID {error}", file=sys.stderr)
        return 1
    samples = sum(
        1 for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )
    print(f"ok: valid exposition format ({samples} samples)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "check":
        return _cmd_check(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
