"""Reading and writing benchmark reports and baselines.

The *baseline* is one committed report — by convention
``benchmarks/BASELINE.json`` — that the compare step
(:mod:`repro.bench.compare`) diffs fresh runs against.  Reports are
written only on request (``python -m repro.bench --write-baseline``).
"""

from __future__ import annotations

import json
import os

from .harness import SCHEMA_VERSION, BenchReport

#: Default committed baseline location, relative to the repo root.
DEFAULT_BASELINE = os.path.join("benchmarks", "BASELINE.json")

#: Schema versions :func:`load_report` accepts.  v1 and v2 records also
#: carry wall times (v2 adds commit/time provenance stamps); the
#: loader ignores those fields, so old baselines keep working unchanged.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, SCHEMA_VERSION)


class BaselineError(ValueError):
    """A baseline/report file is missing, malformed, or incompatible."""


def write_report(report: BenchReport, path: str) -> str:
    """Serialize ``report`` to ``path`` (pretty-printed, stable order)."""
    payload = report.to_dict()
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path: str) -> BenchReport:
    """Load and validate a serialized report or baseline."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise BaselineError(f"no report at {path!r}") from None
    except json.JSONDecodeError as error:
        raise BaselineError(f"{path!r} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise BaselineError(f"{path!r}: expected a JSON object")
    version = payload.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
        raise BaselineError(
            f"{path!r}: schema_version {version!r} is not a supported "
            f"version ({supported})"
        )
    try:
        return BenchReport.from_dict(payload)
    except (KeyError, TypeError, ValueError) as error:
        raise BaselineError(f"{path!r}: malformed report: {error}") from None
