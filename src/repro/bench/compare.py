"""The counter-identity gate: diff a fresh report against the baseline.

Every :data:`~repro.bench.measure.COUNTER_FIELDS` value is deterministic
for a pinned workload, seed, and ``PYTHONHASHSEED``, so the gate is
exact: a counter that differs from the baseline in *either* direction
is a regression.  A drop in ``work`` or in ``cycle_search_visits``
breaks the oracle as surely as a rise does, and a change the author
intended is recorded by re-writing the baseline.  A (benchmark,
experiment) pair present in the baseline but missing from the fresh run
also fails: silently shrinking the suite must not read as green.

Comparing runs with different suites, seeds, or hash seeds is refused
rather than attempted: the counters are only oracles when the workload
is literally the same.

:func:`counter_drift` is the one per-pair diff; ``python -m repro.trace
report --check-baseline`` applies it to traced runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from .harness import BenchReport
from .measure import COUNTER_FIELDS


class IncomparableReportsError(ValueError):
    """The two reports do not describe the same pinned workload."""


@dataclass
class Finding:
    """One counter of one (benchmark, experiment) pair that drifted."""

    benchmark: str
    experiment: str
    metric: str
    baseline: Optional[int]
    current: Optional[int]

    def __str__(self) -> str:
        return (
            f"{self.benchmark}/{self.experiment} {self.metric}: "
            f"baseline={self.baseline} run={self.current}"
        )


def counter_drift(benchmark: str, experiment: str,
                  baseline: Mapping[str, int],
                  current: Mapping[str, int]) -> List[Finding]:
    """Every counter whose value in ``current`` differs from ``baseline``."""
    return [
        Finding(benchmark, experiment, name,
                baseline.get(name), current.get(name))
        for name in COUNTER_FIELDS
        if current.get(name) != baseline.get(name)
    ]


@dataclass
class ComparisonResult:
    """All findings from one baseline diff."""

    regressions: List[Finding] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def render(self) -> str:
        lines: List[str] = []
        for key in self.missing:
            lines.append(f"MISSING    {key} (in baseline, not in this run)")
        for finding in self.regressions:
            lines.append(f"REGRESSION {finding}")
        if not lines:
            lines.append("no regressions against baseline")
        return "\n".join(lines)


def compare_reports(baseline: BenchReport,
                    current: BenchReport) -> ComparisonResult:
    """Diff ``current``'s counters against ``baseline``'s, pair by pair."""
    for attr in ("suite", "seed"):
        if getattr(baseline, attr) != getattr(current, attr):
            raise IncomparableReportsError(
                f"baseline {attr}={getattr(baseline, attr)!r} but current "
                f"run has {attr}={getattr(current, attr)!r}"
            )
    if baseline.hash_seed != current.hash_seed:
        raise IncomparableReportsError(
            f"baseline was recorded with PYTHONHASHSEED="
            f"{baseline.hash_seed} but this run used "
            f"{current.hash_seed}; work counts are only comparable "
            "under the same hash seed"
        )
    result = ComparisonResult()
    current_by_key = current.key()
    for key, base_record in baseline.key().items():
        record = current_by_key.get(key)
        if record is None:
            result.missing.append("/".join(key))
        else:
            result.regressions.extend(counter_drift(
                *key, base_record.counters, record.counters
            ))
    return result
