"""Metric instruments: counters, gauges, histograms, and their families.

An *instrument* is one time series — a :class:`Counter`, :class:`Gauge`
or :class:`Histogram` holding one value (or one bucket map) for one
label combination.  A :class:`Family` groups every labeled child of one
metric name, owns the metadata (help text, label names), and hands out
children via :meth:`Family.labels`.

Design constraints, in order:

* **Cheap updates.** ``Counter.inc`` is one attribute add; histogram
  ``observe`` is one bucket-floor computation plus three adds.  Hot
  paths pre-bind children once (see
  :class:`repro.metrics.sink.MetricsSink`) so label resolution is paid
  at wiring time, not per event.
* **One bucket scheme.** :class:`Histogram` is the repo's only
  histogram: values below :data:`EXACT_LIMIT` are counted exactly,
  larger ones in power-of-two buckets, with exact count/sum/min/max —
  enough for the mean partial-search visit count Theorem 5.2 bounds
  at about 2.2, in O(log max) memory per series.
* **No clock reads, no locks.** The solver is single-threaded per run;
  cross-thread aggregation happens at registry level by merging
  snapshots.  Exposition readers see a consistent-enough view without
  synchronization (Python's GIL makes single attribute updates atomic).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Instrument type names as they appear in snapshots and ``# TYPE``.
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Histogram values below this are counted in exact (width-1) buckets.
EXACT_LIMIT = 16


def bucket_floor(value: int) -> int:
    """The lower bound of the bucket holding ``value``.

    Exact below :data:`EXACT_LIMIT`; the largest power of two not
    exceeding ``value`` above it.
    """
    if value < EXACT_LIMIT:
        return value
    return 1 << (value.bit_length() - 1)


def bucket_ceiling(floor: int) -> int:
    """The inclusive upper bound of the bucket whose floor is ``floor``.

    For cumulative exposition this is the Prometheus ``le`` bound.
    """
    if floor < EXACT_LIMIT:
        return floor
    return floor * 2 - 1


class Counter:
    """A monotonically increasing value (float-valued; seconds count)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self.value += amount

    def to_value(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (last-write-wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def to_value(self) -> float:
        return self.value


class Histogram:
    """Integer-sample histogram: exact below 16, power-of-two above.

    Tracks ``count``/``sum``/``min``/``max`` exactly (``min``/``max``
    are ``None`` until the first sample) and a sparse bucket map keyed
    by :func:`bucket_floor`.  Snapshots and exposition carry
    ``count``/``sum``/``buckets``; ``min``/``max`` are per-process
    extras for reports.
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        #: bucket floor -> samples in the bucket (sparse)
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int, count: int = 1) -> None:
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        floor = bucket_floor(value)
        self.buckets[floor] = self.buckets.get(floor, 0) + count

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (bucket-wise exact)."""
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        for floor, count in other.buckets.items():
            self.buckets[floor] = self.buckets.get(floor, 0) + count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_rows(self) -> List[Tuple[int, int, int]]:
        """Sorted ``(lo, hi_inclusive, count)`` rows for reporting."""
        return [
            (floor, bucket_ceiling(floor), self.buckets[floor])
            for floor in sorted(self.buckets)
        ]

    def cumulative(self) -> List[Tuple[int, int]]:
        """Sorted ``(le, cumulative_count)`` rows, without ``+Inf``."""
        running = 0
        rows: List[Tuple[int, int]] = []
        for _, ceiling, count in self.bucket_rows():
            running += count
            rows.append((ceiling, running))
        return rows


_TYPE_CLASSES = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}

#: Prometheus metric / label name grammar (exposition format 0.0.4).
_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)
_LABEL_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


def valid_metric_name(name: str) -> bool:
    return bool(name) and name[0] not in "0123456789" and (
        set(name) <= _NAME_OK
    )


def valid_label_name(name: str) -> bool:
    return bool(name) and name[0] not in "0123456789" and (
        set(name) <= _LABEL_OK
    ) and not name.startswith("__")


class Family:
    """Every labeled child of one metric name, plus its metadata."""

    __slots__ = ("name", "type", "help", "labelnames", "_children")

    def __init__(self, name: str, type_: str, help_: str,
                 labelnames: Iterable[str] = ()) -> None:
        if type_ not in _TYPE_CLASSES:
            raise ValueError(f"unknown instrument type {type_!r}")
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        names = tuple(labelnames)
        for label in names:
            if not valid_label_name(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate label names in {names!r}")
        self.name = name
        self.type = type_
        self.help = help_
        self.labelnames = names
        #: label-value tuple -> child instrument
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, *values: str, **kwvalues: str):
        """The child instrument for one label-value combination.

        Accepts either positional values (in ``labelnames`` order) or
        keyword values; creates the child on first use.
        """
        if kwvalues:
            if values:
                raise ValueError(
                    "pass label values positionally or by keyword, not both"
                )
            try:
                values = tuple(
                    str(kwvalues.pop(name)) for name in self.labelnames
                )
            except KeyError as missing:
                raise ValueError(
                    f"{self.name}: missing label {missing.args[0]!r}"
                ) from None
            if kwvalues:
                raise ValueError(
                    f"{self.name}: unexpected labels {sorted(kwvalues)}"
                )
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {len(values)} values"
            )
        child = self._children.get(values)
        if child is None:
            child = _TYPE_CLASSES[self.type]()
            self._children[values] = child
        return child

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """All ``(label_values, child)`` pairs, label-sorted."""
        return sorted(self._children.items())

    # -- snapshots ------------------------------------------------------
    def to_dict(self) -> dict:
        rows = []
        for values, child in self.series():
            row: Dict[str, object] = {
                "labels": dict(zip(self.labelnames, values)),
            }
            if self.type == HISTOGRAM:
                row["count"] = child.count
                row["sum"] = child.sum
                row["buckets"] = {
                    str(floor): count
                    for floor, count in sorted(child.buckets.items())
                }
            else:
                row["value"] = child.to_value()
            rows.append(row)
        return {
            "name": self.name,
            "type": self.type,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": rows,
        }

    def merge_dict(self, payload: dict) -> None:
        """Fold one snapshot of this family back into the live children.

        Counters and histograms accumulate; gauges take the snapshot
        value (last write wins, matching their semantics).
        """
        for row in payload.get("series", ()):
            labels = row.get("labels", {})
            values = tuple(
                str(labels.get(name, "")) for name in self.labelnames
            )
            child = self.labels(*values)
            if self.type == HISTOGRAM:
                child.count += int(row["count"])
                child.sum += int(row["sum"])
                for floor, count in row.get("buckets", {}).items():
                    floor = int(floor)
                    child.buckets[floor] = (
                        child.buckets.get(floor, 0) + int(count)
                    )
            elif self.type == COUNTER:
                child.inc(float(row["value"]))
            else:
                child.set(float(row["value"]))


def instrument_value(child: object) -> Optional[float]:
    """The scalar value of a counter/gauge child (None for histograms)."""
    to_value = getattr(child, "to_value", None)
    return to_value() if to_value is not None else None
