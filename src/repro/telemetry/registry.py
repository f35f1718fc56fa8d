"""Labelled metrics: counters, gauges, histograms, and exporters.

The registry follows the Prometheus data model — a *family* has a name,
a help string, and label names; each distinct label-value combination is
a *child* holding the actual number(s).  Families are created lazily and
idempotently::

    registry = MetricsRegistry()
    rtt = registry.histogram("sim_rtt_ms", "round-trip time", ("site",))
    rtt.labels(site="FRA").observe(12.5)
    print(registry.to_prometheus_text())

Both exporters work from one document, :meth:`MetricsRegistry.as_dict`:
:func:`prometheus_text` (the Prometheus text exposition format,
scrape-ready; :meth:`MetricsRegistry.to_prometheus_text` on a live
registry) and :meth:`MetricsRegistry.to_json` (a machine-readable
sidecar).  An event log's metrics snapshot is that document, so a saved
run exports the same bytes as the live registry.

:class:`~repro.telemetry.bundle.NullRegistry` is its disabled twin, all
no-ops, so that instrumented components pay only an attribute check
when telemetry is disabled (the ``enabled`` flag callers guard on); it
lives beside the bundle, so a disabled run never loads this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .sketch import EXPORTED_QUANTILES, quantile_from_buckets

#: default histogram buckets, in milliseconds — tuned for simulated RTTs
#: (a few ms same-city up to intercontinental multi-hundred-ms paths).
DEFAULT_RTT_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 150.0,
    250.0, 400.0, 600.0, 1000.0, 2000.0,
)


class MetricError(ValueError):
    """Inconsistent registration or labelling of a metric."""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _label_suffix(labelnames: tuple[str, ...], labelvalues: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Family:
    """Shared plumbing: child creation keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labelvalues: str):
        """The child for one label-value combination (created on demand)."""
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _default_child(self):
        """The implicit unlabelled child (for families without labels)."""
        if self.labelnames:
            raise MetricError(
                f"{self.name} has labels {self.labelnames}; use .labels(...)"
            )
        return self.labels()

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def children(self) -> Iterable[tuple[tuple[str, ...], object]]:
        return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up (inc by {amount})")
        self.value += amount


class Counter(_Family):
    """A monotonically increasing count."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        """Total across all children."""
        return sum(child.value for _, child in self.children())


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Family):
    """A value that can go up and down."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return sum(child.value for _, child in self.children())


def _grow_partials(partials: list[float], value: float) -> None:
    """Fold ``value`` into Shewchuk non-overlapping partials, in place.

    The partials represent the *exact* real-number sum of everything
    observed so far (the ``math.fsum`` core), so the rounded total is
    independent of observation order — and of how a sharded run
    partitioned the observations.  That order-independence is what
    keeps merged registries byte-identical to serial ones.
    """
    index = 0
    for partial in partials:
        if abs(value) < abs(partial):
            value, partial = partial, value
        high = value + partial
        low = partial - (high - value)
        if low:
            partials[index] = low
            index += 1
        value = high
    partials[index:] = [value]


class _HistogramChild:
    __slots__ = ("buckets", "counts", "_sum_partials", "count", "min", "max")

    def __init__(self, buckets: tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * len(buckets)  # per-bucket (non-cumulative)
        self._sum_partials: list[float] = []
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    @property
    def sum(self) -> float:
        """Exactly rounded sum of all observations (order-independent)."""
        return math.fsum(self._sum_partials)

    def observe(self, value: float) -> None:
        _grow_partials(self._sum_partials, float(value))
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[index] += 1
                break

    def merge(self, other: "_HistogramChild") -> None:
        """Fold another child's state in (identical bucket layout only)."""
        if other.buckets != self.buckets:
            raise MetricError("cannot merge histograms with different buckets")
        for partial in other._sum_partials:
            _grow_partials(self._sum_partials, partial)
        self.count += other.count
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative count) pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for upper, count in zip(self.buckets, self.counts):
            running += count
            out.append((upper, running))
        out.append((math.inf, self.count))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated q-quantile (NaN while empty).

        Error is bounded by the width of the bucket the quantile lands
        in; the tracked min/max tighten the edge buckets.
        """
        return quantile_from_buckets(
            self.buckets, self.counts, self.count, q,
            minimum=self.min, maximum=self.max,
        )

    def quantiles(
        self, qs: Iterable[float] = EXPORTED_QUANTILES
    ) -> dict[float, float]:
        return {q: self.quantile(q) for q in qs}


class Histogram(_Family):
    """A distribution, bucketed at configurable upper bounds."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_RTT_BUCKETS_MS,
    ):
        if not buckets:
            raise MetricError(f"{name}: histogram needs at least one bucket")
        ordered = tuple(sorted(float(b) for b in buckets))
        if len(set(ordered)) != len(ordered):
            raise MetricError(f"{name}: duplicate bucket bounds")
        super().__init__(name, help, labelnames)
        self.buckets = ordered

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        """The q-quantile over *all* children merged (NaN while empty).

        Children share one bucket layout, so merging is a per-bucket
        count sum — the same estimate a Prometheus ``sum by (le)``
        aggregation would give.
        """
        children = [child for _, child in self.children()]
        if not children:
            return math.nan
        merged = [0] * len(self.buckets)
        total = 0
        minimum: float | None = None
        maximum: float | None = None
        for child in children:
            total += child.count
            for index, count in enumerate(child.counts):
                merged[index] += count
            if child.min is not None and (minimum is None or child.min < minimum):
                minimum = child.min
            if child.max is not None and (maximum is None or child.max > maximum):
                maximum = child.max
        return quantile_from_buckets(
            self.buckets, merged, total, q, minimum=minimum, maximum=maximum
        )


@dataclass(frozen=True)
class Sample:
    """One exported time-series point."""

    name: str
    labels: Mapping[str, str]
    value: float


class MetricsRegistry:
    """Create-or-get metric families and export them.

    The registry is the one object a run shares between its components;
    everything else (families, children) hangs off it.
    """

    enabled = True

    def __init__(self):
        self._families: dict[str, _Family] = {}

    # -- creation ----------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._families.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise MetricError(
                    f"metric {name} re-registered with a different "
                    f"type or label set"
                )
            return existing
        family = cls(name, help, tuple(labelnames), **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_RTT_BUCKETS_MS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's state into this one (scatter-gather).

        The mergeable-reducer contract of the sharded experiment engine:
        counters and gauges add, histograms add per-bucket counts and
        take min/max envelopes.  Families present in only one side are
        kept as-is; a family present in both must agree on type, label
        set, and (for histograms) bucket layout, or :class:`MetricError`
        is raised.  Merging is associative and commutative over disjoint
        workloads, so any shard arrival order yields the same registry.
        """
        for family in other.families():
            if isinstance(family, Histogram):
                mine = self.histogram(
                    family.name, family.help, family.labelnames,
                    buckets=family.buckets,
                )
            elif isinstance(family, Counter):
                mine = self.counter(family.name, family.help, family.labelnames)
            elif isinstance(family, Gauge):
                mine = self.gauge(family.name, family.help, family.labelnames)
            else:  # pragma: no cover - no other family kinds exist
                raise MetricError(f"unmergeable family kind {family.kind!r}")
            for labelvalues, child in family.children():
                target = mine.labels(
                    **dict(zip(family.labelnames, labelvalues))
                )
                if isinstance(child, _HistogramChild):
                    target.merge(child)
                elif isinstance(family, Counter):
                    target.inc(child.value)
                else:
                    target.set(target.value + child.value)
        return self

    # -- access ------------------------------------------------------------

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def families(self) -> list[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    def samples(self, name: str) -> list[Sample]:
        """Flat (labels, value) samples of one family (histograms: counts)."""
        family = self._families.get(name)
        if family is None:
            return []
        out: list[Sample] = []
        for labelvalues, child in family.children():
            labels = dict(zip(family.labelnames, labelvalues))
            if isinstance(child, _HistogramChild):
                out.append(Sample(f"{family.name}_count", labels, child.count))
            else:
                out.append(Sample(family.name, labels, child.value))
        return out

    # -- exporters ------------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        return prometheus_text(self.as_dict())

    def to_json(self, indent: int | None = None) -> str:
        """A machine-readable dump (the benchmark sidecar format)."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_events(self, at: float | None = None) -> list:
        """This registry as one metrics-snapshot event for an event log."""
        from .events import MetricsSnapshot

        return [MetricsSnapshot(at=at, metrics=self.as_dict())]

    def as_dict(self) -> dict:
        out: dict[str, dict] = {}
        for family in self.families():
            entries = []
            for labelvalues, child in family.children():
                labels = dict(zip(family.labelnames, labelvalues))
                if isinstance(child, _HistogramChild):
                    entries.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "min": child.min,
                            "max": child.max,
                            "buckets": {
                                _format_value(upper): cumulative
                                for upper, cumulative in child.cumulative()
                            },
                            "quantiles": {
                                _format_value(q): (
                                    round(child.quantile(q), 6)
                                    if child.count
                                    else None
                                )
                                for q in EXPORTED_QUANTILES
                            },
                        }
                    )
                else:
                    entries.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": entries,
            }
        return out


def prometheus_text(metrics: dict) -> str:
    """The Prometheus text exposition (version 0.0.4) of a metrics document.

    ``metrics`` is :meth:`MetricsRegistry.as_dict` output — live, or the
    snapshot an event log holds — so a saved run exports the same bytes
    as the registry that wrote it.
    """
    lines: list[str] = []
    for name, family in metrics.items():
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample["labels"]
            names, values = tuple(labels), tuple(labels.values())
            suffix = _label_suffix(names, values)
            if "buckets" not in sample:
                lines.append(f"{name}{suffix} {_format_value(sample['value'])}")
                continue
            for upper, cumulative in sample["buckets"].items():
                le = _label_suffix(names + ("le",), values + (upper,))
                lines.append(f"{name}_bucket{le} {cumulative}")
            lines.append(f"{name}_sum{suffix} {_format_value(sample['sum'])}")
            lines.append(f"{name}_count{suffix} {sample['count']}")
            if sample["count"]:
                # summary-style streaming quantile estimates
                for q, value in sample["quantiles"].items():
                    qsuffix = _label_suffix(
                        names + ("quantile",), values + (q,)
                    )
                    lines.append(f"{name}{qsuffix} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "Counter",
    "DEFAULT_RTT_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Sample",
    "prometheus_text",
]
