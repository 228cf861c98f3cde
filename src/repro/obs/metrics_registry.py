"""Counters, gauges and histograms with a Prometheus text exposition.

The registry is deliberately small and dependency-free: metric names follow
the Prometheus data model (``[a-zA-Z_:][a-zA-Z0-9_:]*``), label values are
free-form, histograms use cumulative ``le`` buckets, and
:meth:`MetricsRegistry.to_prometheus` renders the standard text format::

    # HELP repro_bytes_up_total Raw bytes staged host -> device storage.
    # TYPE repro_bytes_up_total counter
    repro_bytes_up_total{buffer="A"} 4.194304e+06

Everything is deterministic — metric families and label sets are emitted in
sorted order — so exposition output and :meth:`MetricsRegistry.snapshot`
dictionaries diff cleanly across runs, which the benchmark-regression
harness (:mod:`repro.obs.bench`) relies on.

Time units are *simulated* seconds throughout, matching the rest of the
reproduction.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_right
from functools import lru_cache, reduce
from operator import add
from typing import Iterable, Mapping, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Cumulative upper bounds for duration histograms (simulated seconds).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.02, 0.1, 0.5, 1.0, 5.0, 20.0, 60.0, 300.0, 1800.0,
)

LabelKey = tuple[tuple[str, str], ...]


class MetricError(Exception):
    """Bad metric name, label, or kind mismatch."""


@lru_cache(maxsize=1024)
def _sorted_label_names(names: tuple[str, ...]) -> tuple[str, ...]:
    """``names`` validated and sorted — once per distinct tuple of label
    names (call sites spell the same few), not once per ``inc``/``observe``.
    An invalid tuple raises every time: exceptions are not cached."""
    for name in names:
        if not _LABEL_RE.match(name):
            raise MetricError(f"invalid label name {name!r}")
    return tuple(sorted(names))


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    if not labels:
        return ()
    return tuple([(name, str(labels[name]))
                  for name in _sorted_label_names(tuple(labels))])


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = key + extra
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Prometheus number formatting: integers without a trailing .0."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Metric:
    """One metric family: a name plus per-labelset values."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    # Subclasses implement: _sample_lines(), _snapshot_values()

    def exposition(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        lines.extend(self._sample_lines())
        return lines

    def _sample_lines(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _snapshot_values(self) -> list[dict[str, object]]:  # pragma: no cover
        raise NotImplementedError

    def snapshot(self) -> dict[str, object]:
        return {"kind": self.kind, "help": self.help,
                "values": self._snapshot_values()}


class Counter(Metric):
    """Monotonically increasing count (bytes moved, retries, tasks run)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            return sum(self._values.values())

    def _sample_lines(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [f"{self.name}{_render_labels(k)} {_fmt(v)}" for k, v in items]

    def _snapshot_values(self) -> list[dict[str, object]]:
        with self._lock:
            items = sorted(self._values.items())
        return [{"labels": dict(k), "value": v} for k, v in items]


class Gauge(Metric):
    """A value that goes up and down (in-flight tasks, active workers)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def _sample_lines(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [f"{self.name}{_render_labels(k)} {_fmt(v)}" for k, v in items]

    def _snapshot_values(self) -> list[dict[str, object]]:
        with self._lock:
            items = sorted(self._values.items())
        return [{"labels": dict(k), "value": v} for k, v in items]


class _HistogramState:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets
        self.total = 0.0
        self.count = 0


class Histogram(Metric):
    """Distribution with cumulative ``le`` buckets (task/offload durations)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = sorted(set(float(b) for b in buckets))
        if not bounds:
            raise MetricError(f"histogram {name} needs at least one bucket")
        self.buckets: tuple[float, ...] = tuple(bounds)
        self._states: dict[LabelKey, _HistogramState] = {}

    def observe(self, value: float, **labels: str) -> None:
        self.observe_many((value,), **labels)

    def observe_many(self, values: Sequence[float], **labels: str) -> None:
        """Fold ``values`` in, exactly as one :meth:`observe` per value in
        order would: ``sum`` accumulates left to right with plain float adds
        (not :func:`sum`, which compensates), so snapshots stay bit-identical
        however the observations were grouped."""
        key = _label_key(labels)
        ordered = sorted(values)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _HistogramState(len(self.buckets))
            counts = state.bucket_counts
            for i, bound in enumerate(self.buckets):
                counts[i] += bisect_right(ordered, bound)
            state.total = reduce(add, values, state.total)
            state.count += len(ordered)

    def count(self, **labels: str) -> int:
        with self._lock:
            state = self._states.get(_label_key(labels))
            return state.count if state is not None else 0

    def quantile(self, q: float, **labels: str) -> float:
        """Deterministic quantile estimate from the cumulative buckets.

        Follows ``histogram_quantile`` semantics: find the first bucket whose
        cumulative count reaches ``q * count`` and interpolate linearly inside
        it (the first bucket's lower edge is 0, matching the non-negative
        durations these histograms record).  Observations beyond the last
        finite bound clamp to that bound.  Returns 0.0 for an empty state.
        Exact same answer from a parsed text exposition — the round-trip
        tests rely on that.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            state = self._states.get(_label_key(labels))
            if state is None or state.count == 0:
                return 0.0
            counts = list(state.bucket_counts)
            total = state.count
        rank = q * total
        prev_bound, prev_cum = 0.0, 0
        for bound, cum in zip(self.buckets, counts):
            if cum >= rank and cum > prev_cum:
                frac = (rank - prev_cum) / (cum - prev_cum)
                return prev_bound + frac * (bound - prev_bound)
            prev_bound, prev_cum = bound, cum
        # rank falls in the +Inf bucket: clamp to the largest finite bound.
        return self.buckets[-1]

    def quantiles(self, qs: Iterable[float] = (0.5, 0.95, 0.99),
                  **labels: str) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` via :meth:`quantile`."""
        return {f"p{q * 100:g}": self.quantile(q, **labels) for q in qs}

    def sum(self, **labels: str) -> float:
        with self._lock:
            state = self._states.get(_label_key(labels))
            return state.total if state is not None else 0.0

    def _sample_lines(self) -> list[str]:
        with self._lock:
            items = sorted((k, (list(s.bucket_counts), s.total, s.count))
                           for k, s in self._states.items())
        lines = []
        for key, (bucket_counts, total, count) in items:
            for bound, cumulative in zip(self.buckets, bucket_counts):
                le = (("le", _fmt(bound)),)
                lines.append(
                    f"{self.name}_bucket{_render_labels(key, le)} {cumulative}")
            inf = (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_render_labels(key, inf)} {count}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {_fmt(total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        return lines

    def _snapshot_values(self) -> list[dict[str, object]]:
        with self._lock:
            items = sorted((k, (list(s.bucket_counts), s.total, s.count))
                           for k, s in self._states.items())
        return [
            {
                "labels": dict(key),
                "buckets": {_fmt(b): c
                            for b, c in zip(self.buckets, bucket_counts)},
                "sum": total,
                "count": count,
            }
            for key, (bucket_counts, total, count) in items
        ]


class MetricsRegistry:
    """A named collection of metrics with one exposition endpoint.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same object, asking for a name that exists
    with a different kind raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, help: str,
                       **kwargs: object) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def register(self, metric: Metric) -> Metric:
        """Adopt an externally-constructed metric (e.g. an
        :class:`~repro.obs.events.EventBus`'s subscriber-error counter) so it
        appears in this registry's exposition and snapshots.  Registering the
        same object twice is a no-op; a *different* metric under an existing
        name raises :class:`MetricError`."""
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if existing is metric:
                    return metric
                raise MetricError(
                    f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get_or_create(Counter, name, help)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get_or_create(Gauge, name, help)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._get_or_create(Histogram, name, help, buckets=buckets)
        assert isinstance(metric, Histogram)
        return metric

    # ----------------------------------------------------------------- output
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Metric:
        with self._lock:
            try:
                return self._metrics[name]
            except KeyError:
                raise MetricError(f"no metric named {name!r}") from None

    def to_prometheus(self) -> str:
        """The Prometheus/OpenMetrics text exposition of every metric."""
        lines: list[str] = []
        for name in self.names():
            lines.extend(self.get(name).exposition())
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, object]:
        """JSON-serializable state of every metric (sorted, deterministic)."""
        return {name: self.get(name).snapshot() for name in self.names()}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)
