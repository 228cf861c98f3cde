"""Runtime observability: event bus, metrics, derived views, benchmarks.

See ``docs/OBSERVABILITY.md`` for the event catalogue, metric names,
exposition format and bench JSON schema.
"""

from repro.obs.bench import (
    SCHEMA,
    bench_filename,
    compare,
    load_bench,
    run_benchmark,
    write_bench,
)
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_TYPES,
    Event,
    EventBus,
    get_bus,
    set_bus,
    use_bus,
)
from repro.obs.flamegraph import folded_stacks
from repro.obs.metrics_registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.profile import (
    OffloadProfile,
    SpanGraph,
    StragglerStats,
    WhatIf,
    inferred_upload_scale,
    profile_offloads,
    profile_report,
)
from repro.obs.subscribers import (
    DerivedReport,
    MetricsSubscriber,
    ReportBuilder,
    SparkLogSink,
)

__all__ = [
    "EVENT_KINDS",
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "get_bus",
    "set_bus",
    "use_bus",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "OffloadProfile",
    "SpanGraph",
    "StragglerStats",
    "WhatIf",
    "folded_stacks",
    "inferred_upload_scale",
    "profile_offloads",
    "profile_report",
    "DerivedReport",
    "MetricsSubscriber",
    "ReportBuilder",
    "SparkLogSink",
    "SCHEMA",
    "bench_filename",
    "compare",
    "load_bench",
    "run_benchmark",
    "write_bench",
]
