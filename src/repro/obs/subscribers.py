"""Bus subscribers: metrics, derived reports/timelines, log sinks.

The point of the event bus is that yesterday's bespoke artifacts become
*views* over one stream:

* :class:`MetricsSubscriber` — folds events into a
  :class:`~repro.obs.metrics_registry.MetricsRegistry` (the counters,
  gauges and histograms catalogued in ``docs/OBSERVABILITY.md``);
* :class:`ReportBuilder` — rebuilds an offload report and a
  :class:`~repro.simtime.timeline.Timeline` per correlation id, which the
  consistency tests diff against the :class:`~repro.core.report.OffloadReport`
  the plugin returns directly;
* :class:`SparkLogSink` — appends :class:`~repro.obs.events.LogEvent` records
  into a :class:`~repro.spark.logging.SparkLog`, making the driver log just
  another subscriber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.events import (
    Event,
    EventBus,
    LogEvent,
    MapDownload,
    MapUpload,
    Resubmit,
    Retry,
    TargetBegin,
    TargetEnd,
    TaskBatch,
    TaskEnd,
    TaskStart,
)
from repro.obs.metrics_registry import MetricError, MetricsRegistry
from repro.simtime.timeline import Phase, Timeline


class MetricsSubscriber:
    """Folds the event stream into a metrics registry.

    One instance per registry; attach to any number of buses via
    :meth:`attach` (returns the unsubscribe callable).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._offloads = r.counter(
            "repro_offloads_total", "Target-region offloads started.")
        self._offload_seconds = r.histogram(
            "repro_offload_seconds", "Offload wall time (full_s milestone).")
        self._fallbacks = r.counter(
            "repro_fallbacks_total", "Offloads degraded to host execution.")
        self._bytes_up = r.counter(
            "repro_bytes_up_total", "Raw bytes staged host -> device storage.")
        self._bytes_up_wire = r.counter(
            "repro_bytes_up_wire_total", "Wire bytes uploaded (post-gzip).")
        self._bytes_down = r.counter(
            "repro_bytes_down_total", "Raw bytes downloaded device -> host.")
        self._bytes_down_wire = r.counter(
            "repro_bytes_down_wire_total", "Wire bytes downloaded.")
        self._cache_hits = r.counter(
            "repro_cache_hits_total", "Staged-input cache hits.")
        self._cache_saved = r.counter(
            "repro_cache_bytes_saved_total", "Upload bytes avoided by the cache.")
        self._retries = r.counter(
            "repro_retries_total", "Transient-failure retries by operation.")
        self._backoff = r.counter(
            "repro_retry_backoff_seconds_total", "Backoff charged by retries.")
        self._resubmissions = r.counter(
            "repro_resubmissions_total", "Spark job resubmissions.")
        self._preemptions = r.counter(
            "repro_preemptions_total", "Spot instances reclaimed mid-offload.")
        self._executors_lost = r.counter(
            "repro_executors_lost_total", "Executors lost to faults.")
        self._breaker_trips = r.counter(
            "repro_breaker_trips_total", "Circuit-breaker trips by device.")
        self._submits = r.counter(
            "repro_spark_submits_total", "spark-submit attempts by outcome.")
        self._jobs = r.counter(
            "repro_spark_jobs_total", "Spark jobs run to completion.")
        self._tasks = r.counter(
            "repro_tasks_total", "Tasks completed per worker.")
        self._task_seconds = r.histogram(
            "repro_task_duration_seconds", "Per-task slot durations.")
        self._active_tasks = r.gauge(
            "repro_active_tasks", "Tasks currently occupying a slot.")
        self._workers_seen = r.gauge(
            "repro_active_workers", "Distinct workers that ran a task.")
        self._storage_ops = r.counter(
            "repro_storage_ops_total", "Object-store operations by op and store.")
        self._storage_bytes = r.counter(
            "repro_storage_bytes_total", "Object-store payload bytes by op.")
        self._ssh = r.counter(
            "repro_ssh_connects_total", "SSH handshakes by outcome.")
        self._logs = r.counter(
            "repro_log_records_total", "SparkLog records by level.")
        self._env_enters = r.counter(
            "repro_data_env_enters_total",
            "Persistent data environments opened, by device.")
        self._env_exits = r.counter(
            "repro_data_env_exits_total",
            "Persistent data environments closed, by device.")
        self._env_updates = r.counter(
            "repro_data_env_updates_total",
            "target-update motions, by direction.")
        self._resident_hits = r.counter(
            "repro_data_env_resident_hits_total",
            "Buffers found resident on the device (transfer skipped).")
        self._not_retransferred = r.counter(
            "repro_data_env_bytes_not_retransferred",
            "Upload bytes avoided because the buffer was already resident.")
        self._speculated = r.counter(
            "repro_speculation_launched_total",
            "Speculative straggler copies launched, by copy worker.")
        self._speculation_wins = r.counter(
            "repro_speculation_won_total",
            "Speculative copies that beat the original, by winning worker.")
        self._speculation_saved = r.counter(
            "repro_speculation_saved_seconds_total",
            "Modelled tail seconds removed by winning speculative copies.")
        self._checkpoints = r.counter(
            "repro_checkpoint_commits_total",
            "Tile outputs durably committed to storage, by region.")
        self._checkpoint_bytes = r.counter(
            "repro_checkpoint_bytes_total",
            "Bytes of committed tile checkpoints.")
        self._resumes = r.counter(
            "repro_resumes_total",
            "Resubmissions that resumed from checkpoints, by region.")
        self._tiles_skipped = r.counter(
            "repro_tiles_skipped_total",
            "Tiles not re-executed thanks to committed checkpoints.")
        self._corruptions = r.counter(
            "repro_corruptions_detected_total",
            "Objects that failed checksum verification, by store and op.")
        self._inferred_offloads = r.counter(
            "repro_inferred_offloads_total",
            "Offloads that ran clause inference, by region and outcome.")
        self._inferred_clauses = r.counter(
            "repro_inferred_clauses_total",
            "Map clauses narrowed or dropped by inference, by region.")
        self._inferred_partitions = r.counter(
            "repro_inferred_partitions_total",
            "Partition specs synthesized by inference, by region.")
        self._workers: set[str] = set()

    def attach(self, bus: EventBus):
        # Surface the bus's subscriber-error counter in this registry so a
        # broken tool shows up in the exposition, not just in the log.
        try:
            self.registry.register(bus.subscriber_errors)
        except MetricError:
            pass  # another bus's error counter already owns the name
        return bus.subscribe(self)

    # ---------------------------------------------------------------- handler
    def on_task_batch(self, batch: TaskBatch) -> None:
        """A run of completed tasks, folded a column at a time."""
        self._tasks_started(batch.worker)
        self._tasks_ended(batch.worker, batch.duration_s)

    def _tasks_started(self, workers: Sequence[str]) -> None:
        self._active_tasks.inc(len(workers))
        new = set(workers) - self._workers
        if new:
            self._workers |= new
            self._workers_seen.set(len(self._workers))

    def _tasks_ended(self, workers: Sequence[str],
                     durations: Sequence[float]) -> None:
        self._active_tasks.dec(len(workers))
        tally: dict[str, int] = {}
        for worker in workers:
            tally[worker] = tally.get(worker, 0) + 1
        for worker, n in tally.items():
            self._tasks.inc(n, worker=worker)
        self._task_seconds.observe_many(durations)

    def __call__(self, e: Event) -> None:
        kind = e.kind
        if kind == "target_begin":
            self._offloads.inc(device=e.device, region=e.region)
        elif kind == "target_end":
            if e.ok:
                self._offload_seconds.observe(e.full_s, device=e.device)
        elif kind == "fallback":
            self._fallbacks.inc(reason=e.reason.split(":")[0][:60] or "unknown")
        elif kind == "map_upload":
            self._bytes_up.inc(e.bytes_raw, buffer=e.buffer)
            self._bytes_up_wire.inc(e.bytes_wire, buffer=e.buffer)
        elif kind == "map_download":
            self._bytes_down.inc(e.bytes_raw, buffer=e.buffer)
            self._bytes_down_wire.inc(e.bytes_wire, buffer=e.buffer)
        elif kind == "cache_hit":
            self._cache_hits.inc(buffer=e.buffer)
            self._cache_saved.inc(e.bytes_saved)
        elif kind == "retry":
            self._retries.inc(op=e.op)
            self._backoff.inc(e.delay_s, op=e.op)
        elif kind == "resubmit":
            self._resubmissions.inc()
        elif kind == "preemption":
            self._preemptions.inc()
        elif kind == "executor_lost":
            self._executors_lost.inc()
        elif kind == "breaker_open":
            self._breaker_trips.inc(device=e.device)
        elif kind == "spark_submit":
            self._submits.inc(ok=str(e.ok).lower())
        elif kind == "job_start":
            pass  # counted on completion
        elif kind == "job_end":
            self._jobs.inc()
        elif kind == "task_start":
            self._tasks_started((e.worker,))
        elif kind == "task_end":
            self._tasks_ended((e.worker,), (e.duration_s,))
        elif kind == "task_speculated":
            self._speculated.inc(worker=e.copy_worker)
        elif kind == "speculation_won":
            self._speculation_wins.inc(worker=e.winner)
            self._speculation_saved.inc(e.saved_s)
        elif kind == "storage_op":
            self._storage_ops.inc(op=e.op, store=e.store)
            if e.nbytes:
                self._storage_bytes.inc(e.nbytes, op=e.op)
        elif kind == "ssh_connect":
            self._ssh.inc(ok=str(e.ok).lower())
        elif kind == "data_env_enter":
            self._env_enters.inc(device=e.device)
        elif kind == "data_env_exit":
            self._env_exits.inc(device=e.device)
        elif kind == "target_update":
            self._env_updates.inc(direction=e.direction)
        elif kind == "resident_hit":
            self._resident_hits.inc(device=e.device)
            self._not_retransferred.inc(e.bytes_saved)
        elif kind == "checkpoint_commit":
            self._checkpoints.inc(region=e.region)
            self._checkpoint_bytes.inc(e.nbytes)
        elif kind == "resume_from_checkpoint":
            self._resumes.inc(region=e.region)
            self._tiles_skipped.inc(e.tiles_skipped)
        elif kind == "corruption_detected":
            self._corruptions.inc(store=e.store, op=e.op)
        elif kind == "map_inferred":
            outcome = ("degraded" if e.degraded
                       else "changed" if e.changed else "unchanged")
            self._inferred_offloads.inc(region=e.region, outcome=outcome)
            if e.narrowed or e.dropped:
                self._inferred_clauses.inc(e.narrowed + e.dropped,
                                           region=e.region)
            if e.partitions_added:
                self._inferred_partitions.inc(e.partitions_added,
                                              region=e.region)
        elif kind == "region_fused":
            # Created lazily: synchronous runs never emit this kind, and the
            # registry snapshot must stay byte-identical for them (the
            # committed bench baselines embed the full family list).
            self.registry.counter(
                "repro_fused_regions",
                "Regions fused into combined Spark jobs",
            ).inc(len(e.members), device=e.device)
            self.registry.counter(
                "repro_fusion_wire_bytes_saved",
                "Estimated cluster<->storage bytes avoided by fusion",
            ).inc(e.bytes_saved)
        elif kind == "log":
            self._logs.inc(level=e.level)


@dataclass
class DerivedReport:
    """An offload report reconstructed purely from bus events.

    The consistency tests assert these fields equal the
    :class:`~repro.core.report.OffloadReport` the plugin hands back — proof
    that the instrumentation plane sees everything the report records.
    """

    correlation_id: str
    region: str = ""
    device: str = ""
    mode: str = ""
    ok: bool = False
    fell_back_to_host: bool = False
    full_s: float = 0.0
    bytes_up_raw: int = 0
    bytes_up_wire: int = 0
    bytes_down_raw: int = 0
    bytes_down_wire: int = 0
    tasks_run: int = 0
    retries: int = 0
    backoff_s: float = 0.0
    resubmissions: int = 0
    preemptions: int = 0
    cache_hits: int = 0
    cache_bytes_saved: int = 0
    resident_hits: int = 0
    bytes_not_retransferred: int = 0
    tasks_speculated: int = 0
    speculation_wins: int = 0
    timeline: Timeline = field(default_factory=Timeline)


class ReportBuilder:
    """Rebuilds per-offload reports and timelines from the stream."""

    #: Event kinds that contribute a span to the derived timeline.
    _SPAN_PHASES = {
        "map_upload": Phase.HOST_UPLOAD,
        "map_download": Phase.HOST_DOWNLOAD,
        "retry": Phase.RETRY_BACKOFF,
        "resubmit": Phase.RESUBMIT,
    }

    def __init__(self) -> None:
        self._reports: dict[str, DerivedReport] = {}
        self._order: list[str] = []

    def attach(self, bus: EventBus):
        return bus.subscribe(self)

    def report_for(self, correlation_id: str) -> DerivedReport:
        return self._reports[correlation_id]

    def correlations(self) -> list[str]:
        return list(self._order)

    def latest(self) -> DerivedReport:
        if not self._order:
            raise LookupError("no offload observed yet")
        return self._reports[self._order[-1]]

    def _get(self, corr: str) -> DerivedReport:
        if corr not in self._reports:
            self._reports[corr] = DerivedReport(correlation_id=corr)
            self._order.append(corr)
        return self._reports[corr]

    def __call__(self, e: Event) -> None:
        corr = e.correlation_id
        if not corr:
            return
        rep = self._get(corr)
        if isinstance(e, TargetBegin):
            # The host rerun of a degraded offload re-enters target_begin
            # under the same correlation id; keep the first device name.
            if not rep.region:
                rep.region, rep.device, rep.mode = e.region, e.device, e.mode
        elif isinstance(e, TargetEnd):
            rep.ok = e.ok
            rep.fell_back_to_host = e.fell_back
            rep.full_s = e.full_s
        elif isinstance(e, MapUpload):
            rep.bytes_up_raw += e.bytes_raw
            rep.bytes_up_wire += e.bytes_wire
            if e.end > e.start:
                rep.timeline.record(Phase.HOST_UPLOAD, e.start, e.end,
                                    resource="host", label=e.buffer)
        elif isinstance(e, MapDownload):
            rep.bytes_down_raw += e.bytes_raw
            rep.bytes_down_wire += e.bytes_wire
            if e.end > e.start:
                rep.timeline.record(Phase.HOST_DOWNLOAD, e.start, e.end,
                                    resource="host", label=e.buffer)
        elif isinstance(e, TaskStart):
            pass  # spans are closed by TaskEnd
        elif isinstance(e, TaskEnd):
            rep.tasks_run += 1
            rep.timeline.record(Phase.COMPUTE, e.time - e.duration_s, e.time,
                                resource=e.worker, label=f"task-{e.task_id}")
        elif isinstance(e, Retry):
            rep.retries += 1
            rep.backoff_s += e.delay_s
            rep.timeline.record(Phase.RETRY_BACKOFF, e.time, e.time + e.delay_s,
                                resource="host", label=e.op)
        elif isinstance(e, Resubmit):
            rep.resubmissions += 1
            rep.backoff_s += e.delay_s
            rep.timeline.record(Phase.RESUBMIT, e.time, e.time + e.delay_s,
                                resource="host", label=f"resubmit-{e.submission}")
        elif e.kind == "preemption":
            rep.preemptions += 1
            rep.timeline.record(Phase.PREEMPTION, e.time, e.time,
                                resource=e.worker, label="spot-reclaimed")
        elif e.kind == "recovery":
            rep.timeline.record(Phase.RECOVERY, e.time - e.duration_s, e.time,
                                resource=e.worker, label="spot-replace")
        elif e.kind == "task_speculated":
            rep.tasks_speculated += 1
            rep.timeline.record(Phase.SPECULATION, e.time, e.time,
                                resource="driver",
                                label=f"speculate-{e.task_id}")
        elif e.kind == "speculation_won":
            rep.speculation_wins += 1
        elif e.kind == "cache_hit":
            rep.cache_hits += 1
            rep.cache_bytes_saved += e.bytes_saved
        elif e.kind == "resident_hit":
            rep.resident_hits += 1
            rep.bytes_not_retransferred += e.bytes_saved
        elif e.kind == "fallback":
            rep.timeline.record(Phase.FALLBACK, e.time, e.time,
                                resource="host", label=e.reason[:40])


class SparkLogSink:
    """Appends bus LogEvents into a SparkLog (the log as a derived view).

    Records originating from the target log itself are skipped, so a
    SparkLog can simultaneously publish to and subscribe from one bus
    without echoing.
    """

    def __init__(self, log) -> None:
        self.log = log

    def attach(self, bus: EventBus):
        return bus.subscribe(self, kinds=("log",))

    def __call__(self, e: Event) -> None:
        if not isinstance(e, LogEvent):  # pragma: no cover - kinds filter
            return
        if e.resource == f"sparklog-{id(self.log)}":
            return
        self.log.append_record(e.time, e.component, e.message, e.level)
