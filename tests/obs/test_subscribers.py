"""Bus subscribers: metrics folding, per-offload correlation, log sinks."""

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.obs.events import (
    CacheHit,
    EventBus,
    Fallback,
    JobEnd,
    LogEvent,
    MapDownload,
    MapUpload,
    Preemption,
    Retry,
    SSHConnect,
    StorageOp,
    TargetBegin,
    TargetEnd,
    TaskEnd,
    TaskStart,
    use_bus,
)
from repro.obs.subscribers import MetricsSubscriber, SparkLogSink
from repro.spark.logging import SparkLog
from repro.workloads import WORKLOADS

from tests.conftest import make_cloud_runtime


def _offload_matmul(rt):
    spec = WORKLOADS["matmul"]
    return offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                   runtime=rt, mode=ExecutionMode.MODELED)


# ------------------------------------------------------------------- metrics
def test_metrics_from_synthetic_stream():
    bus = EventBus()
    sub = MetricsSubscriber()
    sub.attach(bus)
    bus.emit(TargetBegin(region="gemm", device="CLOUD"))
    bus.emit(MapUpload(buffer="A", bytes_raw=1000, bytes_wire=400))
    bus.emit(MapDownload(buffer="C", bytes_raw=500, bytes_wire=200))
    bus.emit(CacheHit(buffer="A", bytes_saved=1000))
    bus.emit(Retry(op="PUT", delay_s=0.5))
    bus.emit(Preemption(worker="worker-1"))
    bus.emit(TaskStart(task_id=0, worker="w0"))
    bus.emit(TaskEnd(task_id=0, worker="w0", duration_s=0.25))
    bus.emit(StorageOp(store="s3", op="PUT", key="k", nbytes=64))
    bus.emit(SSHConnect(ok=True))
    bus.emit(LogEvent(level="WARN", component="X", message="m"))
    bus.emit(JobEnd(job_id=1))
    bus.emit(TargetEnd(region="gemm", device="CLOUD", ok=True, full_s=2.0))

    r = sub.registry
    assert r.get("repro_offloads_total").value(device="CLOUD", region="gemm") == 1
    assert r.get("repro_bytes_up_wire_total").value(buffer="A") == 400
    assert r.get("repro_bytes_down_total").value(buffer="C") == 500
    assert r.get("repro_cache_hits_total").value(buffer="A") == 1
    assert r.get("repro_retries_total").value(op="PUT") == 1
    assert r.get("repro_retry_backoff_seconds_total").value(op="PUT") == 0.5
    assert r.get("repro_preemptions_total").value() == 1
    assert r.get("repro_tasks_total").value(worker="w0") == 1
    assert r.get("repro_active_tasks").value() == 0  # start +1, end -1
    assert r.get("repro_active_workers").value() == 1
    assert r.get("repro_storage_ops_total").value(op="PUT", store="s3") == 1
    assert r.get("repro_storage_bytes_total").value(op="PUT") == 64
    assert r.get("repro_ssh_connects_total").value(ok="true") == 1
    assert r.get("repro_log_records_total").value(level="WARN") == 1
    assert r.get("repro_spark_jobs_total").value() == 1
    assert r.get("repro_offload_seconds").count(device="CLOUD") == 1


def test_fallback_reason_label_is_truncated():
    bus = EventBus()
    sub = MetricsSubscriber()
    sub.attach(bus)
    bus.emit(Fallback(reason="storage down: " + "x" * 500))
    c = sub.registry.get("repro_fallbacks_total")
    assert c.value(reason="storage down") == 1


def test_unsuccessful_offload_does_not_observe_duration():
    bus = EventBus()
    sub = MetricsSubscriber()
    sub.attach(bus)
    bus.emit(TargetEnd(region="r", device="CLOUD", ok=False))
    assert sub.registry.get("repro_offload_seconds").count(device="CLOUD") == 0


# ----------------------------------------------------------- per offload
def test_each_offload_has_its_own_correlation(cloud_config):
    bus = EventBus(keep_history=True)
    with use_bus(bus):
        rt = make_cloud_runtime(cloud_config)
        reports = [_offload_matmul(rt), _offload_matmul(rt)]
    ends = bus.events_of("target_end")
    assert [e.ok for e in ends] == [True, True]
    first, second = (e.correlation_id for e in ends)
    assert first != second
    for report, corr in zip(reports, (first, second)):
        tasks = [e for e in bus.events_of("task_end")
                 if e.correlation_id == corr]
        assert len(tasks) == report.tasks_run


# ------------------------------------------------------------------ log sink
def test_sparklog_sink_rebuilds_log_from_stream():
    bus = EventBus()
    replica = SparkLog()
    SparkLogSink(replica).attach(bus)
    bus.emit(LogEvent(time=1.0, level="INFO", component="DAGScheduler",
                      message="Submitting job"))
    bus.emit(LogEvent(time=2.0, level="ERROR", component="Executor",
                      message="lost"))
    assert len(replica) == 2
    assert replica.records[1].level == "ERROR"


def test_sparklog_does_not_echo_its_own_records():
    """A log that both publishes to and subscribes from one bus must not
    duplicate its own records."""
    bus = EventBus()
    log = SparkLog()
    SparkLogSink(log).attach(bus)
    with use_bus(bus):
        log.info(0.5, "X", "only once")
    assert len(log) == 1
    # ...but records from other logs still arrive.
    other = SparkLog()
    with use_bus(bus):
        other.warn(1.0, "Y", "from elsewhere")
    assert len(log) == 2
    assert log.records[1].component == "Y"
