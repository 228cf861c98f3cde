"""Spark log streaming (the verbose=true feature of the plugin)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.spark.logging import SparkLog

from tests.conftest import make_cloud_runtime


def test_log_records_and_format():
    log = SparkLog()
    log.info(1.5, "DAGScheduler", "hello")
    log.warn(2.0, "Executor", "lost worker")
    assert len(log) == 2
    lines = list(log.lines())
    assert "DAGScheduler" in lines[0] and "hello" in lines[0]
    assert "WARN" in lines[1]


def test_log_filter_by_component():
    log = SparkLog()
    log.info(0.0, "A", "x")
    log.info(0.0, "B", "y")
    assert len(list(log.lines("A"))) == 1


def test_log_sinks_stream_live():
    captured = []
    log = SparkLog()
    log.sinks.append(captured.append)
    log.info(0.0, "C", "streamed")
    assert captured and "streamed" in captured[0]


def _offload_copy(rt, name: str, n: int) -> None:
    """Offload ``C[i] = A[i]`` over ``n`` elements as region ``name``."""

    def body(lo, hi, arrays, scalars):
        arrays["C"][lo:hi] = np.asarray(arrays["A"][lo:hi])

    region = TargetRegion(
        name=name,
        pragmas=["omp target device(CLOUD)", "omp map(to: A[:N]) map(from: C[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i:i+1]) map(from: C[i:i+1])",
            body=body,
        )],
    )
    a = np.arange(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    offload(region, arrays={"A": a, "C": c}, scalars={"N": n}, runtime=rt)


def test_context_logs_job_lifecycle(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    _offload_copy(rt, "lifecycle", 16)
    messages = [r.message for r in rt.device("CLOUD").sc.log.records]
    assert any("Submitting map stage" in m for m in messages)
    assert any("finished" in m for m in messages)


def test_offload_populates_job_log(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    _offload_copy(rt, "logcopy", 16)
    messages = [r.message for r in rt.device("CLOUD").sc.log.records]
    assert any("OmpCloud job for region 'logcopy'" in m for m in messages)
    assert any("split=['A']" in m for m in messages)


def test_verbose_config_prints_log(cloud_config, capsys):
    rt = make_cloud_runtime(replace(cloud_config, verbose=True))
    _offload_copy(rt, "verbosecopy", 8)
    out = capsys.readouterr().out
    assert "Submitting map stage" in out
    assert "verbosecopy" in out


def test_log_timestamps_are_simulated(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    _offload_copy(rt, "first", 8)
    _offload_copy(rt, "second", 8)
    times = [r.time for r in rt.device("CLOUD").sc.log.records]
    assert times == sorted(times)
    assert times[-1] > 0.0  # simulated seconds, not wall-clock epoch


# --------------------------------------------------- levels + bus integration
def test_debug_and_error_levels():
    log = SparkLog()
    log.debug(0.1, "Scheduler", "fine detail")
    log.error(0.2, "Executor", "boom")
    assert [r.level for r in log.records] == ["DEBUG", "ERROR"]
    assert "ERROR" in log.records[1].format()


def test_lines_filters_by_minimum_severity():
    log = SparkLog()
    log.debug(0.0, "A", "d")
    log.info(0.1, "A", "i")
    log.warn(0.2, "A", "w")
    log.error(0.3, "A", "e")
    assert len(list(log.lines())) == 4
    assert len(list(log.lines(level="DEBUG"))) == 4
    warn_up = list(log.lines(level="WARN"))
    assert len(warn_up) == 2
    assert "w" in warn_up[0] and "e" in warn_up[1]
    assert len(list(log.lines(level="ERROR"))) == 1
    # Component and severity filters compose.
    log.error(0.4, "B", "other")
    assert len(list(log.lines("A", level="ERROR"))) == 1


def test_lines_rejects_unknown_level():
    log = SparkLog()
    with pytest.raises(ValueError, match="unknown log level"):
        list(log.lines(level="TRACE"))


def test_records_are_mirrored_onto_the_bus():
    from repro.obs.events import EventBus, use_bus

    bus = EventBus(keep_history=True)
    log = SparkLog()
    with use_bus(bus):
        log.warn(1.25, "DAGScheduler", "stage retry")
    events = bus.events_of("log")
    assert len(events) == 1
    e = events[0]
    assert (e.level, e.component, e.message) == ("WARN", "DAGScheduler",
                                                 "stage retry")
    assert e.time == 1.25


def test_append_record_does_not_publish():
    """The sink path must not re-publish, or two cross-subscribed logs
    would echo forever."""
    from repro.obs.events import EventBus, use_bus

    bus = EventBus(keep_history=True)
    log = SparkLog()
    with use_bus(bus):
        log.append_record(0.0, "X", "quiet")
    assert bus.events_of("log") == []
    assert len(log) == 1
