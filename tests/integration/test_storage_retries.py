"""Transient cloud-storage failures: the plugin retries with backoff."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cloud.storage import TransientStorageError
from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.obs.events import EventBus, use_bus
from repro.simtime.timeline import Phase

from tests.conftest import make_cloud_runtime


def _region():
    def body(lo, hi, arrays, scalars):
        arrays["C"][lo:hi] = np.asarray(arrays["A"][lo:hi]) * 2

    return TargetRegion(
        name="retrycopy",
        pragmas=["omp target device(CLOUD)", "omp map(to: A[:N]) map(from: C[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i:i+1]) map(from: C[i:i+1])",
            body=body,
        )],
    )


def _offload(rt, n=32):
    a = np.arange(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    report = offload(_region(), arrays={"A": a, "C": c},
                     scalars={"N": n}, runtime=rt)
    assert np.array_equal(c, 2 * a)
    return report


def test_injected_failure_mechanics(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    store = rt.device("CLOUD").storage
    store.inject_failures(puts=1)
    with pytest.raises(TransientStorageError):
        store.put("k", data=b"x")
    store.put("k", data=b"x")  # next attempt succeeds
    assert store.get_bytes("k") == b"x"


def test_upload_survives_transient_put_failures(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")
    dev.storage.inject_failures(puts=2)
    clock_before = dev.clock.now
    report = _offload(rt)
    # Two retries: 0.5 + 1.0 s of backoff charged to simulated time.
    assert dev.clock.now - clock_before > 1.5
    assert report.tasks_run > 0
    warnings = [r for r in dev.sc.log.records if r.level == "WARN"]
    assert len(warnings) == 2
    assert "retrying" in warnings[0].message


def test_download_survives_transient_get_failures(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")

    # Fail the first GET of the *result* download: stage normally first by
    # arming the counter mid-flight via the SSH handler is overkill — instead
    # run once, then arm gets for the second offload's download + driver read.
    _offload(rt)
    # Driver-side read happens inside the job; plugin download at the end.
    dev.storage.inject_failures(gets=1)
    report = _offload(rt)
    assert report.tasks_run > 0


def _second_offload(config, gets: int):
    """Run two offloads on a fresh device, ``gets`` input GETs of the
    second one's driver failing transiently; its report and event stream."""
    rt = make_cloud_runtime(config)
    _offload(rt)
    rt.device("CLOUD").storage.inject_failures(gets=gets)
    bus = EventBus(keep_history=True)
    with use_bus(bus):
        report = _offload(rt)
    return rt.device("CLOUD"), report, bus


def test_driver_read_retry_counts_in_the_report(cloud_config):
    """The Spark driver reads through the device's storage client: a retried
    input GET is charged where it happens, counted in the report, spanned
    on the driver row and logged by the Hadoop client."""
    dev, report, bus = _second_offload(cloud_config, gets=1)
    assert (report.retries, report.backoff_s) == (1, 0.5)
    (span,) = [s for s in report.timeline.spans
               if s.phase is Phase.RETRY_BACKOFF]
    assert (span.resource, span.label, span.duration) == (
        "driver", "storage-backoff", 0.5)
    (retry,) = bus.events_of("retry")
    assert (retry.resource, retry.op, retry.time) == ("driver", "GET",
                                                      span.start)
    (warning,) = [r for r in dev.sc.log.records if r.level == "WARN"]
    assert warning.component == "HadoopRDD"
    assert warning.message.startswith("GET failed transiently (")
    assert warning.message.endswith("; retrying in 0.5s")
    assert warning.time == span.start


def test_driver_retry_wall_time_is_counted_once(cloud_config):
    """A driver retry's backoff sits inside the Spark job's window; the
    report moves it from the Spark time to resilience, so the offload's wall
    time grows by the backoff alone and still matches the clock."""
    _, clean, clean_bus = _second_offload(cloud_config, gets=0)
    _, retried, retried_bus = _second_offload(cloud_config, gets=1)

    def window(bus):
        (begin,) = bus.events_of("target_begin")
        (end,) = bus.events_of("target_end")
        return end.time - begin.time

    assert retried.backoff_s == 0.5
    assert retried.spark_job_s == pytest.approx(clean.spark_job_s)
    assert retried.full_s == pytest.approx(clean.full_s + 0.5)
    assert (window(retried_bus) - retried.full_s
            == pytest.approx(window(clean_bus) - clean.full_s))
    assert sum(retried.figure5_stack().values()) == pytest.approx(
        retried.full_s)


def test_only_host_staged_objects_carry_a_recorded_checksum(cloud_config):
    """The driver writes its outputs through the same client, but only the
    host-staged inputs are what a resubmission re-verifies."""
    rt = make_cloud_runtime(cloud_config)
    _offload(rt)
    staged = rt.device("CLOUD").transfer._staged_checksums
    assert staged and all("/in/" in key for key in staged)


def test_persistent_failure_falls_back_to_host(cloud_config):
    """When the retry budget is exhausted the offload degrades to host
    execution (results still correct) instead of raising."""
    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")
    dev.storage.inject_failures(puts=99)
    with pytest.warns(RuntimeWarning, match="falling back to host"):
        report = _offload(rt)
    assert report.fell_back_to_host
    assert report.device_name == "HOST"
    assert report.retries >= dev.retry_policy.max_attempts - 1
    assert report.backoff_s > 0.0
    assert rt.fallbacks == 1


def test_retry_budget_is_configurable(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")
    dev.retry_policy = replace(dev.retry_policy, max_attempts=5)
    dev.storage.inject_failures(puts=4)
    report = _offload(rt)  # 4 failures, 5th attempt wins
    assert report.tasks_run > 0


def test_injection_validation(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    with pytest.raises(ValueError):
        rt.device("CLOUD").storage.inject_failures(puts=-1)
