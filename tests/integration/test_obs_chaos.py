"""Observability under chaos: events, timeline, and metrics must agree.

Replays the fault plans from ``test_resilience_e2e`` with the full
observability stack attached and cross-checks the three planes against each
other: every Retry/Preemption/Fallback *event* must have a matching
*timeline span* and a matching *metric increment*.  A lost event (or a span
recorded without its event) is a hole in the instrumentation an operator
would fall into during a real incident.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.obs.events import EventBus, use_bus
from repro.obs.subscribers import MetricsSubscriber, ReportBuilder
from repro.simtime import Phase
from repro.spark.faults import FaultPlan
from repro.workloads import WORKLOADS

from tests.conftest import make_cloud_runtime


@pytest.fixture
def stack():
    """(bus, metrics, builder) attached and installed as the process bus."""
    bus = EventBus(keep_history=True)
    metrics = MetricsSubscriber()
    metrics.attach(bus)
    builder = ReportBuilder()
    builder.attach(bus)
    with use_bus(bus):
        yield bus, metrics.registry, builder


def _chaos_report(cloud_config):
    spec = WORKLOADS["gemm"]
    plan = FaultPlan(
        ssh_connect_failures=1,
        preempt_at={"worker-1": 0.2},
        fail_task_number={"worker-0": 1},
    )
    rt = make_cloud_runtime(cloud_config, physical_cores=64, fault_plan=plan)
    rt.device("CLOUD").storage.inject_failures(puts=2)
    report = offload(spec.build_region("CLOUD"),
                     arrays=spec.inputs(spec.test_size, density=1.0, seed=21),
                     scalars=spec.scalars(spec.test_size), runtime=rt)
    return report


def test_retry_events_match_spans_and_metrics(cloud_config, stack):
    bus, registry, builder = stack
    report = _chaos_report(cloud_config)

    retries = bus.events_of("retry")
    assert len(retries) == report.retries >= 3  # 2 storage PUTs + 1 SSH
    # Event plane == report plane: the same backoff, second for second.
    assert sum(e.delay_s for e in retries) == pytest.approx(report.backoff_s)
    # Timeline plane: the timeline coalesces consecutive attempts into one
    # backoff span per retry site, so every event's backoff window must fall
    # inside some RETRY_BACKOFF span and the total seconds must agree.
    spans = [s for s in report.timeline.spans if s.phase is Phase.RETRY_BACKOFF]
    assert spans
    for e in retries:
        assert any(s.start - 1e-9 <= e.time and
                   e.time + e.delay_s <= s.end + 1e-9 for s in spans), e
    assert (sum(s.duration for s in spans)
            == pytest.approx(sum(e.delay_s for e in retries)))
    # Metrics plane: the counters folded the same stream.
    assert registry.get("repro_retries_total").total() == len(retries)
    assert (registry.get("repro_retry_backoff_seconds_total").total()
            == pytest.approx(report.backoff_s))
    # Derived-view plane agrees too.
    derived = builder.latest()
    assert derived.retries == report.retries
    assert derived.backoff_s == pytest.approx(report.backoff_s)


def test_preemption_events_match_spans_and_metrics(cloud_config, stack):
    bus, registry, builder = stack
    report = _chaos_report(cloud_config)

    preemptions = bus.events_of("preemption")
    assert len(preemptions) == report.preemptions == 1
    spans = [s for s in report.timeline.spans if s.phase is Phase.PREEMPTION]
    assert len(spans) == 1
    # The event is stamped at the instant the span marks.
    assert preemptions[0].time == pytest.approx(spans[0].start)
    assert preemptions[0].worker == spans[0].resource == "worker-1"
    # Each preemption comes with a recovery (event and span).
    recoveries = bus.events_of("recovery")
    assert len(recoveries) == 1
    rec_spans = [s for s in report.timeline.spans if s.phase is Phase.RECOVERY]
    assert len(rec_spans) == 1
    assert recoveries[0].duration_s == pytest.approx(rec_spans[0].duration)
    assert registry.get("repro_preemptions_total").total() == 1
    assert builder.latest().preemptions == 1
    # The preempted worker is replaced by the plugin before the scheduler
    # ever sees it dead; the crashed task's worker *is* reported lost.
    lost = bus.events_of("executor_lost")
    assert any(e.worker == "worker-0" and e.reason == "task crashed"
               for e in lost)
    assert (registry.get("repro_executors_lost_total").total() == len(lost))


def test_fallback_events_match_spans_and_metrics(cloud_config, stack):
    """Breaker chaos: every host degradation shows up on all planes."""
    bus, registry, builder = stack
    cfg = replace(cloud_config, breaker_threshold=3, breaker_reset_s=600.0)
    rt = make_cloud_runtime(cfg)
    dev = rt.device("CLOUD")
    spec = WORKLOADS["matmul"]
    dev.storage.inject_failures(puts=3 * dev.retry_policy.max_attempts)
    for _ in range(3):
        with pytest.warns(RuntimeWarning, match="falling back to host"):
            offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                    runtime=rt, mode=ExecutionMode.MODELED)

    fallbacks = bus.events_of("fallback")
    assert len(fallbacks) == rt.fallbacks == 3
    assert registry.get("repro_fallbacks_total").total() == 3
    # One derived report per offload; each carries its FALLBACK marker span.
    assert len(builder.correlations()) == 3
    for corr in builder.correlations():
        rep = builder.report_for(corr)
        assert rep.fell_back_to_host
        assert any(s.phase is Phase.FALLBACK for s in rep.timeline.spans)
    # The third failure trips the breaker — once, on all planes.
    trips = bus.events_of("breaker_open")
    assert len(trips) == dev.breaker.total_trips == 1
    assert trips[0].device == "CLOUD"
    assert trips[0].consecutive_failures == 3
    assert registry.get("repro_breaker_trips_total").value(device="CLOUD") == 1


def test_resubmission_events_match_report(cloud_config, stack):
    bus, registry, builder = stack
    plan = FaultPlan(spark_submit_failures=1)
    rt = make_cloud_runtime(cloud_config, fault_plan=plan)
    spec = WORKLOADS["matmul"]
    report = offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                     runtime=rt, mode=ExecutionMode.MODELED)
    assert report.resubmissions == 1
    resubmits = bus.events_of("resubmit")
    assert len(resubmits) == 1
    spans = [s for s in report.timeline.spans if s.phase is Phase.RESUBMIT]
    assert len(spans) == 1
    assert resubmits[0].delay_s == pytest.approx(spans[0].duration)
    assert registry.get("repro_resubmissions_total").total() == 1
    # spark-submit attempts: one failed, one good.
    submits = bus.events_of("spark_submit")
    assert [s.ok for s in submits] == [False, True]
    assert submits[1].submission == 2
    assert builder.latest().resubmissions == 1


def test_restaged_input_is_announced_like_any_upload(cloud_config, stack):
    """A staged input lost between a failed and a retried spark-submit is
    re-staged through the ordinary upload path: the bytes it moves reach the
    event stream (``MapUpload``) as well as the report, and the result is
    bit-identical to a healthy run."""
    bus, _registry, builder = stack
    spec = WORKLOADS["gemm"]
    scalars = spec.scalars(spec.test_size)

    def run(rt):
        arrays = spec.inputs(spec.test_size, density=1.0, seed=21)
        return arrays, offload(spec.build_region("CLOUD"), arrays=arrays,
                               scalars=scalars, runtime=rt)

    healthy, clean = run(make_cloud_runtime(cloud_config))

    rt = make_cloud_runtime(cloud_config,
                            fault_plan=FaultPlan(spark_submit_failures=1))
    store = rt.device("CLOUD").storage

    def lose_staged_a(event):
        if not event.ok:
            store.delete(next(k for k in store.list_keys() if "in/A" in k))

    bus.subscribe(lose_staged_a, kinds=("spark_submit",))
    arrays, report = run(rt)

    assert report.restaged_inputs == 1
    assert not report.fell_back_to_host
    for key in healthy:
        assert np.array_equal(healthy[key], arrays[key]), key
    assert report.bytes_up_raw == clean.bytes_up_raw + arrays["A"].nbytes
    derived = builder.latest()
    assert (report.bytes_up_raw, report.bytes_up_wire) \
        == (derived.bytes_up_raw, derived.bytes_up_wire)
    uploads = [e.buffer for e in bus.events_of("map_upload")
               if e.correlation_id == derived.correlation_id]
    assert sorted(uploads) == ["A", "A", "B", "C"]


def test_chaos_stream_is_fully_correlated(cloud_config, stack):
    """Under chaos every emitted event still belongs to the offload's
    correlation scope — nothing leaks out uncorrelated."""
    bus, _registry, builder = stack
    _chaos_report(cloud_config)
    corrs = {e.correlation_id for e in bus.events}
    assert corrs == {builder.correlations()[0]}
    roots = [e for e in bus.events if e.kind == "target_begin"]
    assert roots and all(e.parent_id == roots[0].span_id
                         for e in bus.events if e.span_id != roots[0].span_id)
