"""Event bus: typed events, correlation stamping, subscription."""

import threading

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_TYPES,
    Event,
    EventBus,
    Retry,
    TargetBegin,
    TargetEnd,
    TaskEnd,
    get_bus,
    set_bus,
    use_bus,
)


def test_catalogue_is_closed_and_typed():
    assert len(EVENT_KINDS) == 33
    for kind, cls in EVENT_TYPES.items():
        assert cls.kind == kind
        assert issubclass(cls, Event)
    # Stable snake_case discriminators.
    assert all(k == k.lower() and " " not in k for k in EVENT_KINDS)


def test_subclass_must_declare_kind():
    with pytest.raises(TypeError, match="must define"):
        class Nameless(Event):  # noqa: F811
            pass


def test_duplicate_kind_rejected():
    with pytest.raises(TypeError, match="duplicate"):
        class Clash(Event):
            kind = "retry"


def test_to_dict_is_flat_and_carries_kind():
    d = Retry(time=1.5, resource="host", op="PUT", attempt=2, delay_s=0.4).to_dict()
    assert d["kind"] == "retry"
    assert d["op"] == "PUT" and d["attempt"] == 2
    assert d["time"] == 1.5
    assert all(not isinstance(v, (dict, list)) for v in d.values())


def test_emit_without_listeners_is_a_no_op():
    bus = EventBus()  # no history, no subscribers
    assert bus.emit(Retry(op="PUT")) is None
    assert bus.events == ()


def test_history_records_stamped_events():
    bus = EventBus(keep_history=True)
    with bus.offload_scope("gemm") as corr:
        bus.emit(TargetBegin(region="gemm"))
        bus.emit(Retry(op="PUT"))
    begin, retry = bus.events
    assert begin.correlation_id == corr == "gemm#1"
    assert retry.correlation_id == corr
    # The TargetBegin span is the root; later events point back at it.
    assert retry.parent_id == begin.span_id
    assert begin.span_id != retry.span_id


def test_nested_scope_keeps_outer_root_as_parent():
    """A host rerun inside a cloud offload links to the cloud root span."""
    bus = EventBus(keep_history=True)
    with bus.offload_scope("outer"):
        bus.emit(TargetBegin(region="outer"))
        with bus.offload_scope("inner"):
            bus.emit(TargetBegin(region="inner"))
    outer, inner = bus.events
    assert outer.correlation_id == "outer#1"
    assert inner.correlation_id == "inner#2"
    assert inner.parent_id == outer.span_id


def test_correlation_ids_are_unique_per_offload():
    bus = EventBus(keep_history=True)
    seen = []
    for _ in range(3):
        with bus.offload_scope("matmul") as corr:
            seen.append(corr)
    assert len(set(seen)) == 3


def test_current_correlation():
    bus = EventBus()
    assert bus.current_correlation() == ""
    with bus.offload_scope("x") as corr:
        assert bus.current_correlation() == corr
    assert bus.current_correlation() == ""


def test_subscribe_kinds_filter_and_unsubscribe():
    bus = EventBus()
    got = []
    unsub = bus.subscribe(got.append, kinds=("retry",))
    bus.emit(TargetEnd(region="r"))
    bus.emit(Retry(op="PUT"))
    assert [e.kind for e in got] == ["retry"]
    unsub()
    bus.emit(Retry(op="PUT"))
    assert len(got) == 1


def test_subscribe_rejects_unknown_kind():
    bus = EventBus()
    with pytest.raises(ValueError, match="unknown event kinds"):
        bus.subscribe(lambda e: None, kinds=("retry", "nope"))


def test_events_of_counts_clear():
    bus = EventBus(keep_history=True)
    bus.emit(Retry(op="a"))
    bus.emit(Retry(op="b"))
    bus.emit(TargetEnd())
    assert len(bus.events_of("retry")) == 2
    assert bus.counts() == {"retry": 2, "target_end": 1}
    assert list(bus.counts()) == sorted(bus.counts())
    bus.clear()
    assert bus.events == ()


def test_events_are_frozen():
    e = Retry(op="PUT")
    with pytest.raises(Exception):
        e.op = "GET"


def test_use_bus_swaps_and_restores():
    original = get_bus()
    scratch = EventBus(keep_history=True)
    with use_bus(scratch) as active:
        assert get_bus() is scratch is active
    assert get_bus() is original
    # set_bus returns the previous bus for manual management.
    prev = set_bus(scratch)
    assert prev is original
    assert set_bus(original) is scratch


def test_emission_is_thread_safe():
    """Parallel staging threads emit onto one bus without losing events."""
    bus = EventBus(keep_history=True)
    n, workers = 200, 8

    def pump():
        for _ in range(n):
            bus.emit(Retry(op="PUT"))

    threads = [threading.Thread(target=pump) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    events = bus.events
    assert len(events) == n * workers
    assert len({e.span_id for e in events}) == n * workers  # unique span ids


# ------------------------------------------------------ subscriber isolation
def test_raising_subscriber_does_not_abort_emission():
    bus = EventBus(keep_history=True)
    seen = []

    def broken(event):
        raise RuntimeError("tool is on fire")

    bus.subscribe(broken)
    bus.subscribe(seen.append)
    stamped = bus.emit(Retry(op="PUT"))
    assert stamped is not None  # emit survived the broken subscriber
    assert seen == [stamped]    # later subscribers still ran
    assert bus.events == (stamped,)


def test_subscriber_errors_counted_by_subscriber_and_kind():
    bus = EventBus(keep_history=True)

    def broken(event):
        raise ValueError("nope")

    bus.subscribe(broken)
    bus.emit(Retry(op="PUT"))
    bus.emit(Retry(op="GET"))
    bus.emit(TargetBegin(region="gemm"))
    name = broken.__qualname__
    errors = bus.subscriber_errors
    assert errors.name == "repro_bus_subscriber_errors"
    assert errors.value(subscriber=name, kind="retry") == 2
    assert errors.value(subscriber=name, kind="target_begin") == 1
    assert errors.total() == 3


def test_subscriber_errors_logged_once_per_subscriber(caplog):
    import logging

    bus = EventBus()

    def broken(event):
        raise RuntimeError("boom")

    def also_broken(event):
        raise RuntimeError("boom too")

    bus.subscribe(broken)
    bus.subscribe(also_broken)
    with caplog.at_level(logging.WARNING, logger="repro.obs.events"):
        for _ in range(3):
            bus.emit(Retry(op="PUT"))
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2  # one warning per distinct subscriber, not per event
    assert any(broken.__qualname__ in m for m in messages)
    assert any(also_broken.__qualname__ in m for m in messages)
    assert bus.subscriber_errors.total() == 6


def _gemm_offload(bus):
    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.workloads.specs import WORKLOADS

    spec = WORKLOADS["gemm"]
    rt = OffloadRuntime()
    rt.register(CloudDevice(demo_config(4), physical_cores=32))
    with use_bus(bus):
        return offload(spec.build_region("CLOUD"),
                       scalars=spec.scalars(spec.test_size),
                       runtime=rt, mode=ExecutionMode.MODELED)


def test_offload_continues_past_a_broken_subscriber():
    bus = EventBus(keep_history=True)

    def broken(event):
        raise RuntimeError("observer crash")

    bus.subscribe(broken)
    report = _gemm_offload(bus)
    assert report.full_s > 0            # the offload finished
    assert bus.subscriber_errors.total() == len(bus.events) > 0


# ------------------------------------------------------------- task batches
def test_task_rows_reach_a_per_event_subscriber_as_stamped_events():
    bus = EventBus(keep_history=True)
    got = []
    bus.subscribe(got.append)
    with bus.offload_scope("gemm"):
        root = bus.emit(TargetBegin(region="gemm"))
        bus.task_done(7, "worker-1", 1.0, 1.5, 0.5, 1)
        bus.task_done(8, "worker-2", 1.0, 2.0, 1.0, 2)
        assert got == [root]                 # rows are pending ...
        retry = bus.emit(Retry(op="PUT"))    # ... until any emit flushes them
    assert [e.kind for e in got] == ["target_begin", "task_start", "task_end",
                                     "task_start", "task_end", "retry"]
    assert [e.span_id for e in got] == [1, 2, 3, 4, 5, 6]
    assert all(e.parent_id == root.span_id and e.correlation_id == "gemm#1"
               for e in got[1:])
    assert got[4] == TaskEnd(time=2.0, resource="worker-2",
                             correlation_id="gemm#1", span_id=5, parent_id=1,
                             task_id=8, worker="worker-2", duration_s=1.0,
                             attempts=2)
    assert got[-1] is retry
    assert bus.events == tuple(got)


def test_reading_history_flushes_pending_rows():
    bus = EventBus(keep_history=True)
    bus.task_done(1, "w", 0.0, 1.0, 1.0, 1)
    assert bus.counts() == {"task_end": 1, "task_start": 1}
    bus.task_done(2, "w", 1.0, 2.0, 1.0, 1)
    bus.clear()
    assert bus.events == ()


def test_long_runs_are_delivered_in_bounded_chunks():
    from repro.obs.events import _BATCH_ROWS

    sizes = []

    class Tool:
        def __call__(self, event):
            raise AssertionError("asked for batches, got an event")

        def on_task_batch(self, batch):
            sizes.append(len(batch))

    bus = EventBus()
    bus.subscribe(Tool())
    for i in range(2 * _BATCH_ROWS + 5):
        bus.task_done(i, "w", 0.0, 1.0, 1.0, 1)
    assert sizes == [_BATCH_ROWS, _BATCH_ROWS]
    bus.flush()
    assert sizes == [_BATCH_ROWS, _BATCH_ROWS, 5]


def test_raising_batch_handler_is_counted_and_the_offload_survives():
    class BrokenTool:
        def __call__(self, event):
            pass

        def on_task_batch(self, batch):
            raise RuntimeError("batch tool is on fire")

    bus = EventBus(keep_history=True)
    ends = []
    bus.subscribe(BrokenTool())
    bus.subscribe(ends.append, kinds=("task_end",))
    report = _gemm_offload(bus)
    assert report.tasks_run > 0
    errors = bus.subscriber_errors
    assert errors.value(subscriber=BrokenTool.on_task_batch.__qualname__,
                        kind="task_batch") >= 1
    assert errors.total() == errors.value(
        subscriber=BrokenTool.on_task_batch.__qualname__, kind="task_batch")
    # The kinds-filtered per-event subscriber still got exactly the TaskEnds,
    # in emission order, as the same objects the history holds.
    assert len(ends) == report.tasks_run
    assert ends == bus.events_of("task_end")
    assert [e.span_id for e in ends] == sorted(e.span_id for e in ends)
