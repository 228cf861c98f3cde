"""Batch delivery of task events is an implementation detail.

The scheduler reports completed tasks to the bus as rows; the bus delivers
runs of rows as columnar batches to subscribers that ask for them
(``MetricsSubscriber``) and as materialised ``TaskStart``/``TaskEnd`` events
to everyone else (the recorded history).  For any rows and
any interleaving of ordinary events, that must be indistinguishable from two
``emit`` calls per task — the per-event path kept here as the reference:

* ``registry.snapshot()`` equal, floats compared by ``repr`` (the histogram's
  ``sum`` accumulates in the same order, so it is bit-equal, not just close);
* the same recorded history: kinds, fields, span ids, order — so any fold
  over the history (a per-offload ``tasks_run``, a timeline) agrees too.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (EventBus, Retry, TargetBegin, TaskEnd,
                              TaskStart)
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.subscribers import MetricsSubscriber

finite = dict(allow_nan=False, allow_infinity=False)

task_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),               # task id
        st.sampled_from([f"worker-{i}" for i in range(5)]),
        st.floats(min_value=0.0, max_value=1e4, **finite),       # start
        st.floats(min_value=0.0, max_value=4e3, **finite),       # duration_s
        st.integers(min_value=1, max_value=4),                   # attempts
        st.booleans(),              # an ordinary event follows this task
    ),
    max_size=60,
)


def _observe(rows, batched: bool):
    bus = EventBus(keep_history=True)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    with bus.offload_scope("region"):
        bus.emit(TargetBegin(region="region", device="CLOUD"))
        for tid, worker, start, duration_s, attempts, then_emit in rows:
            end = start + duration_s
            if batched:
                bus.task_done(tid, worker, start, end, duration_s, attempts)
            else:
                bus.emit(TaskStart(time=start, resource=worker, task_id=tid,
                                   worker=worker))
                bus.emit(TaskEnd(time=end, resource=worker, task_id=tid,
                                 worker=worker, duration_s=duration_s,
                                 attempts=attempts))
            if then_emit:
                bus.emit(Retry(time=end, op="PUT", delay_s=0.25))
    return bus, registry


@settings(max_examples=200, deadline=None)
@given(task_rows)
def test_batched_rows_fold_like_per_event_emission(rows):
    bus_b, registry_b = _observe(rows, batched=True)
    bus_e, registry_e = _observe(rows, batched=False)

    assert (json.dumps(registry_b.snapshot(), sort_keys=True)
            == json.dumps(registry_e.snapshot(), sort_keys=True))
    assert bus_b.events == bus_e.events
    assert len(bus_b.events_of("task_end")) == len(rows)
