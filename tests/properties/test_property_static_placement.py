"""A fault-free job's slot-level placement loop is bit-identical to the
per-row reference.

``_JobRun.run`` places a job with no fault plan and no speculation through
``_JobRun._run_static`` (one heap over every live slot); every other job goes
through ``_run_one`` + ``ExecutorIndex`` + ``SlotPool.acquire``.  An inert but
non-empty plan — a death for a worker that does not exist — changes nothing
but the path, so the same world run twice, once with ``NO_FAULTS`` and once
with that plan, must agree on every observable: the result columns and
``LazyResults``, the job's ``TaskSpans`` spans, the task rows a history bus
records, each slot's ``free_at`` afterwards and, in functional mode, each
executor's ``tasks_executed``.  The generated worlds mix speeds, dead
executors, pool resets at arbitrary times, zero durations and rows with no
input bytes after rows that waited on the NIC (so ``ready`` is not
monotone), over two jobs in a row on the same executors.
"""

from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.network import Link, NetworkModel
from repro.obs.events import EventBus, use_bus
from repro.simtime.clock import SimClock
from repro.simtime.timeline import Timeline
from repro.spark import scheduler as scheduler_module
from repro.spark.executor import Executor
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.schedule import ScheduleConfig
from repro.spark.scheduler import SchedulerCosts, TaskScheduler
from repro.spark.tasktable import TaskTable

#: Non-empty, so the scheduler takes the per-row path; kills nobody.
INERT = FaultPlan(die_at={"no-such-worker": 1e9})

seconds = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
                    st.floats(min_value=0.0, max_value=8.0,
                              allow_nan=False, allow_infinity=False))

executor_spec = st.tuples(
    st.integers(min_value=1, max_value=4),                  # slots
    st.sampled_from([0.5, 1.0, 2.0]),                       # speed
    st.booleans(),                                          # dead before job 1
    st.one_of(st.none(), seconds),                          # reset before job 1
    st.one_of(st.none(), seconds),                          # reset before job 2
)

row = st.tuples(
    seconds,                                                # compute_s
    st.sampled_from([0.0, 0.0, 0.25]),                      # jni_s
    st.sampled_from([0.0, 0.0, 0.125]),                     # decompress_s
    st.sampled_from([0.0, 0.0, 0.0625]),                    # compress_s
    st.sampled_from([0, 0, 1_000, 50_000, 400_000]),        # input_bytes
    st.sampled_from([0, 0, 2_000, 100_000]),                # output_bytes
)

world = st.fixed_dictionaries({
    "executors": st.lists(executor_spec, min_size=1, max_size=12),
    "jobs": st.lists(st.lists(row, min_size=0, max_size=40),
                     min_size=2, max_size=2),
    "launch_s": st.sampled_from([0.0, 0.004, 0.05]),
    "lan_bps": st.sampled_from([1e6, 1e7, 1e9]),
    "functional": st.booleans(),
})


def _run(spec: dict, plan: FaultPlan) -> dict:
    """Run the world's two jobs under ``plan``; everything they observe."""
    execs = [Executor(f"w{i}", vcpus=2 * slots, task_cpus=2, speed=speed)
             for i, (slots, speed, *_) in enumerate(spec["executors"])]
    dead = [es[2] for es in spec["executors"]]
    dead[0] = dead[0] and not all(dead)  # one executor survives
    net = NetworkModel(wan=Link(capacity_bps=1e6, latency_s=0.01),
                       lan=Link(capacity_bps=spec["lan_bps"], latency_s=0.001))
    sched = TaskScheduler(SchedulerCosts(task_launch_s=spec["launch_s"]))
    clock, timeline = SimClock(), Timeline()
    bus = EventBus(keep_history=True)
    batches: list = []

    class _Rows:
        def __call__(self, event) -> None:
            pass

        def on_task_batch(self, batch) -> None:
            batches.append(tuple(list(col) for col in (
                batch.task_id, batch.worker, batch.start, batch.end,
                batch.duration_s, batch.attempts)))

    bus.subscribe(_Rows())
    seen: dict = {"jobs": []}
    with use_bus(bus):
        for ex, gone in zip(execs, dead):
            if gone:
                ex.mark_dead(now=0.0, reason="before the job")
        for j, rows in enumerate(spec["jobs"]):
            for ex, es in zip(execs, spec["executors"]):
                at = es[3 + j]
                if at is not None and not ex.is_dead:
                    ex.pool.reset(at)
            n = len(rows)
            cols = list(zip(*rows)) if rows else [()] * 6
            closures = ([(lambda j=j, r=r: (j, r)) for r in range(n)]
                        if spec["functional"] else None)
            table = TaskTable(task_id=[100 * j + r for r in range(n)],
                              split=range(n), compute_s=cols[0], jni_s=cols[1],
                              decompress_s=cols[2], compress_s=cols[3],
                              input_bytes=cols[4], output_bytes=cols[5],
                              stage=f"job{j}", closures=closures)
            stats = sched.run_job(table, execs, net, clock, timeline,
                                  fault_plan=plan,
                                  functional=spec["functional"])
            res = stats.results
            seen["jobs"].append(repr((
                list(res._start), list(res._end), list(res._worker_pos),
                list(res._collected), list(res._attempts), res.values(),
                list(res),
                {f.name: getattr(stats, f.name) for f in fields(stats)
                 if f.name != "results"})))
    seen["spans"] = repr(list(timeline.spans))
    seen["events"] = repr(bus.events)
    seen["batches"] = repr(batches)
    seen["free_at"] = repr([[s.free_at for s in ex.pool.slots] for ex in execs])
    seen["earliest"] = repr([ex.pool.earliest_free() for ex in execs])
    seen["executed"] = [ex.tasks_executed for ex in execs]
    seen["clock"] = repr(clock.now)
    return seen


#: Two slots; the third row waits on the NIC long enough that both slots are
#: free at its ``ready``, takes slot 0 and leaves slot 1 in the free heap
#: with a ``free_at`` above the fourth row's ``ready`` (no input bytes), so
#: the fourth row must take the exact scan and pick slot 1.
STALE_FREE = {
    "executors": [(2, 1.0, False, None, None)],
    "jobs": [[(0.5, 0.0, 0.0, 0.0, b, 0) for b in (400_000, 1_000, 400_000, 0)],
             []],
    "launch_s": 0.004, "lan_bps": 1e6, "functional": False,
}


@settings(max_examples=300, deadline=None)
@given(world)
@example(STALE_FREE)
def test_static_loop_matches_the_per_row_reference(spec):
    assert not INERT.empty
    static = _run(spec, NO_FAULTS)
    reference = _run(spec, INERT)
    assert static == reference
    if spec["functional"]:
        assert sum(static["executed"]) == sum(len(rows) for rows in spec["jobs"])


def _table(n: int) -> TaskTable:
    return TaskTable(task_id=range(n), split=range(n), compute_s=[1.0] * n,
                     input_bytes=[1_000] * n)


def _job(plan: FaultPlan, speculation: bool = False) -> None:
    execs = [Executor(f"w{i}", vcpus=4, task_cpus=2) for i in range(3)]
    net = NetworkModel(wan=Link(capacity_bps=1e6, latency_s=0.01),
                       lan=Link(capacity_bps=1e7, latency_s=0.001))
    TaskScheduler().run_job(_table(7), execs, net, SimClock(), Timeline(),
                            fault_plan=plan, functional=False,
                            schedule=ScheduleConfig(speculation=speculation))


@pytest.mark.parametrize("plan, speculation, per_row", [
    (NO_FAULTS, False, False),
    (FaultPlan(), False, False),     # an empty plan is no plan
    (INERT, False, True),
    (NO_FAULTS, True, True),
])
def test_only_fault_free_jobs_without_speculation_skip_the_per_row_path(
        monkeypatch, plan, speculation, per_row):
    calls = []
    reference = scheduler_module._JobRun._run_one

    def counted(self, row, ready):
        calls.append(row)
        return reference(self, row, ready)

    monkeypatch.setattr(scheduler_module._JobRun, "_run_one", counted)
    _job(plan, speculation)
    assert calls == (list(range(7)) if per_row else [])
