"""TaskScheduler: waves, launch serialization, broadcast charging, failures."""

import pytest

from repro.cloud.network import Link, NetworkModel
from repro.simtime import Phase, SimClock, Timeline
from repro.spark.broadcast import Broadcast
from repro.spark.executor import Executor
from repro.spark.faults import FaultPlan
from repro.spark.scheduler import (
    JobFailedError,
    SchedulerCosts,
    TaskScheduler,
    TaskTable,
)


def _net():
    return NetworkModel(
        wan=Link(capacity_bps=1e6, latency_s=0.0),
        lan=Link(capacity_bps=1e9, latency_s=0.0),
    )


def _run(tasks, executors, broadcasts=(), fault_plan=FaultPlan(), costs=None):
    sched = TaskScheduler(costs or SchedulerCosts(task_launch_s=0.0))
    clock = SimClock()
    timeline = Timeline()
    stats = sched.run_job(
        tasks, executors, _net(), clock, timeline,
        broadcasts=broadcasts, fault_plan=fault_plan, functional=True,
    )
    return stats, clock, timeline


def _table(n, closure, **columns):
    """``n`` rows sharing one value per given column and one closure."""
    return TaskTable(task_id=range(n), split=range(n), closures=[closure] * n,
                     **{name: [v] * n for name, v in columns.items()})


def _tasks(n, duration=1.0, fn=None):
    return TaskTable(
        task_id=range(n), split=range(n), compute_s=[duration] * n,
        closures=[(lambda i=i: [fn(i)] if fn else [i]) for i in range(n)])


@pytest.mark.parametrize("column", [
    "split", "compute_s", "jni_s", "decompress_s", "compress_s",
    "input_bytes", "output_bytes", "closures",
])
def test_task_table_rejects_a_short_column(column):
    short = [None] * 2 if column == "closures" else [0] * 2
    with pytest.raises(ValueError, match="column length mismatch"):
        TaskTable(**{"task_id": range(3), "split": range(3), column: short})


def test_one_wave_on_enough_slots():
    ex = Executor("w0", vcpus=8, task_cpus=2)  # 4 slots
    stats, clock, _ = _run(_tasks(4), [ex])
    assert stats.makespan_s == pytest.approx(1.0)


def test_two_waves_when_oversubscribed():
    ex = Executor("w0", vcpus=4, task_cpus=2)  # 2 slots
    stats, _, _ = _run(_tasks(4), [ex])
    assert stats.makespan_s == pytest.approx(2.0)


def test_results_ordered_by_split():
    ex = Executor("w0", vcpus=8, task_cpus=2)
    stats, _, _ = _run(_tasks(6), [ex])
    assert [r.split for r in stats.results] == list(range(6))
    assert [r.value for r in stats.results] == [[i] for i in range(6)]


def test_tasks_spread_across_executors():
    exs = [Executor(f"w{i}", vcpus=2, task_cpus=2) for i in range(4)]
    stats, _, _ = _run(_tasks(4), exs)
    assert {r.worker_id for r in stats.results} == {"w0", "w1", "w2", "w3"}
    assert stats.makespan_s == pytest.approx(1.0)


def test_launch_overhead_serializes_on_driver():
    ex = Executor("w0", vcpus=64, task_cpus=2)  # 32 slots, one wave
    costs = SchedulerCosts(task_launch_s=0.1)
    stats, _, timeline = _run(_tasks(10), [ex], costs=costs)
    # Last task cannot start before 10 launches (1s) have been issued.
    assert stats.makespan_s == pytest.approx(10 * 0.1 + 1.0)
    assert timeline.busy(Phase.SCHEDULING) == pytest.approx(1.0)


def test_broadcast_charged_once_per_job():
    ex = Executor("w0", vcpus=8, task_cpus=2)
    bc = Broadcast(value=b"x", nbytes=10_000_000)
    stats, _, timeline = _run(_tasks(2), [ex], broadcasts=(bc,))
    assert stats.broadcast_s > 0
    assert timeline.busy(Phase.BROADCAST) == pytest.approx(stats.broadcast_s)
    assert "w0" in bc.nodes_seeded


def test_broadcast_not_recharged_for_seeded_nodes():
    ex = Executor("w0", vcpus=8, task_cpus=2)
    bc = Broadcast(value=b"x", nbytes=10_000_000)
    bc.nodes_seeded.add("w0")
    stats, _, _ = _run(_tasks(2), [ex], broadcasts=(bc,))
    assert stats.broadcast_s == 0.0


def test_input_bytes_flow_through_driver_nic():
    ex = Executor("w0", vcpus=8, task_cpus=2)
    tasks = _table(2, lambda: [], compute_s=0.0, input_bytes=10**9)
    _, _, timeline = _run(tasks, [ex])
    # 2 GB over a 1 GB/s NIC: the scatters serialize to ~2 s.
    assert timeline.busy(Phase.INTRA_TRANSFER) == pytest.approx(2.0, rel=0.01)


def test_collect_bytes_recorded():
    ex = Executor("w0", vcpus=8, task_cpus=2)
    tasks = _table(1, lambda: [1], compute_s=0.0, output_bytes=5 * 10**8)
    _, _, timeline = _run(tasks, [ex])
    assert timeline.busy(Phase.COLLECT) == pytest.approx(0.5, rel=0.01)


def test_phase_spans_match_task_structure():
    ex = Executor("w0", vcpus=2, task_cpus=2)
    tasks = _table(1, lambda: [1], compute_s=2.0, jni_s=0.5,
                   decompress_s=0.25, compress_s=0.25)
    _, _, timeline = _run(tasks, [ex])
    assert timeline.busy(Phase.COMPUTE) == pytest.approx(2.0)
    assert timeline.busy(Phase.JNI_CALL) == pytest.approx(0.5)
    assert timeline.busy(Phase.WORKER_DECOMPRESS) == pytest.approx(0.25)
    assert timeline.busy(Phase.WORKER_COMPRESS) == pytest.approx(0.25)


def test_simulated_worker_death_triggers_rerun():
    exs = [Executor("w0", vcpus=2, task_cpus=2), Executor("w1", vcpus=2, task_cpus=2)]
    plan = FaultPlan(die_at={"w0": 0.5})
    stats, _, _ = _run(_tasks(2, duration=1.0), exs, fault_plan=plan)
    assert stats.recomputed_tasks >= 1
    assert all(r.worker_id == "w1" for r in stats.results)
    assert [r.value for r in stats.results] == [[0], [1]]


def test_functional_failure_injection_recovers():
    exs = [Executor("w0", vcpus=2, task_cpus=2), Executor("w1", vcpus=2, task_cpus=2)]
    plan = FaultPlan(fail_task_number={"w0": 1})
    stats, _, _ = _run(_tasks(4), exs, fault_plan=plan)
    assert stats.recomputed_tasks == 1
    assert [r.value for r in stats.results] == [[i] for i in range(4)]
    assert exs[0].is_dead


def test_all_executors_dead_fails_job():
    ex = Executor("w0", vcpus=2, task_cpus=2)
    plan = FaultPlan(die_at={"w0": 0.1})
    with pytest.raises(JobFailedError):
        _run(_tasks(2), [ex], fault_plan=plan)


def test_empty_executor_list_fails():
    with pytest.raises(JobFailedError):
        _run(_tasks(1), [])


def test_clock_advances_to_job_end():
    ex = Executor("w0", vcpus=2, task_cpus=2)
    _, clock, _ = _run(_tasks(3, duration=2.0), [ex])
    assert clock.now == pytest.approx(6.0)


def test_modeled_mode_skips_closures():
    ran = []
    ex = Executor("w0", vcpus=2, task_cpus=2)
    tasks = _table(1, lambda: ran.append(1), compute_s=1.0)
    sched = TaskScheduler(SchedulerCosts(task_launch_s=0.0))
    stats = sched.run_job(tasks, [ex], _net(), SimClock(), Timeline(), functional=False)
    assert ran == []
    assert stats.makespan_s == pytest.approx(1.0)
