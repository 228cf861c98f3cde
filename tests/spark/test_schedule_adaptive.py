"""Adaptive execution: speculation, pipelined collect, weighted placement.

Everything here is opt-in through :class:`~repro.spark.schedule.ScheduleConfig`;
the first tests pin the default-off contract (bit-identical to the static
scheduler), the rest exercise the straggler/rescue/pipeline paths that
``docs/SCHEDULING.md`` describes.
"""

import pytest

from repro.cloud.network import Link, NetworkModel
from repro.simtime import Phase, SimClock, Timeline
from repro.spark.executor import Executor
from repro.spark.faults import FaultPlan
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
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


def _run(tasks, executors, schedule=STATIC_SCHEDULE, fault_plan=FaultPlan(),
         costs=None, functional=True):
    sched = TaskScheduler(costs or SchedulerCosts(task_launch_s=0.0))
    clock = SimClock()
    timeline = Timeline()
    stats = sched.run_job(
        tasks, executors, _net(), clock, timeline,
        fault_plan=fault_plan, functional=functional, schedule=schedule,
    )
    return stats, clock, timeline


def _tasks(n, duration=1.0, **columns):
    return TaskTable(
        task_id=range(n), split=range(n), compute_s=[duration] * n,
        closures=[(lambda i=i: [i]) for i in range(n)],
        **{name: [v] * n for name, v in columns.items()})


# ------------------------------------------------------------- ScheduleConfig
def test_schedule_config_defaults_are_static():
    cfg = ScheduleConfig()
    assert cfg.mode == "static"
    assert not cfg.speculation and not cfg.weighted and not cfg.pipelined
    assert cfg == STATIC_SCHEDULE


@pytest.mark.parametrize("kwargs", [
    {"mode": "fastest"},
    {"speculation_multiplier": 0.5},
    {"pipeline_depth": -1},
])
def test_schedule_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ScheduleConfig(**kwargs)


def test_schedule_config_flags():
    assert ScheduleConfig(mode="weighted").weighted
    assert ScheduleConfig(pipeline_depth=2).pipelined
    assert not ScheduleConfig(pipeline_depth=0).pipelined


# ------------------------------------------------------------ executor speed
def test_executor_speed_scales_reservations():
    fast = Executor("w0", vcpus=2, task_cpus=2, speed=2.0)
    stats, _, _ = _run(_tasks(1), [fast])
    assert stats.makespan_s == pytest.approx(0.5)


def test_executor_default_speed_is_identity():
    ex = Executor("w0", vcpus=2, task_cpus=2)
    stats, _, _ = _run(_tasks(1), [ex])
    assert stats.makespan_s == pytest.approx(1.0)


def test_executor_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        Executor("w0", vcpus=2, task_cpus=2, speed=0.0)


# -------------------------------------------------------------- stragglers
def _hetero():
    """One full-speed slot and one quarter-speed slot."""
    return [Executor("w0", vcpus=2, task_cpus=2, speed=1.0),
            Executor("w1", vcpus=2, task_cpus=2, speed=0.25)]


def test_straggler_copy_wins_first_result():
    exs = _hetero()
    spec = ScheduleConfig(speculation=True)
    stats, _, timeline = _run(_tasks(2), exs, schedule=spec)
    # Task 1 lands on the 4x-slower w1 (actual 4.0 s vs median 1.0 s); the
    # copy launches at 1.5 s on w0 (free at 1.0) and finishes at 2.5 s.
    assert stats.speculated_tasks == 1
    assert stats.speculation_wins == 1
    assert stats.speculation_saved_s == pytest.approx(1.5)
    winner = stats.results[1]
    assert winner.speculative and winner.worker_id == "w0"
    assert winner.end == pytest.approx(2.5)
    # Accumulator exactly-once: the straggling original produced the value.
    assert [r.value for r in stats.results] == [[0], [1]]
    assert stats.makespan_s == pytest.approx(2.5)
    assert timeline.busy(Phase.SPECULATION) == 0.0  # launch cost is 0 here


def test_straggler_ignored_when_speculation_off():
    stats, _, _ = _run(_tasks(2), _hetero())
    assert stats.speculated_tasks == 0
    assert stats.makespan_s == pytest.approx(4.0)  # tail = slow original


def test_copy_not_launched_when_it_cannot_win():
    # Multiplier so large the copy would finish after the straggler.
    spec = ScheduleConfig(speculation=True, speculation_multiplier=3.9)
    stats, _, _ = _run(_tasks(2), _hetero(), schedule=spec)
    assert stats.speculated_tasks == 0
    assert stats.makespan_s == pytest.approx(4.0)


def test_no_speculation_without_second_executor():
    slow = [Executor("w0", vcpus=2, task_cpus=2, speed=0.25)]
    fast_task = _tasks(2)
    spec = ScheduleConfig(speculation=True)
    stats, _, _ = _run(fast_task, slow, schedule=spec)
    assert stats.speculated_tasks == 0  # nowhere else to run a copy


# ----------------------------------------------------- rescue of dead workers
def test_speculation_rescues_preempted_task():
    exs = [Executor("w0", vcpus=2, task_cpus=2),
           Executor("w1", vcpus=2, task_cpus=2)]
    plan = FaultPlan(preempt_at={"w0": 0.5})
    spec = ScheduleConfig(speculation=True)
    stats, _, _ = _run(_tasks(1, duration=1.2), exs, fault_plan=plan,
                       schedule=spec)
    # Without speculation the retry waits for heartbeat detection at
    # 0.5 + 2.0 then re-runs; with it the copy launches at 1.5 x 1.2 = 1.8.
    base_stats, _, _ = _run(_tasks(1, duration=1.2),
                            [Executor("w0", vcpus=2, task_cpus=2),
                             Executor("w1", vcpus=2, task_cpus=2)],
                            fault_plan=plan)
    assert stats.speculation_wins == 1
    assert stats.results[0].speculative
    assert stats.results[0].value == [0]  # the copy re-ran the closure
    assert stats.makespan_s < base_stats.makespan_s
    assert stats.speculation_saved_s > 0.0


def test_copy_racing_genuine_loss_falls_back_to_retry():
    """The copy's own executor dies mid-copy: the ordinary retry path (with
    its full failure-detection delay) still completes the job."""
    exs = [Executor("w0", vcpus=2, task_cpus=2),
           Executor("w1", vcpus=2, task_cpus=2),
           Executor("w2", vcpus=2, task_cpus=2)]
    plan = FaultPlan(preempt_at={"w0": 0.5}, die_at={"w1": 1.9})
    spec = ScheduleConfig(speculation=True)
    stats, _, _ = _run(_tasks(1, duration=1.2), exs, fault_plan=plan,
                       schedule=spec)
    assert stats.speculated_tasks == 1
    assert stats.speculation_wins == 0
    res = stats.results[0]
    assert res.worker_id == "w2" and not res.speculative
    assert res.value == [0]
    assert exs[0].is_dead and exs[1].is_dead


def test_speculation_never_masks_max_failures():
    """An application crash is a failure, not a straggler: with speculation
    on, four crashing executors still exhaust spark.task.maxFailures."""
    exs = [Executor(f"w{i}", vcpus=2, task_cpus=2) for i in range(4)]
    plan = FaultPlan(fail_task_number={f"w{i}": 1 for i in range(4)})
    spec = ScheduleConfig(speculation=True)
    with pytest.raises(JobFailedError):
        _run(_tasks(1), exs, fault_plan=plan, schedule=spec)


# ------------------------------------------------------------------ pipeline
def _io_tasks(n, nbytes=10**9, duration=0.5):
    return _tasks(n, duration, input_bytes=nbytes, output_bytes=nbytes)


def test_pipeline_depth_zero_matches_strict_barrier():
    a, _, _ = _run(_io_tasks(3), [Executor("w0", vcpus=8, task_cpus=2)])
    b, _, _ = _run(_io_tasks(3), [Executor("w0", vcpus=8, task_cpus=2)],
                   schedule=ScheduleConfig(pipeline_depth=0))
    assert a.makespan_s == b.makespan_s
    assert [r.collected_at for r in a.results] == \
           [r.collected_at for r in b.results]


def test_pipelined_collect_overlaps_compute():
    # Launch serialization (0.1 s per task) leaves NIC idle gaps between the
    # 0.01 s scatters; early results stream back through them instead of
    # queueing behind the last scatter.
    ex = lambda: [Executor("w0", vcpus=16, task_cpus=2)]  # noqa: E731
    costs = SchedulerCosts(task_launch_s=0.1)
    strict, _, t_strict = _run(_io_tasks(8, nbytes=10**7, duration=0.01),
                               ex(), costs=costs)
    piped, _, t_piped = _run(_io_tasks(8, nbytes=10**7, duration=0.01),
                             ex(), costs=costs,
                             schedule=ScheduleConfig(pipeline_depth=8))
    # Same results, same total NIC work, shorter critical path.
    assert [r.value for r in piped.results] == [r.value for r in strict.results]
    assert t_piped.busy(Phase.COLLECT) == pytest.approx(
        t_strict.busy(Phase.COLLECT))
    assert piped.makespan_s < strict.makespan_s
    assert all(r.collected_at >= r.end for r in piped.results)


def test_pipelined_results_stay_ordered_by_split():
    stats, _, _ = _run(_io_tasks(5), [Executor("w0", vcpus=4, task_cpus=2)],
                       schedule=ScheduleConfig(pipeline_depth=2))
    assert [r.split for r in stats.results] == list(range(5))
    assert [r.value for r in stats.results] == [[i] for i in range(5)]
