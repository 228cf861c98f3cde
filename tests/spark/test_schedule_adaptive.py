"""Adaptive execution: speculation and weighted placement.

Everything here is opt-in through :class:`~repro.spark.schedule.ScheduleConfig`;
the first tests pin the default-off contract (bit-identical to the static
scheduler), the rest exercise the straggler/rescue paths that
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
    assert not cfg.speculation and not cfg.weighted
    assert cfg == STATIC_SCHEDULE


@pytest.mark.parametrize("kwargs", [
    {"mode": "fastest"},
    {"speculation_multiplier": 0.5},
])
def test_schedule_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ScheduleConfig(**kwargs)


def test_schedule_config_flags():
    assert ScheduleConfig(mode="weighted").weighted
    assert not ScheduleConfig().weighted


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
    # Exactly once: the straggling original produced the value.
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


# ---------------------------------------------- exactly-once closure effects
def _counted_tasks(n, duration=1.0):
    """``_tasks(n, duration)`` whose closures log each invocation."""
    calls = []
    table = TaskTable(
        task_id=range(n), split=range(n), compute_s=[duration] * n,
        closures=[(lambda i=i: calls.append(i) or [i]) for i in range(n)])
    return table, calls


def test_rescued_straggler_runs_its_closure_once_in_the_original():
    exs = _hetero()
    tasks, calls = _counted_tasks(2)
    stats, _, _ = _run(tasks, exs, schedule=ScheduleConfig(speculation=True))
    assert stats.speculation_wins == 1 and stats.results[1].speculative
    assert sorted(calls) == [0, 1]
    # The winning copy on w0 reused the value w1's straggler computed.
    assert [ex.tasks_executed for ex in exs] == [1, 1]


def test_preempted_task_runs_its_closure_once_in_the_copy():
    exs = [Executor("w0", vcpus=2, task_cpus=2),
           Executor("w1", vcpus=2, task_cpus=2)]
    tasks, calls = _counted_tasks(1, duration=1.2)
    stats, _, _ = _run(tasks, exs, fault_plan=FaultPlan(preempt_at={"w0": 0.5}),
                       schedule=ScheduleConfig(speculation=True))
    assert stats.results[0].speculative
    assert calls == [0]
    # The preempted original never reached its closure; the copy ran it.
    assert [ex.tasks_executed for ex in exs] == [0, 1]


def test_speculation_never_masks_max_failures():
    """An application crash is a failure, not a straggler: with speculation
    on, four crashing executors still exhaust spark.task.maxFailures."""
    exs = [Executor(f"w{i}", vcpus=2, task_cpus=2) for i in range(4)]
    plan = FaultPlan(fail_task_number={f"w{i}": 1 for i in range(4)})
    spec = ScheduleConfig(speculation=True)
    with pytest.raises(JobFailedError):
        _run(_tasks(1), exs, fault_plan=plan, schedule=spec)

