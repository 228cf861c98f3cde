"""Property tests on the network model and the task scheduler.

Conservation laws and monotonicity the cost models must obey for the figure
shapes to be trustworthy: transfers never finish before the data could
physically move; parallel never loses to serial; adding work or losing
resources never shortens a schedule.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cloud.network import Link
from repro.simtime import SimClock, Timeline
from repro.cloud.network import NetworkModel
from repro.spark.executor import Executor
from repro.spark.scheduler import SchedulerCosts, TaskScheduler, TaskTable

links = st.builds(
    Link,
    capacity_bps=st.floats(min_value=1.0, max_value=1e9),
    latency_s=st.floats(min_value=0.0, max_value=1.0),
    stream_cap_bps=st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e9)),
)
size_lists = st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8)


@given(link=links, sizes=size_lists)
@settings(max_examples=150)
def test_parallel_never_slower_than_serial(link, sizes):
    assume(any(sizes))
    assert link.parallel_transfer_time(sizes) <= link.serial_transfer_time(sizes) + 1e-6


@given(link=links, sizes=size_lists)
@settings(max_examples=150)
def test_transfers_respect_capacity(link, sizes):
    """Nothing moves faster than the physical path: parallel time >= bytes /
    capacity (conservation)."""
    total = sum(sizes)
    assume(total > 0)
    lower_bound = total / link.capacity_bps
    assert link.parallel_transfer_time(sizes) >= lower_bound * (1 - 1e-9) - 1e-9


@given(link=links, n=st.integers(min_value=1, max_value=100),
       extra=st.integers(min_value=0, max_value=10**8))
@settings(max_examples=100)
def test_more_bytes_never_faster(link, n, extra):
    assert link.transfer_time(n + extra) >= link.transfer_time(n) - 1e-12


@given(
    nbytes=st.integers(min_value=1, max_value=10**9),
    nodes_a=st.integers(min_value=1, max_value=64),
    nodes_b=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100)
def test_broadcast_monotone_in_node_count(nbytes, nodes_a, nodes_b):
    net = NetworkModel(
        wan=Link(capacity_bps=1e6, latency_s=0.01),
        lan=Link(capacity_bps=1e9, latency_s=0.001),
    )
    lo, hi = sorted((nodes_a, nodes_b))
    assert net.broadcast_time(nbytes, lo) <= net.broadcast_time(nbytes, hi) + 1e-9


# ------------------------------------------------------------------ scheduler
def _run(durations, slots_per_exec, n_execs, launch_s=0.0):
    n = len(durations)
    tasks = TaskTable(task_id=range(n), split=range(n), compute_s=durations,
                      closures=[lambda: []] * n)
    execs = [Executor(f"w{i}", vcpus=2 * slots_per_exec, task_cpus=2)
             for i in range(n_execs)]
    net = NetworkModel(wan=Link(capacity_bps=1e6, latency_s=0.0),
                       lan=Link(capacity_bps=1e12, latency_s=0.0))
    sched = TaskScheduler(SchedulerCosts(task_launch_s=launch_s))
    stats = sched.run_job(tasks, execs, net, SimClock(), Timeline())
    return stats


durations = st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30)


@given(ds=durations, slots=st.integers(min_value=1, max_value=8),
       n=st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_makespan_bounds(ds, slots, n):
    """List scheduling: max(mean load, longest task) <= makespan <= ideal*2
    (Graham's bound) and never below the critical path."""
    stats = _run(ds, slots, n)
    total_slots = slots * n
    lower = max(sum(ds) / total_slots, max(ds))
    upper = sum(ds) / total_slots + max(ds)  # Graham: (2 - 1/m) * OPT
    assert stats.makespan_s >= lower - 1e-9
    assert stats.makespan_s <= upper + 1e-9


@given(ds=durations, slots=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_more_executors_never_hurt(ds, slots):
    small = _run(ds, slots, 1)
    big = _run(ds, slots, 4)
    assert big.makespan_s <= small.makespan_s + 1e-9


@given(ds=durations, launch=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_launch_overhead_only_adds_time(ds, launch):
    free = _run(ds, 4, 2, launch_s=0.0)
    taxed = _run(ds, 4, 2, launch_s=launch)
    assert taxed.makespan_s >= free.makespan_s - 1e-9
    assert taxed.makespan_s <= free.makespan_s + launch * len(ds) + max(ds or [0]) + 1e-6


@given(ds=durations)
@settings(max_examples=60, deadline=None)
def test_all_tasks_complete_exactly_once(ds):
    stats = _run(ds, 2, 2)
    assert stats.tasks == len(ds)
    assert len(stats.results) == len(ds)
    assert sorted(r.split for r in stats.results) == list(range(len(ds)))
