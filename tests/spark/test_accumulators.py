"""Exactly-once task side effects, counted without accumulators.

The scheduler runs a task's closure once per task: an attempt lost to a
dead worker or an injected crash never reaches the closure, so what a
closure records is seen exactly once per element.
"""

from repro.spark import FaultPlan, SparkCluster, SparkContext
from repro.spark.executor import Executor
from repro.spark.rdd import MappedRDD

from tests.spark.support import run


def test_executor_commits_on_success():
    hits = []
    ex = Executor("w", vcpus=2)
    assert ex.run_closure(lambda: hits.append(4) or "done") == "done"
    assert hits == [4]
    assert ex.tasks_executed == 1


def test_accumulator_counts_records_across_job():
    sc = SparkContext(cluster=SparkCluster(n_workers=2))
    seen = []

    def tag(x):
        seen.append(x)
        return x

    result = run(sc.parallelize(list(range(40)), num_slices=8).map(tag))
    assert [x for p in result.partitions for x in p] == list(range(40))
    assert seen == list(range(40))


def test_failed_task_contributes_exactly_once():
    """The crashed attempt never ran its closure; the successful
    re-execution ran it once."""
    sc = SparkContext(cluster=SparkCluster.for_physical_cores(32, n_workers=2))
    counted = []

    def tag(x):
        counted.append(x)
        return x

    result = run(sc.parallelize(list(range(30)), num_slices=6).map(tag),
                 fault_plan=FaultPlan(fail_task_number={"worker-0": 1}))
    assert [x for p in result.partitions for x in p] == list(range(30))
    assert result.stats.recomputed_tasks == 1
    assert sorted(counted) == list(range(30))  # not 30 + the lost attempt


def test_accumulator_through_reduce():
    sc = SparkContext(cluster=SparkCluster(n_workers=2))
    calls = []
    rdd = sc.parallelize(list(range(10)), num_slices=3).map(
        lambda x: (calls.append(x), x)[1])
    partials = run(MappedRDD(rdd, lambda part: [sum(part)])).partitions
    assert sum(x for p in partials for x in p) == 45
    assert len(calls) == 10
