"""Driver internals: payload measurement, cost overrides, job isolation."""

import numpy as np
import pytest

from repro.simtime import Phase, coarse_timelines
from repro.spark import SparkCluster, SparkContext
from repro.spark.driver import Driver, TaskCostsArrays
from repro.spark.rdd import MappedRDD, ParallelCollectionRDD


@pytest.fixture
def sc():
    return SparkContext(cluster=SparkCluster.for_physical_cores(16, n_workers=2))


def test_input_bytes_follow_lineage_to_the_source(sc):
    """What moves driver->executor is the *source* slice; narrow transforms
    recompute on the worker, they do not inflate the payload."""
    arrays = [np.zeros(1000, dtype=np.float32) for _ in range(4)]
    rdd = (sc.parallelize(arrays, num_slices=4)
           .map(lambda a: a + 1)
           .map(lambda a: a * 2))
    measured = Driver._measure_input_bytes(rdd, 0)
    assert measured == 4000  # one float32[1000] slice, not three


def test_input_bytes_zero_for_non_collection_roots(sc):
    rdd = sc.parallelize([1, 2], num_slices=2)
    # Chop the lineage: a raw RDD subclass without a ParallelCollection root.
    class Rootless(MappedRDD):
        pass

    node = Rootless(rdd, lambda it: it)
    node.parent = object()  # not a ParallelCollectionRDD
    assert Driver._measure_input_bytes(node, 0) == 0


def test_explicit_costs_override_measurement(sc):
    rdd = sc.parallelize([np.zeros(100_000, dtype=np.float64)], num_slices=1)
    result = sc.run_job_detailed(
        rdd, costs=TaskCostsArrays.uniform(1, input_bytes=0, output_bytes=0)
    )
    assert result.timeline.busy(Phase.INTRA_TRANSFER) == 0.0
    assert result.timeline.busy(Phase.COLLECT) == 0.0


def test_measured_output_bytes_drive_collect(sc):
    big = sc.parallelize([0], num_slices=1).map(
        lambda _: np.zeros(50_000_000, dtype=np.uint8)
    )
    result = sc.run_job_detailed(big)
    assert result.timeline.busy(Phase.COLLECT) > 0.03  # 50 MB over 1.25 GB/s


def test_jobs_get_distinct_task_ids(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=2)
    r1 = sc.run_job_detailed(rdd)
    r2 = sc.run_job_detailed(rdd)
    ids1 = {res.task_id for res in r1.stats.results}
    ids2 = {res.task_id for res in r2.stats.results}
    assert not ids1 & ids2
    assert min(ids1) == 100_000 and min(ids2) == 200_000

    # Jobs past 100 000 tasks push the next job's ids up instead of sharing
    # them (profiles sum tile seconds per task id).
    n = 150_000
    big = sc.parallelize(range(n), num_slices=n)
    costs = TaskCostsArrays.uniform(n, input_bytes=0, output_bytes=0)
    with coarse_timelines():
        r3 = sc.run_job_detailed(big, costs=costs, functional=False)
        r4 = sc.run_job_detailed(big, costs=costs, functional=False)
    assert r3.stats.results[0].task_id == 300_000
    assert r4.stats.results[0].task_id > r3.stats.results[-1].task_id
    r5 = sc.run_job_detailed(rdd)
    assert r5.stats.results[0].task_id > r4.stats.results[-1].task_id


def test_task_costs_defaults_measure():
    costs = TaskCostsArrays.uniform(2)
    assert costs.input_bytes.tolist() == [-1, -1]  # sentinel: measure from data
    assert costs.output_bytes.tolist() == [-1, -1]
    assert costs.compute_s.tolist() == [0.0, 0.0]


def test_parallel_collection_slices_match_partitioner(sc):
    data = list(range(11))
    rdd = ParallelCollectionRDD(sc, data, 3)
    sizes = [len(rdd.compute(i)) for i in range(3)]
    assert sizes == [4, 4, 3]
    assert sum(sizes) == 11
