"""Driver internals: explicit task prices, job isolation, collection slicing."""

import numpy as np
import pytest

from repro.simtime import Phase
from repro.spark import SparkCluster, SparkContext
from repro.spark.rdd import ParallelCollectionRDD

from tests.spark.support import costs, run


@pytest.fixture
def sc():
    return SparkContext(cluster=SparkCluster.for_physical_cores(16, n_workers=2))


def test_explicit_costs_override_measurement(sc):
    """The driver charges what the costs say, never the data's size."""
    rdd = sc.parallelize([np.zeros(100_000, dtype=np.float64)], num_slices=1)
    result = run(rdd, costs(1, input_bytes=0, output_bytes=0))
    assert result.timeline.busy(Phase.INTRA_TRANSFER) == 0.0
    assert result.timeline.busy(Phase.COLLECT) == 0.0


def test_measured_output_bytes_drive_collect(sc):
    big = sc.parallelize([0], num_slices=1).map(
        lambda _: np.zeros(50_000_000, dtype=np.uint8)
    )
    result = run(big, costs(1, output_bytes=50_000_000))
    assert result.timeline.busy(Phase.COLLECT) > 0.03  # 50 MB over 1.25 GB/s


def test_costs_must_price_every_partition(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=2)
    with pytest.raises(ValueError, match="3 rows for 2 partitions"):
        sc.driver.run_job(rdd, costs(3))


def test_jobs_get_distinct_task_ids(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=2)
    r1 = run(rdd)
    r2 = run(rdd)
    ids1 = {res.task_id for res in r1.stats.results}
    ids2 = {res.task_id for res in r2.stats.results}
    assert not ids1 & ids2
    assert min(ids1) == 100_000 and min(ids2) == 200_000

    # Jobs past 100 000 tasks push the next job's ids up instead of sharing
    # them (profiles sum tile seconds per task id).
    n = 150_000
    big = sc.parallelize(range(n), num_slices=n)
    r3 = run(big, costs(n), functional=False)
    r4 = run(big, costs(n), functional=False)
    assert r3.stats.results[0].task_id == 300_000
    assert r4.stats.results[0].task_id > r3.stats.results[-1].task_id
    r5 = run(rdd)
    assert r5.stats.results[0].task_id > r4.stats.results[-1].task_id


def test_parallel_collection_slices_match_partitioner(sc):
    data = list(range(11))
    rdd = ParallelCollectionRDD(sc, data, 3)
    sizes = [len(rdd.compute(i)) for i in range(3)]
    assert sizes == [4, 4, 3]
    assert sum(sizes) == 11
