"""Driver + SparkContext: job execution, costs, timelines, fault plans."""

import hashlib

import numpy as np
import pytest

from repro.simtime import Phase
from repro.spark import FaultPlan, ScheduleConfig, SparkCluster, SparkContext
from repro.spark.driver import TaskCostsArrays


@pytest.fixture
def sc():
    return SparkContext(cluster=SparkCluster.for_physical_cores(16, n_workers=2))


def test_run_job_detailed_returns_partitions_and_stats(sc):
    rdd = sc.parallelize(list(range(8)), num_slices=4).map(lambda x: x + 1)
    result = sc.run_job_detailed(rdd)
    assert [x for p in result.partitions for x in p] == list(range(1, 9))
    assert result.stats.tasks == 4
    assert result.makespan_s > 0


def test_costs_for_controls_durations(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=4)
    result = sc.run_job_detailed(
        rdd, costs=TaskCostsArrays.uniform(4, compute_s=2.0, jni_s=0.1)
    )
    assert result.timeline.busy(Phase.COMPUTE) == pytest.approx(8.0)
    assert result.timeline.busy(Phase.JNI_CALL) == pytest.approx(0.4)


def test_input_bytes_measured_from_source_partition(sc):
    arrays = [np.zeros(1000, dtype=np.float32) for _ in range(4)]
    rdd = sc.parallelize(arrays, num_slices=2).map(lambda a: a.sum())
    result = sc.run_job_detailed(rdd)
    scattered = [s for s in result.timeline.spans if s.phase == Phase.INTRA_TRANSFER]
    assert len(scattered) == 2  # one per partition


def test_output_bytes_measured_from_results(sc):
    rdd = sc.parallelize([0, 1], num_slices=2).map(
        lambda i: np.zeros(10_000_000, dtype=np.float64)
    )
    result = sc.run_job_detailed(rdd)
    collects = [s for s in result.timeline.spans if s.phase == Phase.COLLECT]
    assert len(collects) == 2
    assert result.timeline.busy(Phase.COLLECT) > 0.1  # 160 MB over the LAN


def test_broadcast_participates_in_jobs(sc):
    table = sc.broadcast({0: "a", 1: "b"}, nbytes=50_000_000)
    rdd = sc.parallelize([0, 1, 0], num_slices=3).map(lambda k: table.value[k])
    result = sc.run_job_detailed(rdd)
    assert [x for p in result.partitions for x in p] == ["a", "b", "a"]
    assert result.timeline.busy(Phase.BROADCAST) > 0


def test_context_timeline_accumulates_jobs(sc):
    rdd = sc.parallelize([1, 2, 3])
    rdd.collect()
    n1 = len(sc.timeline)
    rdd.collect()
    assert len(sc.timeline) > n1
    assert sc.jobs_run >= 2


def test_fault_plan_from_context():
    sc = SparkContext(
        cluster=SparkCluster.for_physical_cores(32, n_workers=2),
        fault_plan=FaultPlan(fail_task_number={"worker-0": 1}),
    )
    out = sc.parallelize(list(range(10)), num_slices=5).map(lambda x: x * 2).collect()
    assert out == [x * 2 for x in range(10)]


def test_stop_destroys_broadcasts(sc):
    bc = sc.broadcast([1, 2, 3])
    sc.stop()
    assert bc.is_destroyed


def test_modeled_job_returns_empty_partitions(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=2)
    result = sc.run_job_detailed(
        rdd, costs=TaskCostsArrays.uniform(2, compute_s=1.0, input_bytes=0,
                                           output_bytes=0),
        functional=False,
    )
    assert result.partitions == [[], []]
    assert result.makespan_s >= 1.0


def test_clock_is_shared_with_cluster(sc):
    before = sc.clock.now
    sc.parallelize([1]).collect()
    assert sc.clock.now > before
    assert sc.clock is sc.cluster.clock


# ------------------------------------------------- pinned direct-substrate jobs
# Jobs submitted straight to the substrate measure their payload sizes from
# the data (the -1 sentinels of TaskCostsArrays).  The digests below were
# computed at the commit before the driver went TaskTable-only (PR 14) and
# cover the exact span list and result rows, not just thresholds.
def _job_digest(result):
    spans = [(s.phase.value, s.start, s.end, s.resource, s.label)
             for s in result.timeline.spans]
    rows = [(r.task_id, r.split, r.worker_id, r.start, r.end, r.collected_at,
             r.attempts, r.speculative) for r in result.stats.results]
    return hashlib.sha256(repr((spans, rows)).encode()).hexdigest()


def _growing_outputs(sc):
    arrays = [np.zeros(50_000 * (i + 1), dtype=np.float32) for i in range(6)]
    return sc.parallelize(arrays, num_slices=6).map(
        lambda a: np.ones(3 * len(a), dtype=np.float64))


def test_pinned_measured_input_bytes(sc):
    arrays = [np.zeros(1000 * (i + 1), dtype=np.float32) for i in range(6)]
    result = sc.run_job_detailed(
        sc.parallelize(arrays, num_slices=3).map(lambda a: a.sum()))
    assert _job_digest(result) == \
        "955496f3af72d459f7095c9b68571664645072197350e75560654986e14716a7"


def test_pinned_measured_output_bytes(sc):
    result = sc.run_job_detailed(_growing_outputs(sc))
    assert _job_digest(result) == \
        "ef17e0d2003bdf8292af03dfc190d4bc2cfff3fffaf0dc89f0c024f61db38ba1"


def test_pinned_measured_output_bytes_pipelined(sc):
    """The pipelined collect reads a size right after its closure ran."""
    result = sc.driver.run_job(_growing_outputs(sc),
                               schedule=ScheduleConfig(pipeline_depth=1))
    assert _job_digest(result) == \
        "e05277b5a1c8f5e91c068bc3d552184e5076cb217f6c4b0a67866f45757d90c7"


def test_pinned_task_failure_retry():
    sc = SparkContext(
        cluster=SparkCluster.for_physical_cores(32, n_workers=2),
        fault_plan=FaultPlan(fail_task_number={"worker-0": 2}),
    )
    result = sc.run_job_detailed(
        sc.parallelize(list(range(10)), num_slices=5).map(lambda x: x * 2))
    assert [r.attempts for r in result.stats.results] == [1, 2, 1, 1, 1]
    assert _job_digest(result) == \
        "df27f1a150d0f2f4697351bda724356a17c2216ad38501c56524ebc4eeafe561"
