"""Driver + SparkContext: job execution, costs, timelines, fault plans."""

import hashlib

import numpy as np
import pytest

from repro.simtime import Phase
from repro.spark import FaultPlan, SparkCluster, SparkContext

from tests.spark.support import costs, run, sizeof_element


@pytest.fixture
def sc():
    return SparkContext(cluster=SparkCluster.for_physical_cores(16, n_workers=2))


def test_run_job_detailed_returns_partitions_and_stats(sc):
    rdd = sc.parallelize(list(range(8)), num_slices=4).map(lambda x: x + 1)
    result = run(rdd)
    assert [x for p in result.partitions for x in p] == list(range(1, 9))
    assert result.stats.tasks == 4
    assert result.makespan_s > 0


def test_costs_for_controls_durations(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=4)
    result = run(rdd, costs(4, compute_s=2.0, jni_s=0.1))
    assert result.timeline.busy(Phase.COMPUTE) == pytest.approx(8.0)
    assert result.timeline.busy(Phase.JNI_CALL) == pytest.approx(0.4)


def test_input_bytes_measured_from_source_partition(sc):
    """Each task with input bytes scatters once through the driver NIC."""
    arrays = [np.zeros(1000, dtype=np.float32) for _ in range(4)]
    rdd = sc.parallelize(arrays, num_slices=2).map(lambda a: a.sum())
    result = run(rdd, costs(2, input_bytes=2 * arrays[0].nbytes))
    scattered = [s for s in result.timeline.spans if s.phase == Phase.INTRA_TRANSFER]
    assert len(scattered) == 2  # one per partition


def test_output_bytes_measured_from_results(sc):
    rdd = sc.parallelize([0, 1], num_slices=2).map(
        lambda i: np.zeros(10_000_000, dtype=np.float64)
    )
    result = run(rdd, costs(2, output_bytes=80_000_000))
    collects = [s for s in result.timeline.spans if s.phase == Phase.COLLECT]
    assert len(collects) == 2
    assert result.timeline.busy(Phase.COLLECT) > 0.1  # 160 MB over the LAN


def test_broadcast_participates_in_jobs(sc):
    table = sc.broadcast({0: "a", 1: "b"}, nbytes=50_000_000)
    rdd = sc.parallelize([0, 1, 0], num_slices=3).map(lambda k: table.value[k])
    result = run(rdd, broadcasts=(table,))
    assert [x for p in result.partitions for x in p] == ["a", "b", "a"]
    assert result.timeline.busy(Phase.BROADCAST) > 0


def test_fault_plan_from_context():
    sc = SparkContext(cluster=SparkCluster.for_physical_cores(32, n_workers=2))
    rdd = sc.parallelize(list(range(10)), num_slices=5).map(lambda x: x * 2)
    result = run(rdd, fault_plan=FaultPlan(fail_task_number={"worker-0": 1}))
    assert [x for p in result.partitions for x in p] == [x * 2 for x in range(10)]


def test_modeled_job_returns_empty_partitions(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=2)
    result = run(rdd, costs(2, compute_s=1.0), functional=False)
    assert result.partitions == [[], []]
    assert result.makespan_s >= 1.0


def test_clock_is_shared_with_cluster(sc):
    before = sc.clock.now
    run(sc.parallelize([1], num_slices=1))
    assert sc.clock.now > before
    assert sc.clock is sc.cluster.clock


# ------------------------------------------------- pinned direct-substrate jobs
# These jobs were once submitted without costs, the driver measuring every
# payload from the data.  They are now priced explicitly with those measured
# sizes (``sizeof_element`` of the source slice in, of the results out), so
# the digests — computed at the commit before the driver went TaskTable-only
# — still cover the exact span list and result rows, not just thresholds.
def _job_digest(result):
    spans = [(s.phase.value, s.start, s.end, s.resource, s.label)
             for s in result.timeline.spans]
    rows = [(r.task_id, r.split, r.worker_id, r.start, r.end, r.collected_at,
             r.attempts, r.speculative) for r in result.stats.results]
    return hashlib.sha256(repr((spans, rows)).encode()).hexdigest()


def _measured(rdd, source):
    """``rdd``'s costs with the payload sizes the driver used to measure:
    ``source``'s slice in, ``rdd``'s partition out."""
    n = rdd.num_partitions

    def size(part):
        return sum(sizeof_element(x) for x in part)

    return costs(n, input_bytes=[size(source.compute(i)) for i in range(n)],
                 output_bytes=[size(rdd.compute(i)) for i in range(n)])


def _growing_outputs(sc):
    arrays = [np.zeros(50_000 * (i + 1), dtype=np.float32) for i in range(6)]
    source = sc.parallelize(arrays, num_slices=6)
    return source.map(lambda a: np.ones(3 * len(a), dtype=np.float64)), source


def test_pinned_measured_input_bytes(sc):
    arrays = [np.zeros(1000 * (i + 1), dtype=np.float32) for i in range(6)]
    source = sc.parallelize(arrays, num_slices=3)
    rdd = source.map(lambda a: a.sum())
    result = run(rdd, _measured(rdd, source))
    assert _job_digest(result) == \
        "955496f3af72d459f7095c9b68571664645072197350e75560654986e14716a7"


def test_pinned_measured_output_bytes(sc):
    rdd, source = _growing_outputs(sc)
    result = run(rdd, _measured(rdd, source))
    assert _job_digest(result) == \
        "ef17e0d2003bdf8292af03dfc190d4bc2cfff3fffaf0dc89f0c024f61db38ba1"


def test_pinned_task_failure_retry():
    sc = SparkContext(cluster=SparkCluster.for_physical_cores(32, n_workers=2))
    source = sc.parallelize(list(range(10)), num_slices=5)
    rdd = source.map(lambda x: x * 2)
    result = run(rdd, _measured(rdd, source),
                 fault_plan=FaultPlan(fail_task_number={"worker-0": 2}))
    assert [r.attempts for r in result.stats.results] == [1, 2, 1, 1, 1]
    assert _job_digest(result) == \
        "df27f1a150d0f2f4697351bda724356a17c2216ad38501c56524ebc4eeafe561"
