"""Property tests on the Spark substrate and the offload pipeline.

The flagship property: for a random DOALL kernel over random data, cloud
offloading produces the same result as local execution — for any cluster
size, any partition count, and with a worker failure injected.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.credentials import Credentials
from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.config import CloudConfig
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.spark import FaultPlan, SparkCluster, SparkContext
from repro.spark.rdd import MappedRDD

from tests.spark.support import collect, run

# ------------------------------------------------------------------ RDD laws
elements = st.lists(st.integers(min_value=-1000, max_value=1000), max_size=200)
slice_counts = st.integers(min_value=1, max_value=16)


def _sc(workers=2):
    return SparkContext(cluster=SparkCluster(n_workers=workers))


def _per_partition(rdd, fn):
    """``fn`` of every partition, from one job, in split order."""
    return [x for part in run(MappedRDD(rdd, lambda p: [fn(p)])).partitions
            for x in part]


@given(data=elements, slices=slice_counts)
@settings(max_examples=60, deadline=None)
def test_collect_is_identity(data, slices):
    sc = _sc()
    assert collect(sc.parallelize(data, num_slices=slices)) == data


@given(data=elements, slices=slice_counts)
@settings(max_examples=60, deadline=None)
def test_map_fusion_law(data, slices):
    """rdd.map(f).map(g) == rdd.map(g . f)"""
    sc = _sc()
    f = lambda x: x * 2
    g = lambda x: x - 3
    fused = collect(sc.parallelize(data, num_slices=slices).map(lambda x: g(f(x))))
    chained = collect(sc.parallelize(data, num_slices=slices).map(f).map(g))
    assert fused == chained


@given(data=elements, slices=slice_counts)
@settings(max_examples=60, deadline=None)
def test_count_invariant_under_partitioning(data, slices):
    sc = _sc()
    assert sum(_per_partition(sc.parallelize(data, num_slices=slices), len)) == len(data)


@given(data=st.lists(st.integers(min_value=-10**6, max_value=10**6),
                     min_size=1, max_size=200),
       slices=slice_counts)
@settings(max_examples=60, deadline=None)
def test_reduce_sum_invariant_under_partitioning(data, slices):
    sc = _sc()
    assert sum(_per_partition(sc.parallelize(data, num_slices=slices), sum)) == sum(data)


@given(data=elements, slices=slice_counts)
@settings(max_examples=40, deadline=None)
def test_filter_then_count(data, slices):
    sc = _sc()
    positive = MappedRDD(sc.parallelize(data, num_slices=slices),
                         lambda part: [x for x in part if x > 0])
    assert sum(_per_partition(positive, len)) == len([x for x in data if x > 0])


# ------------------------------------------------------- offload equivalence
def _affine_region():
    def body(lo, hi, arrays, scalars):
        a = np.asarray(arrays["A"][lo:hi])
        arrays["C"][lo:hi] = scalars["k"] * a + scalars["b"]

    return TargetRegion(
        name="affine",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N]) map(from: C[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i:i+1]) map(from: C[i:i+1])",
            body=body,
        )],
    )


def _runtime(cores: int, fault: FaultPlan | None = None) -> OffloadRuntime:
    creds = Credentials(provider="ec2", username="u",
                        access_key_id="AKIA" + "F" * 12, secret_key="s")
    cfg = CloudConfig(credentials=creds, n_workers=4, min_compress_size=128)
    rt = OffloadRuntime()
    rt.register(CloudDevice(cfg, physical_cores=cores,
                            fault_plan=fault or FaultPlan()))
    return rt


@given(
    n=st.integers(min_value=1, max_value=200),
    cores=st.sampled_from([1, 2, 8, 16, 64]),
    k=st.floats(min_value=-5, max_value=5, allow_nan=False),
    b=st.floats(min_value=-5, max_value=5, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_offload_equals_local_for_any_shape(n, cores, k, b, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10, 10, n).astype(np.float32)
    c = np.zeros(n, dtype=np.float32)
    scalars = {"N": n, "k": np.float32(k), "b": np.float32(b)}
    offload(_affine_region(), arrays={"A": a, "C": c}, scalars=scalars,
            runtime=_runtime(cores))
    expected = (np.float32(k) * a + np.float32(b)).astype(np.float32)
    assert np.array_equal(c, expected)


@given(
    n=st.integers(min_value=8, max_value=120),
    fail_task=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_offload_survives_worker_failure(n, fail_task, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10, 10, n).astype(np.float32)
    c = np.zeros(n, dtype=np.float32)
    fault = FaultPlan(fail_task_number={"worker-0": fail_task})
    offload(_affine_region(), arrays={"A": a, "C": c},
            scalars={"N": n, "k": np.float32(2), "b": np.float32(1)},
            runtime=_runtime(64, fault))
    assert np.array_equal(c, (np.float32(2) * a + np.float32(1)).astype(np.float32))
