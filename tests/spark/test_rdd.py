"""RDDs: narrow transformations, laziness, lineage, caching — and Spark's
actions as driver-side folds over one job's partitions."""

import functools
import itertools

import pytest

from repro.spark import SparkCluster, SparkContext
from repro.spark.rdd import MappedRDD, ZippedRDD, lineage_depth

from tests.spark.support import collect, run


@pytest.fixture
def sc():
    return SparkContext(cluster=SparkCluster(n_workers=2))


def _reduce(rdd, fn):
    """Spark's two-level reduce: within each partition on the executors,
    then across the partition results on the driver."""
    partials = run(MappedRDD(
        rdd, lambda part: [functools.reduce(fn, part)] if part else [])).partitions
    return functools.reduce(fn, [x for p in partials for x in p])


def test_parallelize_collect_roundtrip(sc):
    data = list(range(100))
    rdd = sc.parallelize(data, num_slices=sc.cluster.total_task_slots)
    assert collect(rdd) == data


def test_parallelize_respects_num_slices(sc):
    rdd = sc.parallelize(list(range(10)), num_slices=3)
    assert rdd.num_partitions == 3
    parts = [rdd.compute(i) for i in range(3)]
    assert [len(p) for p in parts] == [4, 3, 3]
    assert [x for p in parts for x in p] == list(range(10))


def test_parallelize_more_slices_than_elements(sc):
    rdd = sc.parallelize([1, 2], num_slices=5)
    assert collect(rdd) == [1, 2]


def test_map_preserves_order(sc):
    rdd = sc.parallelize(list(range(20)), num_slices=sc.cluster.total_task_slots)
    assert collect(rdd.map(lambda x: x * 3)) == [x * 3 for x in range(20)]


# A narrow transformation maps a whole parent partition: it may drop, expand
# or fold elements and the partitions still come back in split order.
def test_filter(sc):
    rdd = sc.parallelize(list(range(20)), num_slices=4)
    out = collect(MappedRDD(rdd, lambda part: [x for x in part if x % 2 == 0]))
    assert out == list(range(0, 20, 2))


def test_flat_map(sc):
    rdd = sc.parallelize([1, 2, 3], num_slices=2)
    out = collect(MappedRDD(rdd, lambda part: [y for x in part for y in [x] * x]))
    assert out == [1, 2, 2, 3, 3, 3]


def test_map_partitions(sc):
    rdd = sc.parallelize(list(range(10)), num_slices=2)
    out = collect(MappedRDD(rdd, lambda part: [sum(part)]))
    assert out == [sum(range(5)), sum(range(5, 10))]


def test_map_partitions_with_index(sc):
    """Each task's result row names the split it computed."""
    rdd = sc.parallelize(list(range(6)), num_slices=3)
    result = run(MappedRDD(rdd, lambda part: [len(part)]))
    out = [(r.split, r.value[0]) for r in result.stats.results]
    assert out == [(0, 2), (1, 2), (2, 2)]


def test_zip_with_index(sc):
    rdd = sc.parallelize(["a", "b", "c", "d"], num_slices=3)
    index = sc.parallelize(range(4), num_slices=3)
    assert collect(ZippedRDD(rdd, index)) == [("a", 0), ("b", 1), ("c", 2), ("d", 3)]


def test_glom(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=2)
    assert collect(MappedRDD(rdd, lambda part: [list(part)])) == [[0, 1], [2, 3]]


def test_chained_transformations(sc):
    evens = MappedRDD(
        sc.parallelize(list(range(30)), num_slices=4).map(lambda x: x + 1),
        lambda part: [x for x in part if x % 3 == 0])
    out = collect(evens.map(lambda x: -x))
    assert out == [-x for x in range(1, 31) if x % 3 == 0]


def test_count(sc):
    rdd = sc.parallelize(list(range(17)), num_slices=sc.cluster.total_task_slots)
    assert sum(len(p) for p in run(rdd).partitions) == 17


def test_reduce(sc):
    rdd = sc.parallelize(list(range(1, 11)), num_slices=3)
    assert _reduce(rdd, lambda a, b: a + b) == 55


def test_reduce_non_commutative_order(sc):
    # String concat: partition-then-driver order must preserve sequence.
    rdd = sc.parallelize(list("abcdef"), num_slices=3)
    assert _reduce(rdd, lambda a, b: a + b) == "abcdef"


def test_take(sc):
    """Taking a prefix computes only the partitions it reaches."""
    computed = []
    rdd = sc.parallelize(list(range(100)), num_slices=10).map(
        lambda x: computed.append(x) or x)
    parts = (rdd.iterator(i) for i in range(rdd.num_partitions))
    assert list(itertools.islice(itertools.chain.from_iterable(parts), 7)) == \
        list(range(7))
    assert computed == list(range(10))  # the first partition only


def test_laziness_transformations_do_not_execute(sc):
    calls = []
    sc.parallelize([1, 2, 3], num_slices=1).map(lambda x: calls.append(x))
    assert calls == []  # no job, no execution


def test_lineage_recompute_is_deterministic(sc):
    rdd = sc.parallelize(list(range(10)), num_slices=2).map(lambda x: x * x)
    first = rdd.compute(0)
    second = rdd.compute(0)  # recompute from lineage
    assert first == second == [0, 1, 4, 9, 16]


def test_lineage_depth(sc):
    rdd = MappedRDD(sc.parallelize([1], num_slices=1).map(lambda x: x),
                    lambda part: [x for x in part if x]).map(str)
    assert lineage_depth(rdd) == 3


def test_cache_computes_once(sc):
    calls = []

    def trace(x):
        calls.append(x)
        return x

    rdd = sc.parallelize(list(range(4)), num_slices=1).map(trace).cache()
    collect(rdd)
    collect(rdd)
    assert len(calls) == 4  # second job served from cache


def test_unpersist_recomputes(sc):
    calls = []
    rdd = sc.parallelize([1, 2], num_slices=1).map(lambda x: calls.append(x) or x).cache()
    collect(rdd)
    rdd.unpersist()
    collect(rdd)
    assert len(calls) == 4


def test_compute_out_of_range_partition(sc):
    rdd = sc.parallelize([1, 2, 3], num_slices=2)
    with pytest.raises(IndexError):
        rdd.compute(2)


def test_invalid_num_slices(sc):
    with pytest.raises(ValueError):
        sc.parallelize([1], num_slices=0)
