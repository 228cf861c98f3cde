"""Union and zip lineage, and keyed aggregation as a two-stage job: a
map-side combine per partition on the executors, the merge on the driver."""

import pytest

from repro.spark import SparkCluster, SparkContext
from repro.spark.rdd import MappedRDD, UnionRDD, ZippedRDD

from tests.spark.support import collect, run


@pytest.fixture
def sc():
    return SparkContext(cluster=SparkCluster(n_workers=2))


def _reduce_by_key(rdd, fn):
    """Combine values per key: within each partition on the executors, then
    across the partition results on the driver.  Keys keep first-seen
    order."""

    def combine(pairs):
        acc = {}
        for k, v in pairs:
            acc[k] = fn(acc[k], v) if k in acc else v
        return list(acc.items())

    return combine([kv for part in run(MappedRDD(rdd, combine)).partitions
                    for kv in part])


# --------------------------------------------------------------------- union
def test_union_concatenates(sc):
    a = sc.parallelize([1, 2, 3], num_slices=2)
    b = sc.parallelize([4, 5], num_slices=2)
    u = UnionRDD(a, b)
    assert u.num_partitions == 4
    assert collect(u) == [1, 2, 3, 4, 5]


def test_union_is_lazy_and_transformable(sc):
    a = sc.parallelize([1, 2], num_slices=1)
    b = sc.parallelize([3], num_slices=1)
    assert collect(UnionRDD(a, b).map(lambda x: x * 10)) == [10, 20, 30]


def test_union_with_self(sc):
    a = sc.parallelize([1, 2], num_slices=1)
    assert collect(UnionRDD(a, a)) == [1, 2, 1, 2]


# ----------------------------------------------------------------------- zip
def test_zip_pairs_elements(sc):
    a = sc.parallelize([1, 2, 3, 4], num_slices=2)
    b = sc.parallelize(list("abcd"), num_slices=2)
    assert collect(ZippedRDD(a, b)) == [(1, "a"), (2, "b"), (3, "c"), (4, "d")]


def test_zip_requires_same_partition_count(sc):
    a = sc.parallelize([1, 2], num_slices=1)
    b = sc.parallelize([1, 2], num_slices=2)
    with pytest.raises(ValueError, match="same number of partitions"):
        ZippedRDD(a, b)


def test_zip_requires_same_partition_sizes(sc):
    a = sc.parallelize([1, 2, 3], num_slices=2)
    b = sc.parallelize([1, 2], num_slices=2)
    z = ZippedRDD(a, b)
    with pytest.raises(ValueError, match="elements"):
        collect(z)


# --------------------------------------------------------------- keyed pairs
def test_key_by_and_map_values(sc):
    rdd = sc.parallelize(["apple", "avocado", "banana"], num_slices=2)
    keyed = rdd.map(lambda s: (s[0], s)).map(lambda kv: (kv[0], len(kv[1])))
    assert collect(keyed) == [("a", 5), ("a", 7), ("b", 6)]


def test_reduce_by_key(sc):
    pairs = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)]
    rdd = sc.parallelize(pairs, num_slices=3)
    out = dict(_reduce_by_key(rdd, lambda x, y: x + y))
    assert out == {"a": 4, "b": 7, "c": 4}


def test_reduce_by_key_single_occurrences(sc):
    rdd = sc.parallelize([("x", 1), ("y", 2)], num_slices=2)
    assert dict(_reduce_by_key(rdd, lambda a, b: a + b)) == {"x": 1, "y": 2}


def test_reduce_by_key_result_is_an_rdd(sc):
    """The merged pairs parallelize again into the next job."""
    rdd = sc.parallelize([("k", i) for i in range(10)], num_slices=4)
    reduced = sc.parallelize(_reduce_by_key(rdd, lambda a, b: a + b), num_slices=1)
    assert collect(reduced.map(lambda kv: kv[1] * 2)) == [90]


def test_word_count_pipeline(sc):
    """The canonical Spark program, end to end on the substrate."""
    text = ["the quick brown fox", "the lazy dog", "the fox"]
    words = MappedRDD(sc.parallelize(text, num_slices=2),
                      lambda lines: [w for line in lines for w in line.split()])
    counts = dict(_reduce_by_key(words.map(lambda w: (w, 1)), lambda a, b: a + b))
    assert counts == {"the": 3, "quick": 1, "brown": 1, "fox": 2, "lazy": 1, "dog": 1}


def test_collect_as_map(sc):
    rdd = sc.parallelize([("a", 1), ("b", 2)], num_slices=1)
    assert dict(collect(rdd)) == {"a": 1, "b": 2}
