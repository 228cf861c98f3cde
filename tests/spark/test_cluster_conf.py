"""SparkConf parsing and cluster core-granting (spark.cores.max)."""

import pytest

from repro.spark import SparkCluster, SparkConf
from repro.spark.cluster import WorkerShape


# ------------------------------------------------------------------ SparkConf
def test_defaults():
    conf = SparkConf()
    assert conf.task_cpus == 1
    assert conf.cores_max == 0
    assert conf.executor_memory_bytes == 40 * 1024**3


def test_set_and_get_roundtrip():
    conf = SparkConf().set("spark.task.cpus", 2).set("spark.custom.key", "v")
    assert conf.task_cpus == 2
    assert conf.get("spark.custom.key") == "v"


def test_non_spark_keys_rejected():
    with pytest.raises(ValueError):
        SparkConf().set("mapreduce.job.maps", 4)


def test_get_missing_key_raises_without_default():
    with pytest.raises(KeyError):
        SparkConf().get("spark.never.set")
    assert SparkConf().get("spark.never.set", "fallback") == "fallback"


def test_jvm_size_suffixes():
    conf = SparkConf().set("spark.executor.memory", "40g")
    assert conf.executor_memory_bytes == 40 * 1024**3
    conf.set("spark.executor.memory", "512m")
    assert conf.executor_memory_bytes == 512 * 1024**2
    conf.set("spark.executor.memory", "1024")
    assert conf.executor_memory_bytes == 1024


def test_invalid_interpreted_values():
    conf = SparkConf().set("spark.task.cpus", 0)
    with pytest.raises(ValueError):
        _ = conf.task_cpus
    conf2 = SparkConf().set("spark.cores.max", -1)
    with pytest.raises(ValueError):
        _ = conf2.cores_max


def test_copy_is_independent():
    a = SparkConf().set("spark.task.cpus", 2)
    b = a.copy().set("spark.task.cpus", 4)
    assert a.task_cpus == 2 and b.task_cpus == 4


def test_items_sorted():
    keys = [k for k, _ in SparkConf().items()]
    assert keys == sorted(keys)


# --------------------------------------------------------------- SparkCluster
def test_paper_cluster_shape():
    cluster = SparkCluster.for_physical_cores(256, n_workers=16)
    assert cluster.total_task_slots == 256
    assert cluster.total_physical_cores == 256
    assert cluster.active_worker_nodes == 16
    assert all(ex.task_slots == 16 for ex in cluster.executors)


def test_small_core_counts_fill_one_worker():
    # The paper runs 8 and 16 cores on "one worker node".
    for cores in (8, 16):
        cluster = SparkCluster.for_physical_cores(cores, n_workers=16)
        assert cluster.active_worker_nodes == 1
        assert cluster.total_task_slots == cores


def test_cores_fill_workers_greedily():
    cluster = SparkCluster.for_physical_cores(48, n_workers=16)
    assert cluster.active_worker_nodes == 3
    assert [ex.vcpus for ex in cluster.executors] == [32, 32, 32]


def test_unlimited_cores_uses_all_workers():
    cluster = SparkCluster(n_workers=4)
    assert cluster.active_worker_nodes == 4
    assert [ex.vcpus for ex in cluster.executors] == [32] * 4


# A generated job's parallelism is Algorithm 1's C: one tile per task slot.
def test_default_parallelism_follows_conf():
    cluster = SparkCluster.for_physical_cores(64, n_workers=16)
    assert cluster.total_task_slots == 64


def test_default_parallelism_falls_back_to_slots():
    # No spark.cores.max: every vCPU of every worker is a slot (task.cpus=1).
    cluster = SparkCluster(n_workers=2)
    assert cluster.total_task_slots == 2 * 32


def test_custom_worker_shape():
    cluster = SparkCluster(n_workers=2, shape=WorkerShape(vcpus=8))
    assert cluster.total_physical_cores == 8


def test_impossible_grant_rejected():
    conf = SparkConf().set("spark.task.cpus", 4).set("spark.cores.max", 2)
    with pytest.raises(ValueError):
        SparkCluster(n_workers=1, conf=conf)


def test_no_workers_rejected():
    with pytest.raises(ValueError):
        SparkCluster(n_workers=0)


def test_reset_pools_frees_slots():
    cluster = SparkCluster.for_physical_cores(8, n_workers=1)
    cluster.executors[0].pool.acquire(0.0, 100.0)
    cluster.clock.advance(5.0)
    cluster.reset_pools()
    r = cluster.executors[0].pool.acquire(0.0, 1.0)
    assert r.start == pytest.approx(5.0)
