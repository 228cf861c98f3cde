"""Executors, broadcast variables, the staged byte format, JVM limits."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.buffers import Buffer
from repro.spark import SparkCluster, SparkContext
from repro.spark.broadcast import Broadcast
from repro.spark.executor import Executor, ExecutorLostError
from repro.spark.serialization import (
    JVM_MAX_ARRAY_BYTES,
    JavaArrayLimitError,
    check_jvm_array_limit,
)

from tests.spark.support import sizeof_element


# ------------------------------------------------------------------ Executor
def test_task_slots_from_task_cpus():
    assert Executor("w", vcpus=32, task_cpus=2).task_slots == 16
    assert Executor("w", vcpus=32, task_cpus=1).task_slots == 32
    assert Executor("w", vcpus=32, task_cpus=5).task_slots == 6


def test_physical_cores_assume_hyperthreading():
    assert Executor("w", vcpus=32, task_cpus=2).physical_cores == 16


def test_executor_validation():
    with pytest.raises(ValueError):
        Executor("w", vcpus=0)
    with pytest.raises(ValueError):
        Executor("w", vcpus=4, task_cpus=0)
    with pytest.raises(ValueError):
        Executor("w", vcpus=2, task_cpus=4)


def test_run_closure_counts_tasks():
    ex = Executor("w", vcpus=2)
    assert ex.run_closure(lambda: 42) == 42
    assert ex.tasks_executed == 1


def test_dead_executor_refuses_work():
    ex = Executor("w", vcpus=2)
    ex.mark_dead()
    with pytest.raises(ExecutorLostError):
        ex.run_closure(lambda: 1)
    with pytest.raises(ExecutorLostError):
        ex.reserve(0.0, 1.0)
    assert ex.pool.slots[0].free_at == float("inf")


# ----------------------------------------------------------------- Broadcast
def test_broadcast_value_access():
    bc = Broadcast([1, 2, 3], nbytes=24)
    assert bc.value == [1, 2, 3]
    assert bc.nbytes == 24


def test_broadcast_destroy_releases():
    """Dropping the last handle releases a broadcast: the context that made
    it keeps no reference."""
    sc = SparkContext(cluster=SparkCluster(n_workers=1))
    bc = sc.broadcast(np.zeros(4), nbytes=32)
    released = weakref.ref(bc)
    del bc
    gc.collect()
    assert released() is None


def test_broadcast_ids_unique():
    assert Broadcast(1, 1).id != Broadcast(1, 1).id


def test_broadcast_negative_size_rejected():
    with pytest.raises(ValueError):
        Broadcast("x", nbytes=-1)


# ------------------------------------------------------- staged byte format
def test_array_bytes_roundtrip():
    """A mapped array travels as the raw bytes of its buffer view."""
    arr = np.arange(12, dtype=np.float32)
    back = np.frombuffer(Buffer("A", arr).payload_view(), dtype=np.float32)
    assert np.array_equal(arr, back)


def test_array_bytes_with_shape():
    """A shaped array is mapped linearized; its staged bytes reshape back."""
    arr = np.arange(6, dtype=np.int32).reshape(2, 3)
    with pytest.raises(ValueError, match="linearized"):
        Buffer("A", arr)
    flat = np.frombuffer(Buffer("A", arr.ravel()).payload_view(), dtype=np.int32)
    assert np.array_equal(flat.reshape(2, 3), arr)


# ------------------------------------------------- the old measurement rule
def test_sizeof_ndarray_is_nbytes():
    arr = np.zeros(100, dtype=np.float64)
    assert sizeof_element(arr) == 800


def test_sizeof_tuple_sums_members():
    arr = np.zeros(10, dtype=np.float32)
    assert sizeof_element((1, arr)) == 8 + 40


def test_sizeof_bytes():
    assert sizeof_element(b"12345") == 5


def test_jvm_limit_value():
    assert JVM_MAX_ARRAY_BYTES == 2**31 - 16


def test_jvm_limit_enforced():
    check_jvm_array_limit(JVM_MAX_ARRAY_BYTES)  # exactly at the cap: fine
    with pytest.raises(JavaArrayLimitError, match="paper"):
        check_jvm_array_limit(JVM_MAX_ARRAY_BYTES + 1, what="matrix A")
