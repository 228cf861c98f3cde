"""An in-process Apache Spark substrate.

The paper executes offloaded loops on Spark 2.1 clusters.  This package
re-implements what OmpCloud's one job shape touches (``parallelize`` the
tiles, ``map`` the loop body, collect on the driver), faithfully enough that
the generated jobs run unmodified:

* lazy :class:`~repro.spark.rdd.RDD` s with lineage and lineage-based
  **fault recovery**;
* :class:`~repro.spark.broadcast.Broadcast` variables with the BitTorrent
  distribution cost model;
* a :class:`~repro.spark.scheduler.TaskScheduler` that serializes task
  launches through the driver and list-schedules onto executor core slots
  (honouring ``spark.task.cpus``, ``spark.cores.max``); every job is one
  columnar :class:`~repro.spark.tasktable.TaskTable`, a row per task, priced
  up front and submitted through ``Driver.run_job``;
* :class:`~repro.spark.executor.Executor` / :class:`~repro.spark.driver.Driver`
  / :class:`~repro.spark.cluster.SparkCluster` wiring, including the JVM's
  2 GiB array-length ceiling the paper runs into.

Everything advances simulated time (:mod:`repro.simtime`); in functional mode
the task closures really execute in-process, so results are bit-exact.
"""

from repro.spark.conf import SparkConf
from repro.spark.rdd import RDD, Partition
from repro.spark.broadcast import Broadcast
from repro.spark.executor import Executor, ExecutorLostError
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
from repro.spark.scheduler import TaskScheduler, TaskResult, TaskTable
from repro.spark.driver import Driver, JobResult
from repro.spark.cluster import SparkCluster
from repro.spark.context import SparkContext
from repro.spark.faults import FaultPlan
from repro.spark.serialization import (
    JVM_MAX_ARRAY_BYTES,
    JavaArrayLimitError,
    check_jvm_array_limit,
)

__all__ = [
    "SparkConf",
    "RDD",
    "Partition",
    "Broadcast",
    "Executor",
    "ExecutorLostError",
    "ScheduleConfig",
    "STATIC_SCHEDULE",
    "TaskScheduler",
    "TaskResult",
    "TaskTable",
    "Driver",
    "JobResult",
    "SparkCluster",
    "SparkContext",
    "FaultPlan",
    "JVM_MAX_ARRAY_BYTES",
    "JavaArrayLimitError",
    "check_jvm_array_limit",
]
