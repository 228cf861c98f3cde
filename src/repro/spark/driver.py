"""The Spark driver.

"The driver is in charge of communication with the outside world (i.e. host
computer), resource allocation and task scheduling."  Here it turns an RDD
action into a task set, runs it through the :class:`TaskScheduler`, and hands
back per-partition results plus the job's timeline and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.obs.events import JobEnd, JobStart, get_bus
from repro.simtime.timeline import Timeline
from repro.spark.broadcast import Broadcast
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.rdd import RDD, MappedRDD, ParallelCollectionRDD
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
from repro.spark.scheduler import (
    JobStats,
    SchedulerCosts,
    TaskScheduler,
    TaskTable,
)
from repro.spark.serialization import sizeof_element

if TYPE_CHECKING:
    from repro.spark.cluster import SparkCluster


@dataclass
class TaskCostsArrays:
    """Per-task simulated durations and payload sizes for a whole job, one
    array element per partition.

    The OmpCloud codegen computes every tile's costs in one numpy pass and
    the driver turns them straight into :class:`TaskTable` columns.  A
    negative byte count means "not known in advance": a functional job
    measures it from the partition data (input) or the closure's result
    (output); a modeled job has nothing to measure and charges 0.
    """

    compute_s: np.ndarray
    jni_s: np.ndarray
    decompress_s: np.ndarray
    compress_s: np.ndarray
    input_bytes: np.ndarray
    output_bytes: np.ndarray

    @classmethod
    def uniform(cls, n: int, *, compute_s: float = 0.0, jni_s: float = 0.0,
                decompress_s: float = 0.0, compress_s: float = 0.0,
                input_bytes: int = -1, output_bytes: int = -1) -> "TaskCostsArrays":
        """``n`` identical rows; the default is what a job submitted without
        costs gets — zero durations, every payload size measured."""
        return cls(*(np.full(n, v) for v in (
            compute_s, jni_s, decompress_s, compress_s,
            input_bytes, output_bytes)))

    def __len__(self) -> int:
        return len(self.compute_s)


@dataclass
class JobResult:
    """Everything a job produced."""

    partitions: list[list[Any]]
    stats: JobStats
    timeline: Timeline = field(default_factory=Timeline)

    @property
    def makespan_s(self) -> float:
        return self.stats.makespan_s


PartitionPost = Callable[[list[Any]], list[Any]]

#: What a task that ran no closure contributes to ``JobResult.partitions``.
#: Shared by every such partition of every job, so it must never be mutated.
_NO_VALUE: list[Any] = []


class Driver:
    """Driver-node logic shared by functional and modeled jobs."""

    def __init__(self, cluster: "SparkCluster", costs: SchedulerCosts | None = None) -> None:
        self.cluster = cluster
        self.scheduler = TaskScheduler(costs)
        self._job_seq = 0
        self._next_task_id = 0

    def run_job(
        self,
        rdd: RDD,
        partition_post: PartitionPost | None = None,
        costs: TaskCostsArrays | None = None,
        broadcasts: Sequence[Broadcast] = (),
        fault_plan: FaultPlan = NO_FAULTS,
        functional: bool = True,
        schedule: ScheduleConfig = STATIC_SCHEDULE,
        stage: str = "",
    ) -> JobResult:
        """Execute ``rdd`` (optionally post-processing each partition) as one
        columnar :class:`TaskTable`, one row per partition.

        In functional mode the closures really run, and the payload sizes
        ``costs`` leaves negative are measured from the data.  ``stage``
        labels every task's timeline spans with the loop it tiles (fused
        offloads submit one stage per member loop).
        """
        self._job_seq += 1
        timeline = Timeline()
        n = rdd.num_partitions
        if costs is None:
            costs = TaskCostsArrays.uniform(n)
        elif len(costs) != n:
            raise ValueError(f"costs has {len(costs)} rows for {n} partitions")
        # Job k numbers its tasks from k * 100_000; a job past 100_000 tasks
        # pushes the next one up instead of sharing ids with it.
        base = max(self._job_seq * 100_000, self._next_task_id)
        self._next_task_id = base + n
        splits = np.arange(n, dtype=np.int64)
        in_bytes = np.array(costs.input_bytes, dtype=np.int64)
        out_bytes = np.array(costs.output_bytes, dtype=np.int64)
        closures = None
        if functional:
            for split in np.flatnonzero(in_bytes < 0).tolist():
                in_bytes[split] = self._measure_input_bytes(rdd, split)
            # The table adopts ``out_bytes`` as its column, so a measuring
            # closure's write is what the scheduler's collect path reads.
            closures = [
                self._make_closure(rdd, split, partition_post,
                                   out_bytes if unknown else None)
                for split, unknown in enumerate((out_bytes < 0).tolist())]
        np.maximum(in_bytes, 0, out=in_bytes)
        np.maximum(out_bytes, 0, out=out_bytes)
        table = TaskTable(
            task_id=base + splits,
            split=splits,
            compute_s=costs.compute_s,
            jni_s=costs.jni_s,
            decompress_s=costs.decompress_s,
            compress_s=costs.compress_s,
            input_bytes=in_bytes,
            output_bytes=out_bytes,
            stage=stage,
            closures=closures,
        )

        bus = get_bus()
        bus.emit(JobStart(time=self.cluster.clock.now, resource="driver",
                          job_id=self._job_seq, tasks=n))
        stats = self.scheduler.run_job(
            table,
            executors=self.cluster.executors,
            network=self.cluster.network,
            clock=self.cluster.clock,
            timeline=timeline,
            broadcasts=broadcasts,
            fault_plan=fault_plan,
            functional=functional,
            schedule=schedule,
        )
        bus.emit(JobEnd(time=self.cluster.clock.now, resource="driver",
                        job_id=self._job_seq, makespan_s=stats.makespan_s,
                        tasks_recomputed=stats.recomputed_tasks))
        partitions = [_NO_VALUE if v is None else v
                      for v in stats.results.values()]
        return JobResult(partitions=partitions, stats=stats, timeline=timeline)

    # ------------------------------------------------------------- internals
    @staticmethod
    def _make_closure(
        rdd: RDD,
        split: int,
        partition_post: PartitionPost | None,
        measured: np.ndarray | None,
    ) -> Callable[[], list[Any]]:
        """The task body for one partition; when ``measured`` is given, the
        result's wire size is written to ``measured[split]``."""

        def closure() -> list[Any]:
            data = rdd.iterator(split)
            if partition_post is not None:
                data = partition_post(data)
            if measured is not None:
                measured[split] = sum(sizeof_element(x) for x in data)
            return data

        return closure

    @staticmethod
    def _measure_input_bytes(rdd: RDD, split: int) -> int:
        """Bytes that must move driver -> executor for this partition: the
        source collection's slice (narrow transformations recompute the rest
        on the worker)."""
        node = rdd
        while isinstance(node, MappedRDD):
            node = node.parent
        if isinstance(node, ParallelCollectionRDD):
            return sum(sizeof_element(x) for x in node.compute(split))
        return 0
