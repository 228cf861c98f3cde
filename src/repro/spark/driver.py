"""The Spark driver.

"The driver is in charge of communication with the outside world (i.e. host
computer), resource allocation and task scheduling."  Here it turns an RDD
action into a task set, runs it through the :class:`TaskScheduler`, and hands
back per-partition results plus the job's timeline and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.obs.events import JobEnd, JobStart, get_bus
from repro.simtime.timeline import Timeline
from repro.spark.broadcast import Broadcast
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.rdd import RDD
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
from repro.spark.scheduler import (
    JobStats,
    SchedulerCosts,
    TaskScheduler,
    TaskTable,
)

if TYPE_CHECKING:
    from repro.spark.cluster import SparkCluster


@dataclass
class TaskCostsArrays:
    """Per-task simulated durations and payload sizes for a whole job, one
    array element per partition.

    The OmpCloud codegen computes every tile's costs in one numpy pass and
    the driver turns them straight into :class:`TaskTable` columns.  The
    byte counts are the wire sizes the scheduler charges to the driver NIC
    (scatter in, collect out); nothing is measured from the data.
    """

    compute_s: np.ndarray
    jni_s: np.ndarray
    decompress_s: np.ndarray
    compress_s: np.ndarray
    input_bytes: np.ndarray
    output_bytes: np.ndarray

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
        costs: TaskCostsArrays,
        broadcasts: Sequence[Broadcast] = (),
        fault_plan: FaultPlan = NO_FAULTS,
        functional: bool = True,
        schedule: ScheduleConfig = STATIC_SCHEDULE,
        stage: str = "",
    ) -> JobResult:
        """Execute ``rdd`` as one columnar :class:`TaskTable`, one row per
        partition, each row priced by ``costs``.

        In functional mode each task's closure computes its partition from
        lineage.  ``stage`` labels every task's timeline spans with the loop
        it tiles (fused offloads submit one stage per member loop).
        """
        self._job_seq += 1
        timeline = Timeline()
        n = rdd.num_partitions
        if len(costs) != n:
            raise ValueError(f"costs has {len(costs)} rows for {n} partitions")
        # Job k numbers its tasks from k * 100_000; a job past 100_000 tasks
        # pushes the next one up instead of sharing ids with it.
        base = max(self._job_seq * 100_000, self._next_task_id)
        self._next_task_id = base + n
        splits = np.arange(n, dtype=np.int64)
        table = TaskTable(
            task_id=base + splits,
            split=splits,
            compute_s=costs.compute_s,
            jni_s=costs.jni_s,
            decompress_s=costs.decompress_s,
            compress_s=costs.compress_s,
            input_bytes=costs.input_bytes,
            output_bytes=costs.output_bytes,
            stage=stage,
            closures=([partial(rdd.iterator, split) for split in range(n)]
                      if functional else None),
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
