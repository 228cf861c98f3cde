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
    Task,
    TaskScheduler,
    TaskTable,
)
from repro.spark.serialization import sizeof_element

if TYPE_CHECKING:
    from repro.spark.cluster import SparkCluster


@dataclass
class TaskCosts:
    """Per-task simulated durations and payload sizes, supplied by the
    OmpCloud codegen in modeled runs (functional runs default to zero cost)."""

    compute_s: float = 0.0
    jni_s: float = 0.0
    decompress_s: float = 0.0
    compress_s: float = 0.0
    input_bytes: int = -1  # -1 = measure from the partition data
    output_bytes: int = -1  # -1 = measure from the result


@dataclass
class TaskCostsArrays:
    """Per-task costs for a whole modeled job, as parallel arrays.

    The vectorized codegen computes every tile's durations and payload sizes
    in one numpy pass; shipping them as arrays lets the driver build a
    columnar :class:`~repro.spark.tasktable.TaskTable` without a Python
    ``costs_for`` call (and a :class:`Task` object) per tile.  Negative byte
    counts mean "unknown" and clamp to 0, matching the scalar
    :class:`TaskCosts` sentinel semantics for modeled runs.
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


CostsFor = Callable[[int], TaskCosts]
PartitionPost = Callable[[list[Any]], list[Any]]


class Driver:
    """Driver-node logic shared by functional and modeled jobs."""

    def __init__(self, cluster: "SparkCluster", costs: SchedulerCosts | None = None) -> None:
        self.cluster = cluster
        self.scheduler = TaskScheduler(costs)
        self._job_seq = 0

    def run_job(
        self,
        rdd: RDD,
        partition_post: PartitionPost | None = None,
        costs_for: CostsFor | None = None,
        broadcasts: Sequence[Broadcast] = (),
        fault_plan: FaultPlan = NO_FAULTS,
        functional: bool = True,
        schedule: ScheduleConfig = STATIC_SCHEDULE,
        stage: str = "",
        costs_arrays: TaskCostsArrays | None = None,
    ) -> JobResult:
        """Execute ``rdd`` (optionally post-processing each partition).

        In functional mode the closures really run; task payload sizes are
        measured from the data unless ``costs_for`` overrides them.
        ``stage`` labels every task's timeline spans with the loop it tiles
        (fused offloads submit one stage per member loop).

        Modeled callers may pass ``costs_arrays`` instead of ``costs_for``:
        the whole task set is then submitted as one columnar
        :class:`TaskTable` — no per-tile ``Task`` objects, no per-tile costs
        callback.  The schedule produced is bit-identical either way.
        """
        self._job_seq += 1
        timeline = Timeline()
        n = rdd.num_partitions
        tasks: list[Task] | TaskTable
        if costs_arrays is not None and not functional:
            if len(costs_arrays) != n:
                raise ValueError(
                    f"costs_arrays has {len(costs_arrays)} rows for "
                    f"{n} partitions")
            splits = np.arange(n, dtype=np.int64)
            tasks = TaskTable(
                task_id=self._job_seq * 100_000 + splits,
                split=splits,
                compute_s=costs_arrays.compute_s,
                jni_s=costs_arrays.jni_s,
                decompress_s=costs_arrays.decompress_s,
                compress_s=costs_arrays.compress_s,
                input_bytes=np.maximum(
                    np.asarray(costs_arrays.input_bytes, dtype=np.int64), 0),
                output_bytes=np.maximum(
                    np.asarray(costs_arrays.output_bytes, dtype=np.int64), 0),
                stage=stage,
            )
        else:
            task_list: list[Task] = []
            for split in range(n):
                costs = costs_for(split) if costs_for is not None else TaskCosts()
                task = Task(
                    task_id=self._job_seq * 100_000 + split,
                    split=split,
                    stage=stage,
                    compute_s=costs.compute_s,
                    jni_s=costs.jni_s,
                    decompress_s=costs.decompress_s,
                    compress_s=costs.compress_s,
                    input_bytes=(
                        costs.input_bytes
                        if costs.input_bytes >= 0
                        else (self._measure_input_bytes(rdd, split) if functional else 0)
                    ),
                    output_bytes=max(costs.output_bytes, 0),
                )
                if functional:
                    task.closure = self._make_closure(rdd, split, partition_post, task,
                                                      costs.output_bytes < 0)
                task_list.append(task)
            tasks = task_list

        bus = get_bus()
        bus.emit(JobStart(time=self.cluster.clock.now, resource="driver",
                          job_id=self._job_seq, tasks=n))
        stats = self.scheduler.run_job(
            tasks,
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
        if isinstance(tasks, TaskTable):
            # Modeled columnar jobs have no values; don't materialize 1M
            # TaskResult objects just to read None from each.  The empty
            # list is shared — partitions of a modeled job are never mutated.
            partitions: list[list[Any]] = [[]] * n
        else:
            partitions = [r.value if r.value is not None else []
                          for r in stats.results]
        return JobResult(partitions=partitions, stats=stats, timeline=timeline)

    # ------------------------------------------------------------- internals
    @staticmethod
    def _make_closure(
        rdd: RDD,
        split: int,
        partition_post: PartitionPost | None,
        task: Task,
        measure_output: bool,
    ) -> Callable[[], list[Any]]:
        def closure() -> list[Any]:
            data = rdd.iterator(split)
            if partition_post is not None:
                data = partition_post(data)
            if measure_output:
                task.output_bytes = sum(sizeof_element(x) for x in data)
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
