"""SparkContext: the user-facing entry point of the substrate.

Mirrors pyspark's surface for the operations the OmpCloud job generator
emits: ``parallelize``, ``broadcast``, and job execution for RDD actions.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.simtime.timeline import Timeline
from repro.spark.accumulators import Accumulator
from repro.spark.broadcast import Broadcast
from repro.spark.logging import SparkLog
from repro.spark.cluster import SparkCluster
from repro.spark.driver import Driver, JobResult, TaskCostsArrays
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.rdd import RDD, ParallelCollectionRDD
from repro.spark.scheduler import SchedulerCosts
from repro.spark.serialization import sizeof_element


class SparkContext:
    """Owns the cluster connection, accumulates job timelines."""

    def __init__(
        self,
        cluster: SparkCluster | None = None,
        scheduler_costs: SchedulerCosts | None = None,
        fault_plan: FaultPlan = NO_FAULTS,
    ) -> None:
        self.cluster = cluster if cluster is not None else SparkCluster(n_workers=2)
        self.driver = Driver(self.cluster, scheduler_costs)
        self.fault_plan = fault_plan
        self.timeline = Timeline()
        self.log = SparkLog()
        self._broadcasts: list[Broadcast] = []
        self.jobs_run = 0

    # ------------------------------------------------------------------ API
    def parallelize(self, data: Sequence[Any], num_slices: int | None = None) -> RDD:
        """Distribute a driver-side collection (Eq. 1: ``RDD_IN``)."""
        n = num_slices if num_slices is not None else self.cluster.default_parallelism()
        if n < 1:
            raise ValueError(f"num_slices must be >= 1, got {n}")
        return ParallelCollectionRDD(self, data, min(n, max(len(data), 1)))

    def accumulator(self, initial: Any = 0, op=None, name: str = "") -> Accumulator:
        """Create a write-only-from-tasks accumulator (sums by default)."""
        import operator

        return Accumulator(initial, op=op or operator.add, name=name)

    def broadcast(self, value: Any, nbytes: int | None = None) -> Broadcast:
        """Register a broadcast variable (size measured unless given)."""
        bc = Broadcast(value, nbytes if nbytes is not None else sizeof_element(value))
        self._broadcasts.append(bc)
        return bc

    def run_job(
        self,
        rdd: RDD,
        partition_post: Callable[[list[Any]], list[Any]] | None = None,
        costs: TaskCostsArrays | None = None,
        functional: bool = True,
    ) -> list[list[Any]]:
        """Execute an action; returns per-partition results (used by RDD)."""
        result = self.run_job_detailed(rdd, partition_post, costs, functional)
        return result.partitions

    def run_job_detailed(
        self,
        rdd: RDD,
        partition_post: Callable[[list[Any]], list[Any]] | None = None,
        costs: TaskCostsArrays | None = None,
        functional: bool = True,
    ) -> JobResult:
        """Like :meth:`run_job` but returns timings and stats too."""
        self.jobs_run += 1
        self.log.info(self.clock.now, "DAGScheduler",
                      f"Submitting job {self.jobs_run} with {rdd.num_partitions} tasks")
        result = self.driver.run_job(
            rdd,
            partition_post=partition_post,
            costs=costs,
            broadcasts=tuple(b for b in self._broadcasts if not b.is_destroyed),
            fault_plan=self.fault_plan,
            functional=functional,
        )
        self.timeline.extend(result.timeline)
        self.log.info(self.clock.now, "DAGScheduler",
                      f"Job {self.jobs_run} finished in {result.makespan_s:.3f} s "
                      f"({result.stats.recomputed_tasks} task(s) recomputed)")
        return result

    # ------------------------------------------------------------ inspection
    @property
    def default_parallelism(self) -> int:
        return self.cluster.default_parallelism()

    @property
    def clock(self):
        return self.cluster.clock

    def stop(self) -> None:
        """Release broadcasts (the cluster object may be reused)."""
        for bc in self._broadcasts:
            if not bc.is_destroyed:
                bc.destroy()
        self._broadcasts.clear()
