"""SparkContext: the user-facing entry point of the substrate.

Mirrors pyspark's surface for the operations the OmpCloud job generator
emits: ``parallelize`` and ``broadcast``.  Each map stage is submitted
through ``driver.run_job``, every task priced up front.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.spark.broadcast import Broadcast
from repro.spark.logging import SparkLog
from repro.spark.cluster import SparkCluster
from repro.spark.driver import Driver
from repro.spark.rdd import RDD, ParallelCollectionRDD
from repro.spark.scheduler import SchedulerCosts


class SparkContext:
    """Owns the cluster connection, its driver and the log of the jobs run on
    it; a job's spans go to the timeline of the offload that submitted it."""

    def __init__(
        self,
        cluster: SparkCluster,
        scheduler_costs: SchedulerCosts | None = None,
    ) -> None:
        self.cluster = cluster
        self.driver = Driver(self.cluster, scheduler_costs)
        self.log = SparkLog()

    # ------------------------------------------------------------------ API
    def parallelize(self, data: Sequence[Any], num_slices: int) -> RDD:
        """Distribute a driver-side collection (Eq. 1: ``RDD_IN``)."""
        if num_slices < 1:
            raise ValueError(f"num_slices must be >= 1, got {num_slices}")
        return ParallelCollectionRDD(self, data, min(num_slices, max(len(data), 1)))

    def broadcast(self, value: Any, nbytes: int) -> Broadcast:
        """A broadcast variable whose wire size is ``nbytes``.  The context
        keeps no reference: the value lives as long as the jobs reading it."""
        return Broadcast(value, nbytes)

    # ------------------------------------------------------------ inspection
    @property
    def clock(self):
        return self.cluster.clock
