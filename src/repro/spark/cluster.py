"""Spark cluster wiring: executors + network + clock + conf.

Reproduces the paper's deployment: one driver node plus ``n_workers`` worker
nodes, each running a single executor JVM managing all of the node's vCPUs.
``spark.cores.max`` caps how many vCPUs a job may occupy; like the paper's
standalone deployment (8..256 physical cores on a fixed 16-worker cluster),
cores are granted by filling workers one after another, so 8 or 16 physical
cores land on a single worker node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cloud.network import NetworkModel
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.simtime.clock import SimClock
from repro.spark.conf import SparkConf
from repro.spark.executor import Executor


@dataclass(frozen=True)
class WorkerShape:
    """Hardware of one worker node (default: c3.8xlarge, as in the paper)."""

    vcpus: int = 32
    ram_gb: float = 60.0

    @property
    def physical_cores(self) -> int:
        return self.vcpus // 2


class SparkCluster:
    """A fixed group of worker nodes with one executor JVM each."""

    def __init__(
        self,
        n_workers: int = 16,
        shape: WorkerShape | None = None,
        conf: SparkConf | None = None,
        network: NetworkModel | None = None,
        clock: SimClock | None = None,
        worker_speeds: Sequence[float] | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        self.shape = shape if shape is not None else WorkerShape()
        self.conf = conf if conf is not None else SparkConf()
        self.network = network if network is not None else NetworkModel(
            DEFAULT_CALIBRATION.wan_link(), DEFAULT_CALIBRATION.lan_link())
        self.clock = clock if clock is not None else SimClock()
        self.n_workers = n_workers
        #: Relative per-core throughput per worker index; workers past the
        #: end of the list (and all workers by default) run at 1.0.
        self.worker_speeds = tuple(worker_speeds) if worker_speeds else ()
        self.executors = self._build_executors()

    def _build_executors(self) -> list[Executor]:
        """Grant vCPUs worker-by-worker until spark.cores.max is exhausted."""
        task_cpus = self.conf.task_cpus
        cores_max = self.conf.cores_max  # in vCPUs; 0 = all
        remaining = cores_max if cores_max > 0 else self.n_workers * self.shape.vcpus
        heap = self.conf.executor_memory_bytes
        out: list[Executor] = []
        for w in range(self.n_workers):
            if remaining < task_cpus:
                break
            grant = min(self.shape.vcpus, remaining)
            if grant // task_cpus < 1:
                break
            out.append(
                Executor(
                    worker_id=f"worker-{w}",
                    vcpus=grant,
                    task_cpus=task_cpus,
                    heap_bytes=heap,
                    speed=self._speed_of(w),
                )
            )
            remaining -= grant
        if not out:
            raise ValueError(
                f"spark.cores.max={cores_max} grants no full task slot "
                f"(task.cpus={task_cpus})"
            )
        return out

    def _speed_of(self, worker_index: int) -> float:
        if worker_index < len(self.worker_speeds):
            return self.worker_speeds[worker_index]
        return 1.0

    # ------------------------------------------------------------ capacities
    @property
    def total_task_slots(self) -> int:
        """Concurrent tasks the whole cluster can run — the C of Algorithm 1."""
        return sum(ex.task_slots for ex in self.executors)

    def slot_capacities(self) -> list[float]:
        """One relative speed per live task slot, in executor/slot order.

        This is the capacity vector :func:`repro.core.tiling.tile_weighted`
        consumes; the order matches the scheduler's earliest-available,
        first-executor-wins placement, so slot-major weighted tiles land on
        the slots they were sized for.
        """
        return [ex.speed
                for ex in self.executors if not ex.is_dead
                for _ in range(ex.task_slots)]

    @property
    def total_physical_cores(self) -> int:
        return sum(ex.physical_cores for ex in self.executors)

    @property
    def active_worker_nodes(self) -> int:
        return len(self.executors)

    def reset_pools(self) -> None:
        """Free all executor slots at the current clock (between jobs)."""
        for ex in self.executors:
            if not ex.is_dead:
                ex.pool.reset(self.clock.now)

    def replace_executor(self, worker_id: str, now: float | None = None) -> Executor:
        """Swap in a fresh executor for a lost worker (spot replacement).

        The replacement keeps the node's shape but gets a new identity
        (``worker-3`` becomes ``worker-3+1``) — a replacement spot instance
        is a new machine, so fault plans targeting the old id do not apply
        to it, and any degraded ``speed`` of the lost node does not carry
        over (a fresh instance runs at full speed).  Its slots are free from
        ``now`` on.
        """
        when = self.clock.now if now is None else now
        for i, ex in enumerate(self.executors):
            if ex.worker_id == worker_id:
                base, _, gen = worker_id.partition("+")
                new_id = f"{base}+{int(gen or 0) + 1}"
                fresh = Executor(worker_id=new_id, vcpus=ex.vcpus,
                                 task_cpus=ex.task_cpus, heap_bytes=ex.heap_bytes)
                fresh.pool.reset(when)
                self.executors[i] = fresh
                return fresh
        raise ValueError(f"no executor {worker_id!r} in this cluster")

    @classmethod
    def for_physical_cores(
        cls,
        physical_cores: int,
        n_workers: int = 16,
        shape: WorkerShape | None = None,
        conf: SparkConf | None = None,
        network: NetworkModel | None = None,
        clock: SimClock | None = None,
        worker_speeds: Sequence[float] | None = None,
    ) -> "SparkCluster":
        """The paper's experimental knob: limit a 16-worker cluster to
        ``physical_cores`` dedicated cores via spark.cores.max (2 vCPUs per
        core, spark.task.cpus=2)."""
        conf = (conf if conf is not None else SparkConf()).copy()
        conf.set("spark.task.cpus", 2)
        conf.set("spark.cores.max", physical_cores * 2)
        return cls(n_workers=n_workers, shape=shape, conf=conf, network=network,
                   clock=clock, worker_speeds=worker_speeds)
