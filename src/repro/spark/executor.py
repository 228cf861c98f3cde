"""Spark executors.

Each worker node runs one executor JVM "that manages all 32 vCPUs and a heap
size of 40GB"; with ``spark.task.cpus=2`` it offers 16 concurrent task slots —
one per physical core.  The executor owns a :class:`SlotPool` for simulated
scheduling and really runs task closures for functional jobs.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.events import ExecutorLost, get_bus
from repro.simtime.resources import Reservation, SlotPool


class ExecutorLostError(Exception):
    """Raised when a task lands on a failed executor (functional mode)."""


class Executor:
    """One executor JVM on one worker node."""

    def __init__(
        self,
        worker_id: str,
        vcpus: int,
        task_cpus: int = 1,
        heap_bytes: int = 40 * 1024**3,
        speed: float = 1.0,
    ) -> None:
        if vcpus < 1:
            raise ValueError(f"executor needs >= 1 vCPU, got {vcpus}")
        if task_cpus < 1:
            raise ValueError(f"task_cpus must be >= 1, got {task_cpus}")
        if task_cpus > vcpus:
            raise ValueError(
                f"task_cpus={task_cpus} exceeds executor vcpus={vcpus}; no task could run"
            )
        if not speed > 0.0:
            raise ValueError(f"executor speed must be > 0, got {speed!r}")
        self.worker_id = worker_id
        self.vcpus = vcpus
        self.task_cpus = task_cpus
        self.heap_bytes = heap_bytes
        #: Relative per-core throughput (1.0 = the calibrated c3.8xlarge core).
        #: A degraded or older node runs every slot duration at 1/speed; the
        #: default of exactly 1.0 divides out bit-identically, so homogeneous
        #: clusters are unchanged.
        self.speed = speed
        self.pool = SlotPool(self.task_slots, label=worker_id)
        self.tasks_executed = 0
        self._dead = False

    @property
    def task_slots(self) -> int:
        """Concurrent tasks this executor can run (floor(vcpus / task_cpus))."""
        return self.vcpus // self.task_cpus

    @property
    def physical_cores(self) -> int:
        """Dedicated cores, assuming 2-way hyper-threading (paper's EC2 note)."""
        return self.vcpus // 2

    # -------------------------------------------------------------- failures
    def mark_dead(self, now: float = 0.0, reason: str = "") -> None:
        """Blacklist this executor: no further reservations or closures."""
        if not self._dead:
            get_bus().emit(ExecutorLost(time=now, resource=self.worker_id,
                                        worker=self.worker_id, reason=reason))
        self._dead = True
        for slot in self.pool.slots:
            slot.free_at = float("inf")
        self.pool.invalidate_cache()

    @property
    def is_dead(self) -> bool:
        return self._dead

    # ------------------------------------------------------------- execution
    def reserve(self, ready_at: float, duration: float) -> Reservation:
        """Reserve a slot; ``duration`` is scaled by this node's ``speed``."""
        if self._dead:
            raise ExecutorLostError(f"{self.worker_id} is dead")
        return self.pool.acquire(ready_at, duration / self.speed)

    def run_closure(self, fn: Callable[[], Any]) -> Any:
        """Really execute a task closure (functional mode).

        Increments the task counter first so fault plans can target "the Nth
        task executed on this worker".  A lost or crashed attempt never gets
        here, so a task's closure runs exactly once.
        """
        if self._dead:
            raise ExecutorLostError(f"{self.worker_id} is dead")
        self.tasks_executed += 1
        return fn()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Executor({self.worker_id}, vcpus={self.vcpus}, "
            f"slots={self.task_slots}, dead={self._dead})"
        )
