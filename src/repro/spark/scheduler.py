"""Task scheduling.

The driver "is in charge of ... resource allocation and task scheduling".
This scheduler reproduces the cost structure of Spark's TaskSchedulerImpl for
the one-stage DOALL jobs OmpCloud generates:

* task launches are **serialized through the driver** (closure serialization +
  RPC), so per-task overhead scales with the task count — the reason the
  paper tiles loops down to one task per core (Algorithm 1);
* partition payloads scatter to executors through the **driver NIC**, modelled
  as a serial resource;
* broadcasts are charged once per job via the BitTorrent model;
* results stream back through the same NIC (``collect``);
* executor failures (from a :class:`~repro.spark.faults.FaultPlan`) trigger
  re-execution on surviving executors, up to ``spark.task.maxFailures``
  attempts — lineage recomputation in RDD terms.

A :class:`~repro.spark.schedule.ScheduleConfig` unlocks the adaptive layer
(off by default, see ``docs/SCHEDULING.md``): speculative copies for
stragglers (``spark.speculation`` semantics, first result wins).

Everything is accounted on a :class:`~repro.simtime.timeline.Timeline` with
the phases Figure 5 of the paper stacks.

Scale notes (docs/PERFORMANCE.md): every job, functional or modeled, is one
columnar :class:`~repro.spark.tasktable.TaskTable` (plain scalars in the hot
loop, no per-task object).  A job with no fault plan and no speculation
places its tasks in ``_JobRun._run_static``, one O(log S) heap over the
cluster's S live slots; any other job goes row by row through ``_run_one``,
which picks the same slot through the amortized-O(log n)
:class:`~repro.spark.exindex.ExecutorIndex` and ``SlotPool.acquire``.
Every job orders collects with one ``np.lexsort``, materializes
:class:`TaskResult` objects lazily, reports each completed task to the event
bus as one plain row (``EventBus.task_done``; the bus batches them,
docs/OBSERVABILITY.md), and hands the timeline its task spans as one
:class:`~repro.simtime.timeline.TaskSpans` block of columns.
Scheduling order is observable through reports, journals and traces, so it is
pinned bit for bit by the committed baselines and golden event streams.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.cloud.network import NetworkModel
from repro.obs.events import SpeculationWon, TaskSpeculated, get_bus
from repro.simtime.clock import SimClock
from repro.simtime.timeline import Phase, Span, TaskSpans, Timeline, task_spans
from repro.spark.broadcast import Broadcast
from repro.spark.executor import Executor, ExecutorLostError
from repro.spark.exindex import ExecutorIndex
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
from repro.spark.tasktable import LazyResults, TaskResult, TaskTable

__all__ = [
    "MAX_TASK_FAILURES",
    "JobFailedError",
    "SchedulerCosts",
    "TaskResult",
    "TaskTable",
    "JobStats",
    "TaskScheduler",
]

#: Spark's default spark.task.maxFailures.
MAX_TASK_FAILURES = 4


class JobFailedError(Exception):
    """A task exhausted its attempts or no executor survives."""


@dataclass
class SchedulerCosts:
    """Driver-side constants (calibrated in :mod:`repro.perfmodel.calibration`)."""

    #: Closure serialization + launch RPC per task, on the driver.
    task_launch_s: float = 0.004
    #: Heartbeat-based failure detection latency.
    failure_detect_s: float = 2.0


@dataclass
class JobStats:
    """Aggregates the benches report."""

    #: Per-task results ordered by ``split``.
    results: LazyResults
    tasks: int = 0
    recomputed_tasks: int = 0
    broadcast_s: float = 0.0
    makespan_s: float = 0.0
    speculated_tasks: int = 0
    speculation_wins: int = 0
    speculation_saved_s: float = 0.0


class TaskScheduler:
    """Schedules one job's task set onto a fixed executor group."""

    def __init__(self, costs: SchedulerCosts | None = None) -> None:
        self.costs = costs if costs is not None else SchedulerCosts()

    def run_job(
        self,
        table: TaskTable,
        executors: Sequence[Executor],
        network: NetworkModel,
        clock: SimClock,
        timeline: Timeline,
        broadcasts: Sequence[Broadcast] = (),
        fault_plan: FaultPlan = NO_FAULTS,
        functional: bool = True,
        schedule: ScheduleConfig = STATIC_SCHEDULE,
    ) -> JobStats:
        """Run every row of ``table``; advances ``clock`` to job completion."""
        job = _JobRun(self.costs, table, executors, network, clock, timeline,
                      fault_plan, functional, schedule)
        try:
            return job.run(broadcasts)
        finally:
            job.bus.flush()  # no task row outlives the job that reported it


class _JobRun:
    """One job's mutable scheduling state (built per ``run_job`` call)."""

    def __init__(
        self,
        costs: SchedulerCosts,
        table: TaskTable,
        executors: Sequence[Executor],
        network: NetworkModel,
        clock: SimClock,
        timeline: Timeline,
        fault_plan: FaultPlan,
        functional: bool,
        schedule: ScheduleConfig,
    ) -> None:
        self.costs = costs
        self.table = table
        self.executors = executors
        self.network = network
        self.clock = clock
        self.timeline = timeline
        self.fault_plan = fault_plan
        self.functional = functional
        self.schedule = schedule
        #: Built by ``run`` for the row-by-row path only.
        self.index: ExecutorIndex | None = None
        #: Fault bookkeeping is all dict probes; an empty plan (the common
        #: case) skips them entirely.
        self.no_faults = fault_plan is NO_FAULTS or fault_plan.empty
        self.bus = get_bus()

        n = len(self.table)
        durations = self.table.slot_durations()
        # Straggler threshold base: the median of the *intended* slot
        # durations (what Spark estimates from the task set), not the
        # speed-degraded actuals — a slow node must look like a straggler.
        self.median_s = float(np.median(durations)) if n else 0.0
        # Hot-loop columns as plain Python scalars (attribute/ndarray access
        # per task would dominate at 1M rows).
        self.dur = durations.tolist()
        self.tid = self.table.task_id.tolist()
        self.in_b = self.table.input_bytes.tolist()
        self.out_b = self.table.output_bytes.tolist()
        # Result columns, filled as rows complete.
        self.r_start = [0.0] * n
        self.r_end = [0.0] * n
        self.r_collected = [0.0] * n
        self.r_attempts = [1] * n
        self.r_worker = [0] * n
        self.spec_rows: set[int] = set()
        self.values: list[Any] = [None] * n
        #: Spans a row's attempts record besides its result's worker phases
        #: (speculation launches, a speculative copy's or killed original's
        #: phases), in record order.
        self.attached: dict[int, list[Span]] = {}
        #: Worker-id and speed snapshots at job start; results reference
        #: positions so a post-job ``replace_executor`` cannot rewrite history.
        self.worker_ids = [ex.worker_id for ex in executors]
        self.speeds = [ex.speed for ex in executors]
        self.pos_of = {id(ex): i for i, ex in enumerate(executors)}
        self.stats = JobStats(results=self._results(), tasks=n)

    # --------------------------------------------------------------- the job
    def run(self, broadcasts: Sequence[Broadcast]) -> JobStats:
        alive = [ex for ex in self.executors if not ex.is_dead]
        if not alive:
            raise JobFailedError("no alive executors")
        clock, timeline, network = self.clock, self.timeline, self.network
        stats = self.stats
        t0 = clock.now

        # ------------------------------------------------------- broadcasts
        ready0 = t0
        worker_ids = {ex.worker_id for ex in alive}
        for bc in broadcasts:
            missing = worker_ids - bc.nodes_seeded
            if not missing or bc.nbytes == 0:
                continue
            dt = network.broadcast_time(bc.nbytes, len(missing), bittorrent=True)
            timeline.record(Phase.BROADCAST, ready0, ready0 + dt, resource="cluster",
                            label=f"broadcast-{bc.id}")
            bc.nodes_seeded |= missing
            stats.broadcast_s += dt
            ready0 += dt

        # -------------------------------------------- launch + scatter + run
        # Every launch, scatter and collect span, and each row's result
        # phases, is a function of the columns below; the job adds them to
        # the timeline as one TaskSpans block.
        table = self.table
        launch_s = self.costs.task_launch_s
        lan_time = network.lan_transfer_time
        ready, scatter_start, scatter_end, nic_cursor = self._launch(ready0)
        if self.no_faults and not self.schedule.speculation:
            self._run_static(ready)
        else:
            self.index = ExecutorIndex(self.executors)
            for row, r in enumerate(ready):
                self._run_one(row, r)

        # ---------------------------------------------------------- collect
        collect_cursor = nic_cursor
        order = np.lexsort((table.task_id, np.array(self.r_end)))
        collect_start = array("d")
        r_end, r_collected, out_b = self.r_end, self.r_collected, self.out_b
        lan_out = {b: lan_time(b) for b in set(out_b) if b > 0}
        for row in order.tolist():
            b = out_b[row]
            if b > 0:
                end = r_end[row]
                c0 = end if end > collect_cursor else collect_cursor
                collect_cursor = c0 + lan_out[b]
                collect_start.append(c0)
                r_collected[row] = collect_cursor
            else:
                r_collected[row] = r_end[row]

        timeline.add_tasks(TaskSpans(
            stage=table.stage, task_id=table.task_id, ready0=ready0,
            launch_s=launch_s,
            scatter_rows=np.flatnonzero(table.input_bytes > 0),
            scatter_start=scatter_start, scatter_end=scatter_end,
            start=self.r_start, worker=self.r_worker,
            worker_ids=self.worker_ids, speeds=self.speeds,
            costs=(table.decompress_s, table.jni_s, table.compute_s,
                   table.compress_s),
            spec_rows=self.spec_rows, attached=self.attached,
            collect_rows=order[table.output_bytes[order] > 0],
            collect_start=collect_start, collect_end=self.r_collected))
        job_end = max(self.r_collected, default=ready0)
        clock.advance_to(max(job_end, clock.now))
        stats.makespan_s = job_end - t0
        return stats

    def _results(self) -> LazyResults:
        """Results ordered by split — a lazy view over the result columns
        (filled in place as rows complete), sorted only when splits are
        actually out of order (they almost never are: the driver emits tiles
        in split order)."""
        split = self.table.split
        order: np.ndarray | None = None
        if len(split) > 1 and not bool(np.all(split[1:] >= split[:-1])):
            order = np.argsort(split, kind="stable")
        return LazyResults(
            self.table,
            order=order,
            start=self.r_start,
            end=self.r_end,
            collected_at=self.r_collected,
            attempts=self.r_attempts,
            worker_pos=self.r_worker,
            worker_ids=self.worker_ids,
            speculative_rows=self.spec_rows,
            values=self.values,
        )

    # ------------------------------------------------------------ internals
    def _launch(self, ready0: float) -> tuple[array, array, array, float]:
        """Each row's ready time, the scatter columns and the NIC cursor.

        The driver serializes every launch, and a row with input bytes then
        waits for the driver NIC, a serial resource.  Neither cursor depends
        on where a row runs, so both paths of ``run`` read the same column.
        """
        launch_s = self.costs.task_launch_s
        lan_time = self.network.lan_transfer_time
        lan_in = {b: lan_time(b) for b in set(self.in_b) if b > 0}
        ready = array("d")
        scatter_start, scatter_end = array("d"), array("d")
        driver_cursor = nic_cursor = ready0
        for b in self.in_b:
            driver_cursor += launch_s
            r = driver_cursor
            if b > 0:
                x0 = r if r > nic_cursor else nic_cursor
                nic_cursor = x0 + lan_in[b]
                scatter_start.append(x0)
                scatter_end.append(nic_cursor)
                r = nic_cursor
            ready.append(r)
        return ready, scatter_start, scatter_end, nic_cursor

    def _run_static(self, ready_col: array) -> None:
        """Place every row of a job with no fault plan and no speculation.

        The reference is ``_run_one`` (docs/PERFORMANCE.md, "The bit-identity
        guarantee"), and this loop places every row on the slot it picks.
        ``ExecutorIndex`` picks the lowest-position executor with a slot free
        at ``ready``, or else the minimal ``(earliest_free, position)``;
        ``SlotPool.acquire`` then takes that executor's lowest-index free
        slot, or else its minimal ``(free_at, index)``.  Together that is
        the minimum over all live slots of ``(max(free_at, ready), position,
        index)``.  Here the live slots are flattened in (position, index)
        order, so the key is ``(max(free_at, ready), flat index)``: a
        min-heap of flat indices free at the high-water ``ready`` and a heap
        of ``(free_at, flat)`` for the busy ones, ``ExecutorIndex``'s two
        heaps one level down.  Entries are revalidated against ``free_at``
        when popped, so stale ones are skipped.  A row whose ``ready`` is
        below the high-water mark (no input bytes, after a row that waited
        on the NIC) takes the exact scan, as ``ExecutorIndex.pick`` does.

        Only a dead executor raises ``ExecutorLostError``, and no executor
        dies in such a job, so each row takes one attempt.  The slots'
        ``free_at`` are written back at the end, also when a closure raises,
        so later jobs see the pools ``_run_one`` would leave.
        """
        executors = self.executors
        live = [i for i, ex in enumerate(executors) if not ex.is_dead]
        slots = [s for i in live for s in executors[i].pool.slots]
        slot_pos = [i for i in live for _ in executors[i].pool.slots]
        slot_ex = [executors[i] for i in slot_pos]
        slot_speed = [self.speeds[i] for i in slot_pos]
        slot_worker = [self.worker_ids[i] for i in slot_pos]
        free_at = [s.free_at for s in slots]
        busy = [(f, k) for k, f in enumerate(free_at)]
        heapq.heapify(busy)
        free: list[int] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        hw = float("-inf")

        dur, tid = self.dur, self.tid
        r_start, r_end, r_worker = self.r_start, self.r_end, self.r_worker
        values = self.values
        closures = self.table.closures if self.functional else None
        task_done = self.bus.task_done if self.bus.is_active else None
        try:
            for row, ready in enumerate(ready_col):
                if ready >= hw:
                    hw = ready
                    while busy and busy[0][0] <= ready:
                        heappush(free, heappop(busy)[1])
                    while free:
                        k = heappop(free)
                        if free_at[k] <= ready:
                            start = ready
                            break
                    else:
                        f, k = heappop(busy)
                        while free_at[k] != f:
                            f, k = heappop(busy)
                        start = f
                else:
                    best = float("inf")
                    for j, f in enumerate(free_at):
                        if f <= ready:
                            k, start = j, ready
                            break
                        if f < best:
                            k, best = j, f
                    else:
                        start = best
                d = dur[row] / slot_speed[k]
                end = start + d
                free_at[k] = end
                heappush(busy, (end, k))
                if closures is not None and closures[row] is not None:
                    values[row] = slot_ex[k].run_closure(closures[row])
                if task_done is not None:
                    task_done(tid[row], slot_worker[k], start, end, d, 1)
                r_start[row] = start
                r_end[row] = end
                r_worker[row] = slot_pos[k]
        finally:
            for s, f in zip(slots, free_at):
                s.free_at = f
            for i in live:
                executors[i].pool.invalidate_cache()

    def _run_one(self, row: int, ready: float) -> None:
        fault_plan = self.fault_plan
        no_faults = self.no_faults
        duration = self.dur[row]
        closure = self.table.closure_of(row)
        attempts = 0
        while attempts < MAX_TASK_FAILURES:
            attempts += 1
            ex = self.index.pick(ready)
            if ex is None:
                raise JobFailedError("all executors are dead")
            res = ex.reserve(ready, duration)

            if not no_faults:
                # Worker already gone (death or spot preemption) before the
                # task could start: it never receives the reservation.
                # Blacklist and reschedule; no work was lost, so nothing is
                # recomputed.
                death = fault_plan.death_time(ex.worker_id)
                if death is not None and death < res.start:
                    ex.mark_dead(now=death, reason="dead before task start")
                    ready = max(ready, death + self.costs.failure_detect_s)
                    attempts -= 1  # not a task failure, only a placement miss
                    continue

                # Simulated-time death of the worker mid-task.  The task goes
                # silent at `death`; heartbeat detection notices at
                # death + failure_detect_s.  With speculation on, the driver
                # may notice the straggling (silent) task at multiplier x
                # median first and race a copy on another executor.
                if fault_plan.kills_reservation(ex.worker_id, res.start, res.end):
                    death_t = death if death is not None else res.start
                    ex.mark_dead(now=death_t, reason="died mid-task")
                    self.stats.recomputed_tasks += 1
                    if self.schedule.speculation and self.median_s > 0.0:
                        won = self._speculate(
                            row, ex, res.start,
                            attempts=attempts, original_end=None,
                            detect_at=death_t + self.costs.failure_detect_s)
                        if won:
                            return
                    ready = max(ready, death_t + self.costs.failure_detect_s)
                    continue

            # Functional failure injection: the Nth closure on this worker
            # raises.  An application crash is a *failure*, never a
            # straggler — speculation must not mask maxFailures exhaustion.
            value = None
            if self.functional and closure is not None:
                if not no_faults and fault_plan.should_raise(
                        ex.worker_id, ex.tasks_executed + 1):
                    ex.tasks_executed += 1
                    ex.mark_dead(now=res.start, reason="task crashed")
                    self.stats.recomputed_tasks += 1
                    midpoint = res.start + duration / 2.0
                    ready = max(ready, midpoint + self.costs.failure_detect_s)
                    continue
                try:
                    value = ex.run_closure(closure)
                except ExecutorLostError:
                    self.stats.recomputed_tasks += 1
                    ready = max(ready, res.end + self.costs.failure_detect_s)
                    continue

            # Straggler: the slot runs the task >= multiplier x median (a
            # degraded node, speed < 1).  Race a copy; first result wins.
            actual_s = res.end - res.start
            if (self.schedule.speculation and self.median_s > 0.0
                    and actual_s >= self.schedule.speculation_multiplier * self.median_s):
                won = self._speculate(
                    row, ex, res.start,
                    attempts=attempts, original_end=res.end,
                    detect_at=float("inf"), value=value)
                if won:
                    # The losing original still occupies its slot to the end
                    # (Spark kills it, but the model bills the spent time);
                    # its spans stay on the timeline, unlabelled as a task
                    # completion — no TaskEnd is emitted for a killed copy.
                    self._attach_task_spans(row, res.start, ex)
                    return

            if self.bus.is_active:
                self.bus.task_done(self.tid[row], ex.worker_id, res.start,
                                   res.end, duration / ex.speed, attempts)
            self.r_start[row] = res.start
            self.r_end[row] = res.end
            self.r_attempts[row] = attempts
            self.r_worker[row] = self.pos_of[id(ex)]
            self.values[row] = value
            return
        raise JobFailedError(
            f"task {self.tid[row]} failed {MAX_TASK_FAILURES} times; aborting job"
        )

    def _speculate(
        self,
        row: int,
        original: Executor,
        original_start: float,
        *,
        attempts: int,
        original_end: float | None,
        detect_at: float,
        value: Any = None,
    ) -> bool:
        """Try to rescue a straggling/silent task with a speculative copy.

        Fills the row's result columns and returns True when a copy wins;
        False when the copy is not launched (would not beat the original /
        detection) or itself fails — the caller then falls through to the
        ordinary retry path, so ``maxFailures`` accounting is never weakened.

        ``original_end`` is the instant the original attempt would finish
        (``None`` when the original died and will never finish, in which
        case ``detect_at`` is when heartbeat detection would fire instead).
        """
        schedule, fault_plan = self.schedule, self.fault_plan
        duration = self.dur[row]
        tid = self.tid[row]
        closure = self.table.closure_of(row)
        watch = original_start + schedule.speculation_multiplier * self.median_s
        if watch >= detect_at:
            return False  # heartbeat detection fires first; retry normally
        copy_ex = self.index.pick_excluding(watch, original)
        if copy_ex is None:
            return False  # nowhere else to run a copy
        launch_end = watch + self.costs.task_launch_s
        est_start = max(copy_ex.pool.earliest_free(), launch_end)
        est_end = est_start + duration / copy_ex.speed
        if original_end is not None and est_end >= original_end:
            return False  # the copy cannot win; Spark would not launch it

        copy = copy_ex.reserve(launch_end, duration)
        self.attached.setdefault(row, []).append(Span(
            Phase.SPECULATION, watch, launch_end, "driver", f"speculate-{tid}"))
        self.stats.speculated_tasks += 1
        bus = self.bus
        if bus.is_active:
            bus.emit(TaskSpeculated(time=watch, resource="driver",
                                    task_id=tid,
                                    worker=original.worker_id,
                                    copy_worker=copy_ex.worker_id,
                                    waited_s=watch - original_start,
                                    median_s=self.median_s))

        # The copy is as mortal as any task: the fault plan applies.
        copy_death = fault_plan.death_time(copy_ex.worker_id)
        if copy_death is not None and copy_death < copy.end:
            copy_ex.mark_dead(now=max(copy_death, 0.0),
                              reason="speculative copy lost")
            return False
        # Functional work runs on the copy only when the original never
        # finished; a straggling original already produced `value`, and a
        # task's closure runs exactly once.
        if self.functional and closure is not None and original_end is None:
            if fault_plan.should_raise(copy_ex.worker_id,
                                       copy_ex.tasks_executed + 1):
                copy_ex.tasks_executed += 1
                copy_ex.mark_dead(now=copy.start,
                                  reason="speculative copy crashed")
                return False
            try:
                value = copy_ex.run_closure(closure)
            except ExecutorLostError:
                return False

        # First result wins.  `saved` is what the tail would have cost
        # without the copy: the original's own finish, or (for a dead
        # original) detection + a full re-run — a lower bound, ignoring
        # re-queueing delays.
        counterfactual = (original_end if original_end is not None
                          else detect_at + duration)
        saved = max(0.0, counterfactual - copy.end)
        self.stats.speculation_wins += 1
        self.stats.speculation_saved_s += saved
        self._attach_task_spans(row, copy.start, copy_ex, label_suffix="-spec")
        if bus.is_active:
            bus.task_done(tid, copy_ex.worker_id, copy.start, copy.end,
                          duration / copy_ex.speed, attempts)
            bus.emit(SpeculationWon(time=copy.end, resource=copy_ex.worker_id,
                                    task_id=tid,
                                    winner=copy_ex.worker_id,
                                    loser=original.worker_id, saved_s=saved))
        self.r_start[row] = copy.start
        self.r_end[row] = copy.end
        self.r_attempts[row] = attempts
        self.r_worker[row] = self.pos_of[id(copy_ex)]
        self.spec_rows.add(row)
        self.values[row] = value
        return True

    def _attach_task_spans(self, row: int, start: float, ex: Executor,
                           label_suffix: str = "") -> None:
        table = self.table
        self.attached.setdefault(row, []).extend(task_spans(
            table.stage, self.tid[row], start, ex.speed, ex.worker_id,
            (float(table.decompress_s[row]), float(table.jni_s[row]),
             float(table.compute_s[row]), float(table.compress_s[row])),
            label_suffix))
