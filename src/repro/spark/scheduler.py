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
(all off by default, see ``docs/SCHEDULING.md``): speculative copies for
stragglers (``spark.speculation`` semantics, first result wins) and a
pipelined collect path that streams results through NIC idle gaps between
scatters instead of the strict end-of-job barrier.

Everything is accounted on a :class:`~repro.simtime.timeline.Timeline` with
the phases Figure 5 of the paper stacks.

Scale notes (docs/PERFORMANCE.md): every job, functional or modeled, is one
columnar :class:`~repro.spark.tasktable.TaskTable` (plain scalars in the hot
loop, no per-task object).  The loop picks executors through the
amortized-O(log n) :class:`~repro.spark.exindex.ExecutorIndex`, orders
collects with one ``np.lexsort``, materializes :class:`TaskResult` objects
lazily, and reports each completed task to the event bus as one plain row
(``EventBus.task_done``; the bus batches them, docs/OBSERVABILITY.md).
Scheduling order is observable through reports, journals and traces, so it is
pinned bit for bit by the committed baselines and golden event streams.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.cloud.network import NetworkModel
from repro.obs.events import SpeculationWon, TaskSpeculated, get_bus
from repro.simtime.clock import SimClock
from repro.simtime.timeline import Phase, Timeline
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


def _agg_entry(agg: dict, phase: Phase, resource: str) -> list:
    """Get-or-create one coarse aggregate ([count, min, max, busy]) entry.

    Entries start at the identity ([0, +inf, -inf, 0.0]) and are only ever
    created immediately before a :func:`_bump`, so no empty group is ever
    visible — the aggregate ends up element-for-element identical to what
    ``Timeline.record`` would have built span by span.
    """
    key = (phase, resource)
    e = agg.get(key)
    if e is None:
        e = agg[key] = [0, float("inf"), float("-inf"), 0.0]
    return e


def _bump(e: list, start: float, end: float) -> None:
    """Fold one span into a coarse aggregate entry (same math as
    ``Timeline.record``'s coarse path, minus the call overhead)."""
    e[0] += 1
    if start < e[1]:
        e[1] = start
    if end > e[2]:
        e[2] = end
    e[3] += end - start


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
        self.index = ExecutorIndex(executors)
        #: A coarse timeline's aggregate table; ``None`` for a fine one, which
        #: keeps a labelled span per activity.  Coarse timelines ignore
        #: labels, so the hot loop skips building the f-strings and updates
        #: the table in place (same math as ``Timeline.record``, without a
        #: method call per span).
        self.agg = timeline._agg if timeline.coarse else None
        #: (id(executor) -> [entry or None] * 4) coarse aggregate entries for
        #: the four per-task worker phases, created lazily per executor.
        self._ex_entries: dict[int, list] = {}
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
        self.dec_s = self.table.decompress_s.tolist()
        self.jni_s = self.table.jni_s.tolist()
        self.cmp_s = self.table.compute_s.tolist()
        self.cpr_s = self.table.compress_s.tolist()
        # Result columns, filled as rows complete.
        self.r_start = [0.0] * n
        self.r_end = [0.0] * n
        self.r_collected = [0.0] * n
        self.r_attempts = [1] * n
        self.r_worker = [0] * n
        self.spec_rows: set[int] = set()
        self.values: list[Any] = [None] * n
        #: Worker-id snapshot at job start; results reference positions so a
        #: post-job ``replace_executor`` cannot rewrite history.
        self.worker_ids = [ex.worker_id for ex in executors]
        self.pos_of = {id(ex): i for i, ex in enumerate(executors)}
        self.stats = JobStats(results=self._results(), tasks=n)

    # --------------------------------------------------------------- the job
    def run(self, broadcasts: Sequence[Broadcast]) -> JobStats:
        alive = [ex for ex in self.executors if not ex.is_dead]
        if not alive:
            raise JobFailedError("no alive executors")
        clock, timeline, network = self.clock, self.timeline, self.network
        schedule, stats = self.schedule, self.stats
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
        n = len(self.table)
        launch_s = self.costs.task_launch_s
        record = timeline.record
        lan_time = network.lan_transfer_time
        tid, in_b, out_b = self.tid, self.in_b, self.out_b
        # A closure that measures its result writes the table's column;
        # the collect path must see the post-run value.
        measured_out = (self.table.output_bytes
                        if self.functional and self.table.closures is not None
                        else None)
        pipelined = schedule.pipelined
        driver_cursor = ready0
        nic_cursor = ready0
        agg = self.agg
        e_sched = (_agg_entry(agg, Phase.SCHEDULING, "driver")
                   if agg is not None and n else None)
        e_intra = None
        #: Pipelined mode: scattered rows whose result is due, as a heap of
        #: (end, task_id, row) — pop order is exactly the historical
        #: ``min(uncollected, key=(end, task_id))`` scan.
        uncollected: list[tuple[float, int, int]] = []
        for row in range(n):
            launch_start = driver_cursor
            driver_cursor += launch_s
            if e_sched is not None:
                _bump(e_sched, launch_start, driver_cursor)
            else:
                record(Phase.SCHEDULING, launch_start, driver_cursor,
                       resource="driver",
                       label=f"launch-{tid[row]}")
            ready = driver_cursor
            if in_b[row] > 0:
                if pipelined:
                    # Back-pressure: at most pipeline_depth results may sit
                    # uncollected before the NIC must drain one.
                    while len(uncollected) >= schedule.pipeline_depth:
                        nic_cursor = self._collect_one(uncollected, nic_cursor)
                    # Opportunistic overlap: any finished result whose
                    # transfer fits in the NIC gap before this scatter
                    # streams back now, while other tiles still compute.
                    while uncollected:
                        nxt_end, _, nxt_row = uncollected[0]
                        dt = lan_time(out_b[nxt_row])
                        if max(nxt_end, nic_cursor) + dt > ready:
                            break
                        nic_cursor = self._collect_one(uncollected, nic_cursor)
                x0 = ready if ready > nic_cursor else nic_cursor
                dt = lan_time(in_b[row])
                nic_cursor = x0 + dt
                if agg is not None:
                    if e_intra is None:
                        e_intra = _agg_entry(agg, Phase.INTRA_TRANSFER,
                                             "driver-nic")
                    _bump(e_intra, x0, nic_cursor)
                else:
                    record(Phase.INTRA_TRANSFER, x0, nic_cursor,
                           resource="driver-nic",
                           label=f"scatter-{tid[row]}")
                ready = nic_cursor
            self._run_one(row, ready)
            if measured_out is not None:
                out_b[row] = int(measured_out[row])
            if pipelined:
                if out_b[row] > 0:
                    heapq.heappush(uncollected,
                                   (self.r_end[row], tid[row], row))
                else:
                    self.r_collected[row] = self.r_end[row]

        # ---------------------------------------------------------- collect
        collect_cursor = nic_cursor
        if pipelined:
            while uncollected:
                collect_cursor = self._collect_one(uncollected, collect_cursor)
        else:
            ends = np.array(self.r_end)
            e_coll = None
            for row in np.lexsort((self.table.task_id, ends)).tolist():
                if out_b[row] > 0:
                    end = self.r_end[row]
                    c0 = end if end > collect_cursor else collect_cursor
                    dt = lan_time(out_b[row])
                    collect_cursor = c0 + dt
                    if agg is not None:
                        if e_coll is None:
                            e_coll = _agg_entry(agg, Phase.COLLECT,
                                                "driver-nic")
                        _bump(e_coll, c0, collect_cursor)
                    else:
                        record(Phase.COLLECT, c0, collect_cursor,
                               resource="driver-nic",
                               label=f"collect-{tid[row]}")
                    self.r_collected[row] = collect_cursor
                else:
                    self.r_collected[row] = self.r_end[row]

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
                    self._record_task_spans(row, res.start, ex)
                    return

            self._record_task_spans(row, res.start, ex)
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
        self.timeline.record(Phase.SPECULATION, watch, launch_end,
                             resource="driver",
                             label=f"speculate-{tid}")
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
        # finished; a straggling original already produced `value`, and
        # accumulators must commit exactly once per task.
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
        self._record_task_spans(row, copy.start, copy_ex, label_suffix="-spec")
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

    def _collect_one(self, pending: list[tuple[float, int, int]],
                     cursor: float) -> float:
        """Stream the earliest-finished pending result back over the NIC."""
        end, tid, row = heapq.heappop(pending)
        c0 = end if end > cursor else cursor
        dt = self.network.lan_transfer_time(self.out_b[row])
        cursor = c0 + dt
        self.timeline.record(Phase.COLLECT, c0, cursor, resource="driver-nic",
                             label=f"collect-{tid}")
        self.r_collected[row] = cursor
        return cursor

    def _record_task_spans(self, row: int, start: float, ex: Executor,
                           label_suffix: str = "") -> None:
        cursor = start
        speed = ex.speed
        agg = self.agg
        if agg is not None:
            # Coarse: fold the four phases into per-executor aggregate
            # entries, fetched once per executor and bumped in place.
            ents = self._ex_entries.get(id(ex))
            if ents is None:
                ents = self._ex_entries[id(ex)] = [None, None, None, None]
            resource = ex.worker_id
            for i, (phase, dur) in enumerate((
                (Phase.WORKER_DECOMPRESS, self.dec_s[row]),
                (Phase.JNI_CALL, self.jni_s[row]),
                (Phase.COMPUTE, self.cmp_s[row]),
                (Phase.WORKER_COMPRESS, self.cpr_s[row]),
            )):
                if dur > 0.0:
                    scaled = dur / speed
                    e = ents[i]
                    if e is None:
                        e = ents[i] = _agg_entry(agg, phase, resource)
                    nxt = cursor + scaled
                    _bump(e, cursor, nxt)
                    cursor = nxt
            return
        record = self.timeline.record
        resource = ex.worker_id
        stage = self.table.stage
        prefix = f"{stage}/" if stage else ""
        label = f"{prefix}task-{self.tid[row]}{label_suffix}"
        for phase, dur in (
            (Phase.WORKER_DECOMPRESS, self.dec_s[row]),
            (Phase.JNI_CALL, self.jni_s[row]),
            (Phase.COMPUTE, self.cmp_s[row]),
            (Phase.WORKER_COMPRESS, self.cpr_s[row]),
        ):
            if dur > 0.0:
                scaled = dur / speed
                record(phase, cursor, cursor + scaled,
                       resource=resource, label=label)
                cursor += scaled
