"""OMPT-style event bus: the runtime's live instrumentation plane.

LLVM's OpenMP runtime exposes OMPT callbacks (``ompt_callback_target``,
``ompt_callback_target_data_op``, ...) so tools can watch an offload without
forking the runtime.  This module is the equivalent for the OmpCloud
reproduction: every layer of the stack — the offload runtime, the cloud and
host plugins, the resilience machinery, the Spark driver/scheduler/executors,
storage and SSH — emits small, typed, timestamped :class:`Event` records onto
one :class:`EventBus`.  Subscribers turn the stream into metrics
(:mod:`repro.obs.metrics_registry`), the Spark log
(:mod:`repro.obs.subscribers`), Perfetto traces, or benchmark milestones
(:mod:`repro.obs.bench`).

Correlation: the runtime opens an *offload scope* per target-region offload
(:meth:`EventBus.offload_scope`); every event emitted while the scope is
active is stamped with the scope's correlation id (``"<region>#<seq>"``) and
a ``parent_id`` pointing at the offload's root span — so a retry deep inside
the storage layer can be traced back to the exact ``TargetBegin`` it served,
and to the Spark resubmission it triggered.

Emission is deliberately cheap: with no subscribers and history disabled
(the default process-wide bus), :meth:`EventBus.emit` is a lock-free early
return, so the instrumented hot paths cost nothing when nobody is watching.

All timestamps are *simulated* seconds from the emitting layer's
:class:`~repro.simtime.clock.SimClock`; layers without a clock stamp 0.0.
"""

from __future__ import annotations

import itertools
import logging
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from repro.obs.metrics_registry import Counter

_log = logging.getLogger(__name__)

#: Registry of every concrete event type, keyed by its ``kind`` string.
EVENT_TYPES: dict[str, type["Event"]] = {}


@dataclass(frozen=True)
class Event:
    """Base record of one runtime happening.

    ``kind`` is a class-level discriminator (stable, snake_case); the
    correlation triple (``correlation_id``, ``span_id``, ``parent_id``) is
    stamped by the bus at emission time — emitters never fill it themselves.
    The bus stamps the object it is handed, in place: an event belongs to the
    bus once emitted, so construct a fresh one per :meth:`EventBus.emit`.
    """

    kind: ClassVar[str] = "event"

    time: float = 0.0
    resource: str = ""
    correlation_id: str = ""
    span_id: int = 0
    parent_id: int = 0

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "kind" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must define a class-level 'kind'")
        if cls.kind in EVENT_TYPES:
            raise TypeError(f"duplicate event kind {cls.kind!r}")
        EVENT_TYPES[cls.kind] = cls

    def to_dict(self) -> dict[str, object]:
        """Flat JSON-serializable view, ``kind`` included."""
        out: dict[str, object] = {"kind": self.kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


# --------------------------------------------------------------- the catalogue
@dataclass(frozen=True)
class TargetBegin(Event):
    """``__tgt_target`` entered: one offload starts (OMPT: target begin)."""

    kind: ClassVar[str] = "target_begin"
    region: str = ""
    device: str = ""
    mode: str = ""


@dataclass(frozen=True)
class TargetEnd(Event):
    """The offload returned (or raised: ``ok=False``)."""

    kind: ClassVar[str] = "target_end"
    region: str = ""
    device: str = ""
    ok: bool = True
    fell_back: bool = False
    full_s: float = 0.0


@dataclass(frozen=True)
class MapUpload(Event):
    """One mapped input buffer staged host -> device storage."""

    kind: ClassVar[str] = "map_upload"
    buffer: str = ""
    bytes_raw: int = 0
    bytes_wire: int = 0
    start: float = 0.0
    end: float = 0.0


@dataclass(frozen=True)
class MapDownload(Event):
    """One mapped output buffer brought device storage -> host."""

    kind: ClassVar[str] = "map_download"
    buffer: str = ""
    bytes_raw: int = 0
    bytes_wire: int = 0
    start: float = 0.0
    end: float = 0.0


@dataclass(frozen=True)
class CacheHit(Event):
    """A staged-input cache hit: the upload was skipped entirely."""

    kind: ClassVar[str] = "cache_hit"
    buffer: str = ""
    bytes_saved: int = 0


@dataclass(frozen=True)
class SparkSubmit(Event):
    """One ``spark-submit`` attempt over SSH (success or failure)."""

    kind: ClassVar[str] = "spark_submit"
    region: str = ""
    submission: int = 1
    ok: bool = True
    error: str = ""


@dataclass(frozen=True)
class Resubmit(Event):
    """A failed/lost Spark job is being resubmitted after a delay."""

    kind: ClassVar[str] = "resubmit"
    region: str = ""
    submission: int = 1
    delay_s: float = 0.0


@dataclass(frozen=True)
class JobStart(Event):
    """The Spark driver accepted a job and built its task set."""

    kind: ClassVar[str] = "job_start"
    job_id: int = 0
    tasks: int = 0


@dataclass(frozen=True)
class JobEnd(Event):
    """The job's last result was collected."""

    kind: ClassVar[str] = "job_end"
    job_id: int = 0
    makespan_s: float = 0.0
    tasks_recomputed: int = 0


@dataclass(frozen=True)
class TaskStart(Event):
    """One task began executing on a worker (``time`` = slot start)."""

    kind: ClassVar[str] = "task_start"
    task_id: int = 0
    worker: str = ""


@dataclass(frozen=True)
class TaskEnd(Event):
    """The task finished (``time`` = slot end)."""

    kind: ClassVar[str] = "task_end"
    task_id: int = 0
    worker: str = ""
    duration_s: float = 0.0
    attempts: int = 1


@dataclass(frozen=True)
class TaskSpeculated(Event):
    """The driver launched a speculative copy of a straggling task.

    ``time`` is the detection instant (original start +
    ``speculation_multiplier`` x median task duration); ``worker`` is the
    straggling original's executor, ``copy_worker`` the one racing it.
    """

    kind: ClassVar[str] = "task_speculated"
    task_id: int = 0
    worker: str = ""
    copy_worker: str = ""
    waited_s: float = 0.0
    median_s: float = 0.0


@dataclass(frozen=True)
class SpeculationWon(Event):
    """A speculative copy finished before the original (first result wins).

    ``saved_s`` is the modelled tail time the copy removed: the original's
    projected finish (or, for a dead original, heartbeat detection plus a
    full re-run) minus the copy's end.
    """

    kind: ClassVar[str] = "speculation_won"
    task_id: int = 0
    winner: str = ""
    loser: str = ""
    saved_s: float = 0.0


@dataclass(frozen=True)
class Retry(Event):
    """A transient failure is being retried under a RetryPolicy."""

    kind: ClassVar[str] = "retry"
    op: str = ""
    attempt: int = 1
    delay_s: float = 0.0
    error: str = ""


@dataclass(frozen=True)
class Preemption(Event):
    """A spot instance backing a worker was reclaimed by the provider."""

    kind: ClassVar[str] = "preemption"
    worker: str = ""


@dataclass(frozen=True)
class Recovery(Event):
    """A replacement worker came up for a preempted one."""

    kind: ClassVar[str] = "recovery"
    worker: str = ""
    duration_s: float = 0.0


@dataclass(frozen=True)
class Fallback(Event):
    """The runtime degraded an offload to host execution."""

    kind: ClassVar[str] = "fallback"
    region: str = ""
    device: str = ""
    reason: str = ""


@dataclass(frozen=True)
class BreakerOpen(Event):
    """The device circuit breaker tripped open."""

    kind: ClassVar[str] = "breaker_open"
    device: str = ""
    consecutive_failures: int = 0


@dataclass(frozen=True)
class ExecutorLost(Event):
    """An executor died (fault injection, preemption, task crash)."""

    kind: ClassVar[str] = "executor_lost"
    worker: str = ""
    reason: str = ""


@dataclass(frozen=True)
class StorageOp(Event):
    """One object-store operation completed (PUT/GET/HEAD/EXISTS)."""

    kind: ClassVar[str] = "storage_op"
    store: str = ""
    op: str = ""
    key: str = ""
    nbytes: int = 0


@dataclass(frozen=True)
class SSHConnect(Event):
    """An SSH session handshake (``ok=False`` for refused/unauthorized)."""

    kind: ClassVar[str] = "ssh_connect"
    host: str = ""
    user: str = ""
    ok: bool = True
    error: str = ""


@dataclass(frozen=True)
class DataEnvEnter(Event):
    """A persistent device data environment opened (``target data`` begin)."""

    kind: ClassVar[str] = "data_env_enter"
    device: str = ""
    buffers: int = 0
    bytes_to: int = 0  # raw bytes staged by the enter itself
    resident: int = 0  # entries a nested enter found already present


@dataclass(frozen=True)
class DataEnvExit(Event):
    """The environment closed; deferred dirty outputs came home."""

    kind: ClassVar[str] = "data_env_exit"
    device: str = ""
    buffers: int = 0
    bytes_from: int = 0  # raw bytes downloaded by the exit


@dataclass(frozen=True)
class TargetUpdate(Event):
    """An explicit ``target update`` moved one buffer to/from the device."""

    kind: ClassVar[str] = "target_update"
    device: str = ""
    buffer: str = ""
    direction: str = ""  # "to" (host -> device) or "from" (device -> host)
    bytes_raw: int = 0
    bytes_wire: int = 0


@dataclass(frozen=True)
class ResidentHit(Event):
    """A target's mapped buffer was already resident: transfer skipped."""

    kind: ClassVar[str] = "resident_hit"
    device: str = ""
    buffer: str = ""
    bytes_saved: int = 0  # upload bytes that did not cross the WAN


@dataclass(frozen=True)
class LogEvent(Event):
    """One SparkLog record, mirrored onto the bus."""

    kind: ClassVar[str] = "log"
    level: str = "INFO"
    component: str = ""
    message: str = ""


@dataclass(frozen=True)
class CheckpointCommit(Event):
    """One completed tile's output was durably committed to storage."""

    kind: ClassVar[str] = "checkpoint_commit"
    region: str = ""
    loop_var: str = ""
    tile: int = 0
    key: str = ""
    nbytes: int = 0
    checksum: str = ""


@dataclass(frozen=True)
class ResumeFromCheckpoint(Event):
    """A resubmission resumed from committed tile checkpoints instead of
    restarting: ``tiles_skipped`` finished tiles were restored, only
    ``tiles_rerun`` were scheduled again."""

    kind: ClassVar[str] = "resume_from_checkpoint"
    region: str = ""
    submission: int = 0
    tiles_skipped: int = 0
    tiles_rerun: int = 0
    bytes_restored: int = 0


@dataclass(frozen=True)
class CorruptionDetected(Event):
    """An object failed checksum verification on read (bit-rot, torn write,
    or injected via ``FaultPlan.corrupt_keys``).  The read was billed; the
    caller's retry policy decides whether to re-fetch or escalate."""

    kind: ClassVar[str] = "corruption_detected"
    store: str = ""
    op: str = ""        # "GET" for reads, "VERIFY" for resubmission checks
    key: str = ""
    expected: str = ""  # checksum recorded at write time
    actual: str = ""    # checksum observed on read


@dataclass(frozen=True)
class MapInferred(Event):
    """Clause inference ran on a region before staging
    (``offload(infer_maps=True)``).  Either the
    synthesized clauses replaced the user's (``changed``), nothing narrower
    could be proven, or the evidence was incomplete and inference degraded
    to the original clauses (``degraded``, with the ``reason``)."""

    kind: ClassVar[str] = "map_inferred"
    region: str = ""
    device: str = ""
    changed: bool = False
    degraded: bool = False
    narrowed: int = 0          # map clauses with a narrower direction
    partitions_added: int = 0  # synthesized per-iteration partition specs
    dropped: int = 0           # maps no loop provably touches
    reason: str = ""           # why inference degraded, empty otherwise


@dataclass(frozen=True)
class TaskwaitBegin(Event):
    """A synchronization point started flushing the deferred (``nowait``)
    offload queue — an explicit ``omp.taskwait()``, a ``TaskHandle.wait()``,
    or the end of the enclosing ``target data`` environment."""

    kind: ClassVar[str] = "taskwait_begin"
    pending: int = 0           # deferred regions about to be scheduled


@dataclass(frozen=True)
class TaskwaitEnd(Event):
    """The deferred queue drained: every region ran (fused or serialized)
    and every ``TaskHandle`` now holds its report."""

    kind: ClassVar[str] = "taskwait_end"
    regions: int = 0           # deferred regions resolved by this flush
    fused_jobs: int = 0        # fusion groups that ran as single jobs
    waves: int = 0             # topological waves the plan scheduled


@dataclass(frozen=True)
class RegionFused(Event):
    """A fusion group is about to run as one Spark job.  ``members`` are the
    original region names, ``elided`` the producer→consumer intermediates
    that never touch cluster storage, and ``bytes_saved`` the estimated
    cluster↔storage traffic the fusion avoids."""

    kind: ClassVar[str] = "region_fused"
    region: str = ""                         # merged region name ("a+b+c")
    members: tuple[str, ...] = ()
    device: str = ""
    wave: int = 0                            # topological wave of the group
    elided: tuple[str, ...] = ()
    bytes_saved: int = 0


#: Every event kind the runtime can emit (the coverage test asserts each one
#: is exercised at least once).
EVENT_KINDS: frozenset[str] = frozenset(EVENT_TYPES)

Subscriber = Callable[[Event], None]

#: Task rows the bus holds before it delivers them as one :class:`TaskBatch`.
#: A constant, not a knob: large enough that the per-batch fixed cost (one
#: lock acquisition, one transpose, one subscriber call) vanishes per row,
#: small enough that a 1M-task job never holds more than this many rows.
_BATCH_ROWS = 4096

#: Fields of one task row (the arguments of :meth:`EventBus.task_done`).
_ROW_FIELDS = 6

_TASK_KINDS = frozenset(("task_start", "task_end"))

_stamp = object.__setattr__


class TaskBatch:
    """A contiguous run of completed tasks, one column per field.

    Row ``i`` stands for the pair ``TaskStart`` (``time=start[i]``,
    ``span_id = first_span_id + 2*i``) then ``TaskEnd`` (``time=end[i]``,
    ``span_id`` one higher); the whole run shares ``correlation_id`` and
    ``parent_id``.  A subscriber with an ``on_task_batch(batch)`` method is
    handed the batch itself; every other subscriber (and the recorded
    history) gets the events of :meth:`events`, which are field for field
    what two ``emit`` calls per task would have delivered.
    """

    kind = "task_batch"

    __slots__ = ("task_id", "worker", "start", "end", "duration_s",
                 "attempts", "correlation_id", "parent_id", "first_span_id",
                 "_events")

    def __init__(self, task_id: Sequence[int], worker: Sequence[str],
                 start: Sequence[float], end: Sequence[float],
                 duration_s: Sequence[float], attempts: Sequence[int],
                 correlation_id: str = "", parent_id: int = 0,
                 first_span_id: int = 0) -> None:
        self.task_id = task_id
        self.worker = worker
        self.start = start
        self.end = end
        self.duration_s = duration_s
        self.attempts = attempts
        self.correlation_id = correlation_id
        self.parent_id = parent_id
        self.first_span_id = first_span_id
        self._events: list[Event] | None = None

    def __len__(self) -> int:
        return len(self.task_id)

    def events(self) -> list[Event]:
        """The run as stamped events, in emission order (built once)."""
        if self._events is None:
            corr, parent = self.correlation_id, self.parent_id
            span = self.first_span_id
            out: list[Event] = []
            for tid, worker, start, end, duration_s, attempts in zip(
                    self.task_id, self.worker, self.start, self.end,
                    self.duration_s, self.attempts):
                out.append(TaskStart(start, worker, corr, span, parent,
                                     tid, worker))
                out.append(TaskEnd(end, worker, corr, span + 1, parent,
                                   tid, worker, duration_s, attempts))
                span += 2
            self._events = out
        return self._events


@dataclass
class _Scope:
    correlation_id: str
    root_span: int = 0


class EventBus:
    """Typed publish/subscribe hub with per-offload correlation stamping.

    Thread-safe: the cloud plugin stages buffers from one thread each, and
    their storage/retry events land on the same bus.  ``keep_history=True``
    additionally records every emitted event (tests, derived views, traces);
    the process-default bus keeps no history so long-lived processes do not
    accumulate memory.

    Completed tasks arrive as plain rows (:meth:`task_done`) and leave in
    :class:`TaskBatch` objects.  The pending run is flushed before anything that
    could observe the difference — any :meth:`emit`, a scope boundary, a read
    of :attr:`events`, the end of the scheduler's job, or ``_BATCH_ROWS``
    rows — so a per-event subscriber sees the stream two ``emit`` calls per
    task would have produced: same kinds, fields, span ids and order.
    """

    def __init__(self, keep_history: bool = False) -> None:
        #: (callable, kinds filter, its ``on_task_batch`` or None); replaced,
        #: never mutated, so delivery iterates it without a copy.
        self._subs: tuple[tuple[Subscriber, frozenset[str] | None,
                                Callable[[TaskBatch], None] | None], ...] = ()
        self._history: list[Event] | None = [] if keep_history else None
        self._lock = threading.Lock()
        self._next_span = 1
        self._corr_seq = itertools.count(1)
        self._scopes: list[_Scope] = []
        #: Task rows reported since the last flush, in completion order,
        #: flattened (``_ROW_FIELDS`` items per row): no per-row object
        #: survives the call, and a column is one strided slice.  Only ever
        #: mutated in place by single list operations, which is what lets
        #: :meth:`task_done` stay off the lock.
        self._pending: list = []
        #: Subscriber callbacks that raised, by subscriber and event kind.
        #: A broken tool must never abort the offload it is watching, so
        #: delivery catches, counts here, and logs once per subscriber.
        #: :meth:`MetricsSubscriber.attach` surfaces this counter in its
        #: registry's exposition as ``repro_bus_subscriber_errors``.
        self.subscriber_errors = Counter(
            "repro_bus_subscriber_errors",
            "Subscriber callbacks that raised (caught; offload continued).")
        self._error_logged: set[str] = set()

    # ------------------------------------------------------------ subscribers
    def subscribe(
        self,
        fn: Subscriber,
        kinds: Iterable[str] | None = None,
    ) -> Callable[[], None]:
        """Register ``fn`` for ``kinds`` (all kinds when None).  Returns an
        unsubscribe callable.

        A subscriber that defines ``on_task_batch(batch)`` receives runs of
        completed tasks through it, as :class:`TaskBatch` columns, instead of
        one ``task_start`` and one ``task_end`` call per task."""
        want = None if kinds is None else frozenset(kinds)
        if want is not None:
            unknown = want - EVENT_KINDS
            if unknown:
                raise ValueError(f"unknown event kinds: {sorted(unknown)}")
        entry = (fn, want, getattr(fn, "on_task_batch", None))
        with self._lock:
            self._subs += (entry,)

        def unsubscribe() -> None:
            with self._lock:
                self._subs = tuple(e for e in self._subs if e is not entry)

        return unsubscribe

    # --------------------------------------------------------------- emission
    @property
    def is_active(self) -> bool:
        """Whether anything would observe an emitted event right now.

        Read without the lock (benign race): hot emitters on per-task paths
        use this to skip *constructing* event objects entirely when nobody is
        listening — :meth:`emit`'s own fast path still pays for the record
        allocation.  Subscribers attaching mid-job are not a supported
        pattern; attach before the run starts.
        """
        return bool(self._subs) or self._history is not None

    def emit(self, event: Event) -> Event | None:
        """Stamp correlation ids onto ``event`` (in place) and deliver it,
        after any pending run of task rows.

        Returns the event, or None when nothing is listening (the fast path
        skips stamping entirely)."""
        with self._lock:
            subs = self._subs
            if not subs and self._history is None:
                return None
            batch = self._take_batch()
            scope = self._scopes[-1] if self._scopes else None
            span_id = self._next_span
            self._next_span = span_id + 1
            parent = 0
            corr = event.correlation_id
            if scope is not None:
                corr = corr or scope.correlation_id
                if isinstance(event, TargetBegin) and scope.root_span == 0:
                    scope.root_span = span_id
                    parent = (self._scopes[-2].root_span
                              if len(self._scopes) > 1 else 0)
                else:
                    parent = scope.root_span
            _stamp(event, "correlation_id", corr)
            _stamp(event, "span_id", span_id)
            _stamp(event, "parent_id", parent)
            if self._history is not None:
                self._history.append(event)
        if batch is not None:
            self._deliver_batch(batch, subs)
        self._deliver(event, subs)
        return event

    def task_done(self, task_id: int, worker: str, start: float, end: float,
                  duration_s: float, attempts: int) -> None:
        """Report one completed task: what ``emit(TaskStart(time=start, ...))``
        followed by ``emit(TaskEnd(time=end, ...))`` reports, as a row.

        Rows are held until the next flush point (see the class docstring)
        and delivered as one :class:`TaskBatch`."""
        pending = self._pending
        pending.extend((task_id, worker, start, end, duration_s, attempts))
        if len(pending) >= _BATCH_ROWS * _ROW_FIELDS:
            self.flush()

    def flush(self) -> None:
        """Deliver the pending run of task rows now (no-op when empty)."""
        if not self._pending:
            return
        with self._lock:
            batch = self._take_batch()
            subs = self._subs
        if batch is not None:
            self._deliver_batch(batch, subs)

    def _take_batch(self) -> TaskBatch | None:
        """Lock held: turn the pending rows into a stamped batch — span ids
        reserved ``2·n`` at once, history recorded — ready to deliver."""
        pending = self._pending
        n = len(pending)
        if not n:
            return None
        flat = pending[:n]
        del pending[:n]  # a row reported meanwhile stays for the next run
        if not self._subs and self._history is None:
            return None  # every listener left mid-run
        scope = self._scopes[-1] if self._scopes else None
        batch = TaskBatch(
            *(flat[i::_ROW_FIELDS] for i in range(_ROW_FIELDS)),
            correlation_id=scope.correlation_id if scope is not None else "",
            parent_id=scope.root_span if scope is not None else 0,
            first_span_id=self._next_span)
        self._next_span += 2 * len(batch)
        if self._history is not None:
            self._history.extend(batch.events())
        return batch

    def _deliver_batch(self, batch: TaskBatch, subs: tuple) -> None:
        per_event = []
        for entry in subs:
            fn, want, on_batch = entry
            if want is not None and not want & _TASK_KINDS:
                continue
            if on_batch is None:
                per_event.append(entry)
                continue
            try:
                on_batch(batch)
            except Exception as exc:
                self._subscriber_raised(on_batch, batch, exc)
        if per_event:
            for event in batch.events():
                self._deliver(event, per_event)

    def _deliver(self, event: Event, subs: Iterable[tuple]) -> None:
        kind = event.kind
        for fn, want, _ in subs:
            if want is None or kind in want:
                try:
                    fn(event)
                except Exception as exc:
                    self._subscriber_raised(fn, event, exc)

    def _subscriber_raised(self, fn: Callable, event: Event | TaskBatch,
                           exc: Exception) -> None:
        """Record a raising subscriber without propagating: the offload being
        observed must not die because a tool attached to it is broken."""
        name = getattr(fn, "__qualname__", "") or type(fn).__name__
        self.subscriber_errors.inc(subscriber=name, kind=event.kind)
        with self._lock:
            first = name not in self._error_logged
            self._error_logged.add(name)
        if first:
            _log.warning(
                "event-bus subscriber %s raised on %r: %s (suppressed; "
                "further errors from this subscriber are counted in "
                "repro_bus_subscriber_errors, not logged)",
                name, event.kind, exc)

    @contextmanager
    def offload_scope(self, name: str) -> Iterator[str]:
        """Open a correlation scope for one offload of region ``name``.

        Yields the correlation id.  Scopes nest (a host fallback inside a
        cloud offload keeps the outer id as its parent span)."""
        self.flush()  # pending rows belong to the scope they were reported in
        with self._lock:
            corr = f"{name}#{next(self._corr_seq)}"
            self._scopes.append(_Scope(correlation_id=corr))
        try:
            yield corr
        finally:
            self.flush()
            with self._lock:
                self._scopes.pop()

    def current_correlation(self) -> str:
        """The innermost active correlation id ('' outside any scope)."""
        with self._lock:
            return self._scopes[-1].correlation_id if self._scopes else ""

    # ---------------------------------------------------------------- history
    @property
    def events(self) -> tuple[Event, ...]:
        """Recorded events (empty when history is disabled)."""
        self.flush()
        with self._lock:
            return tuple(self._history) if self._history is not None else ()

    def events_of(self, *kinds: str) -> list[Event]:
        return [e for e in self.events if e.kind in kinds]

    def counts(self) -> dict[str, int]:
        """Recorded events per kind (sorted by kind for stable output)."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return dict(sorted(out.items()))

    def clear(self) -> None:
        self.flush()
        with self._lock:
            if self._history is not None:
                self._history.clear()


#: Process-wide default bus (history off: zero-cost until someone subscribes).
_default_bus = EventBus()


def get_bus() -> EventBus:
    """The process-wide bus every instrumented layer emits to."""
    return _default_bus


def set_bus(bus: EventBus) -> EventBus:
    """Swap the process-wide bus; returns the previous one."""
    global _default_bus
    old = _default_bus
    _default_bus = bus
    return old


@contextmanager
def use_bus(bus: EventBus) -> Iterator[EventBus]:
    """Temporarily install ``bus`` as the process-wide bus."""
    old = set_bus(bus)
    try:
        yield bus
    finally:
        set_bus(old)
