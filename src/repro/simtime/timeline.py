"""Phase timelines — the data behind Figure 5 of the paper.

The paper decomposes offload time into *host-target communication*, *Spark
overhead* and *computation*.  Internally we record finer-grained phases (gzip
compression, upload/download, broadcast, scheduling, intra-cluster shuffle,
JNI-style call overhead, the map computation itself); each phase names the
paper's bucket it rolls up into (:attr:`Phase.bucket`), and
:meth:`repro.core.report.OffloadReport.figure5_stack` gives the stacked
decomposition itself.

Most spans of an offload belong to its tasks: about seven per task (launch,
scatter, four worker phases, collect).  A Spark job therefore hands its
timeline one :class:`TaskSpans` block of columns rather than a :class:`Span`
per activity; the spans exist only once something iterates them.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


class Phase(enum.Enum):
    """Fine-grained activity classes recorded during an offload run."""

    # Host-target communication (local machine <-> cloud storage).
    HOST_COMPRESS = "host_compress"
    HOST_UPLOAD = "host_upload"
    HOST_DOWNLOAD = "host_download"
    HOST_DECOMPRESS = "host_decompress"
    # Spark / cluster overhead.
    CLUSTER_INIT = "cluster_init"
    STORAGE_READ = "storage_read"
    STORAGE_WRITE = "storage_write"
    SCHEDULING = "scheduling"
    SPECULATION = "speculation"
    BROADCAST = "broadcast"
    INTRA_TRANSFER = "intra_transfer"
    WORKER_DECOMPRESS = "worker_decompress"
    WORKER_COMPRESS = "worker_compress"
    COLLECT = "collect"
    RECONSTRUCT = "reconstruct"
    JNI_CALL = "jni_call"
    # Persistent data environments (target data / target update).
    ENV_ENTER = "env_enter"
    ENV_EXIT = "env_exit"
    TARGET_UPDATE = "target_update"
    # Recovery activity (retries, job resubmission, spot replacement...).
    RETRY_BACKOFF = "retry_backoff"
    RESUBMIT = "resubmit"
    PREEMPTION = "preemption"
    RECOVERY = "recovery"
    FALLBACK = "fallback"
    # A fused submission: several chained regions running as one Spark job
    # (recorded on its own resource row, spanning the whole fused job).
    FUSED = "fused"
    # The useful work.
    COMPUTE = "compute"

    @property
    def bucket(self) -> str:
        """Figure-5 bucket this phase rolls up into."""
        return _BUCKET_OF[self]


#: The three stacked components of Figure 5.
BUCKET_HOST_COMM = "host-target communication"
BUCKET_SPARK = "spark overhead"
BUCKET_COMPUTE = "computation"
#: Extra stacked component, present only when fault recovery charged time
#: (the paper's fault-free runs keep the original three-bucket stack).
BUCKET_RESILIENCE = "resilience"

_BUCKET_OF: dict[Phase, str] = {
    Phase.HOST_COMPRESS: BUCKET_HOST_COMM,
    Phase.HOST_UPLOAD: BUCKET_HOST_COMM,
    Phase.HOST_DOWNLOAD: BUCKET_HOST_COMM,
    Phase.HOST_DECOMPRESS: BUCKET_HOST_COMM,
    Phase.CLUSTER_INIT: BUCKET_SPARK,
    Phase.STORAGE_READ: BUCKET_SPARK,
    Phase.STORAGE_WRITE: BUCKET_SPARK,
    Phase.SCHEDULING: BUCKET_SPARK,
    # Launching a speculative straggler copy is driver-side scheduling work.
    Phase.SPECULATION: BUCKET_SPARK,
    Phase.BROADCAST: BUCKET_SPARK,
    Phase.INTRA_TRANSFER: BUCKET_SPARK,
    Phase.WORKER_DECOMPRESS: BUCKET_SPARK,
    Phase.WORKER_COMPRESS: BUCKET_SPARK,
    Phase.COLLECT: BUCKET_SPARK,
    Phase.RECONSTRUCT: BUCKET_SPARK,
    Phase.JNI_CALL: BUCKET_SPARK,
    # Environment transfers move over the host-target channel, like the
    # per-offload staging they replace.
    Phase.ENV_ENTER: BUCKET_HOST_COMM,
    Phase.ENV_EXIT: BUCKET_HOST_COMM,
    Phase.TARGET_UPDATE: BUCKET_HOST_COMM,
    # Recovery phases: every backoff span is bucketed as host-target
    # communication, whichever row it sits on -- the host's staging and SSH
    # retries and the driver's storage retries alike (the report counts all
    # backoff as resilience); resubmission/preemption handling is
    # cluster-side overhead.
    Phase.RETRY_BACKOFF: BUCKET_HOST_COMM,
    Phase.RESUBMIT: BUCKET_SPARK,
    Phase.PREEMPTION: BUCKET_SPARK,
    Phase.RECOVERY: BUCKET_SPARK,
    Phase.FALLBACK: BUCKET_HOST_COMM,
    Phase.FUSED: BUCKET_SPARK,
    Phase.COMPUTE: BUCKET_COMPUTE,
}


@dataclass(frozen=True)
class Span:
    """One contiguous activity on one resource, in simulated seconds."""

    phase: Phase
    start: float
    end: float
    resource: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self!r}")

    @property
    def duration(self) -> float:
        return self.end - self.start


#: The four worker phases of one task attempt, in the order they run.
_WORKER_PHASES = (Phase.WORKER_DECOMPRESS, Phase.JNI_CALL, Phase.COMPUTE,
                  Phase.WORKER_COMPRESS)


@contextmanager
def coarse_timelines() -> Iterator[None]:
    """Does nothing; kept importable for ``perf/workloads.py``."""
    yield


def task_spans(stage: str, task_id: int, start: float, speed: float,
               resource: str, durations: Sequence[float],
               label_suffix: str = "") -> list[Span]:
    """The worker phases of one task attempt, back to back from ``start``;
    ``durations`` are (decompress, JNI, compute, compress) at speed 1."""
    prefix = f"{stage}/" if stage else ""
    label = f"{prefix}task-{task_id}{label_suffix}"
    out = []
    cursor = start
    for phase, dur in zip(_WORKER_PHASES, durations):
        if dur > 0.0:
            scaled = dur / speed
            out.append(Span(phase, cursor, cursor + scaled, resource, label))
            cursor += scaled
    return out


@dataclass(eq=False, repr=False)
class TaskSpans:
    """One job's per-task spans, held as columns.

    Per row, in run order: ``launch-<tid>`` on the driver, ``scatter-<tid>``
    on the driver NIC (rows with input bytes), the spans its attempts
    ``attached`` (speculation launches, a copy's ``-spec`` phases, a killed
    original's phases), then — unless a speculative copy won it — the
    :func:`task_spans` of its result attempt.  The ``collect-<tid>`` spans
    follow every row, in collect order.  :meth:`spans` builds them, once;
    ``len``, :meth:`bounds` and :meth:`last_end` read the columns.  Columns
    are numbers and strings only: no closure or broadcast stays alive.
    """

    stage: str
    task_id: np.ndarray
    ready0: float
    launch_s: float
    scatter_rows: np.ndarray
    scatter_start: Sequence[float]
    scatter_end: Sequence[float]
    #: Per row: the result attempt's start and worker position.
    start: Sequence[float]
    worker: Sequence[int]
    #: Per worker position: its id and speed at job start.
    worker_ids: Sequence[str]
    speeds: Sequence[float]
    #: (decompress, JNI, compute, compress) seconds per row at speed 1.
    costs: tuple[np.ndarray, ...]
    spec_rows: set[int]
    attached: Mapping[int, list[Span]]
    collect_rows: np.ndarray
    collect_start: Sequence[float]
    #: Per row: when its result reached the driver.
    collect_end: Sequence[float]
    #: The phases this view keeps (see :meth:`only`).
    phases: frozenset[Phase] = frozenset(Phase)
    _spans: list[Span] | None = field(default=None, init=False)

    def only(self, phases: Iterable[Phase]) -> "TaskSpans":
        return replace(self, phases=self.phases & frozenset(phases))

    def spans(self) -> list[Span]:
        if self._spans is None:
            tid = self.task_id.tolist()
            launch = self._launch().tolist()
            scatter = dict(zip(self.scatter_rows.tolist(),
                               zip(self.scatter_start, self.scatter_end)))
            costs = list(zip(*(c.tolist() for c in self.costs)))
            out: list[Span] = []
            for row, t in enumerate(tid):
                out.append(Span(Phase.SCHEDULING, launch[row], launch[row + 1],
                                "driver", f"launch-{t}"))
                x = scatter.get(row)
                if x is not None:
                    out.append(Span(Phase.INTRA_TRANSFER, x[0], x[1],
                                    "driver-nic", f"scatter-{t}"))
                out.extend(self.attached.get(row, ()))
                if row not in self.spec_rows:
                    pos = self.worker[row]
                    out.extend(task_spans(self.stage, t, self.start[row],
                                          self.speeds[pos],
                                          self.worker_ids[pos], costs[row]))
            out.extend(Span(Phase.COLLECT, c0, self.collect_end[row],
                            "driver-nic", f"collect-{tid[row]}")
                       for row, c0 in zip(self.collect_rows.tolist(),
                                          self.collect_start))
            self._spans = [s for s in out if s.phase in self.phases]
        return self._spans

    def _launch(self) -> np.ndarray:
        """``ready0`` plus one ``launch_s`` per row, added one at a time."""
        n = len(self.task_id)
        return np.add.accumulate(np.r_[self.ready0, np.full(n, self.launch_s)])

    def _intervals(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(starts, ends) per phase column, for the phases this view keeps."""
        launch = self._launch()
        out = [(Phase.SCHEDULING, launch[:-1], launch[1:]),
               (Phase.INTRA_TRANSFER, np.asarray(self.scatter_start),
                np.asarray(self.scatter_end)),
               (Phase.COLLECT, np.asarray(self.collect_start),
                np.asarray(self.collect_end)[self.collect_rows])]
        rows = np.ones(len(self.task_id), dtype=bool)
        rows[list(self.spec_rows)] = False
        pos = np.asarray(self.worker, dtype=np.int64)[rows]
        speed = np.asarray(self.speeds, dtype=np.float64)[pos]
        cursor = np.asarray(self.start, dtype=np.float64)[rows]
        for phase, col in zip(_WORKER_PHASES, self.costs):
            dur = col[rows]
            end = cursor + dur / speed  # + 0.0 where the phase is skipped
            ran = dur > 0.0
            out.append((phase, cursor[ran], end[ran]))
            cursor = end
        out.extend((s.phase, np.array([s.start]), np.array([s.end]))
                   for spans in self.attached.values() for s in spans)
        return [(a, b) for phase, a, b in out if phase in self.phases and len(a)]

    def __len__(self) -> int:
        return sum(len(a) for a, _ in self._intervals())

    def bounds(self) -> tuple[float, float] | None:
        """(earliest start, latest end); None for an empty view."""
        ivals = self._intervals()
        return (min(float(a.min()) for a, _ in ivals),
                max(float(b.max()) for _, b in ivals)) if ivals else None

    def last_end(self) -> float | None:
        """End of the last span (None for an empty view)."""
        if len(self.collect_rows) and Phase.COLLECT in self.phases:
            return self.collect_end[int(self.collect_rows[-1])]
        spans = self.spans()  # no collect: rare, and cheap
        return spans[-1].end if spans else None


class Timeline:
    """An append-only sequence of activities with roll-up queries.

    The *critical-path* semantics of an offload run live in the recorded start
    and end times, not the sum of durations: parallel uploads overlap, map
    tasks overlap.  ``wall(phase)`` therefore measures the union of intervals
    of a phase, while ``busy(phase)`` sums raw durations (resource-seconds).

    ``record`` stores one :class:`Span`; ``add_tasks`` stores one job's
    :class:`TaskSpans`.  ``spans``, ``busy``, ``wall`` and ``by_resource``
    iterate the block's spans; ``len``, ``span``, ``filter`` and
    ``last_end`` read its columns and build none.
    """

    def __init__(self, coarse: bool | None = None) -> None:
        # `coarse` is accepted and ignored: perf/probes.py still passes it.
        self._items: list[Span | TaskSpans] = []

    def record(
        self,
        phase: Phase,
        start: float,
        end: float,
        resource: str = "",
        label: str = "",
    ) -> Span:
        """Record one activity; returns the stored span."""
        span = Span(phase=phase, start=start, end=end, resource=resource, label=label)
        self._items.append(span)
        return span

    def add_tasks(self, block: TaskSpans) -> None:
        """Append one job's per-task activity."""
        self._items.append(block)

    def extend(self, other: "Timeline") -> None:
        self._items.extend(other._items)

    def _iter(self) -> Iterator[Span]:
        for item in self._items:
            if isinstance(item, Span):
                yield item
            else:
                yield from item.spans()

    @property
    def spans(self) -> tuple[Span, ...]:
        """Every activity as a :class:`Span`, in record order."""
        return tuple(self._iter())

    @property
    def last_end(self) -> float:
        """End of the last recorded activity (0 for an empty timeline)."""
        for item in reversed(self._items):
            end = item.end if isinstance(item, Span) else item.last_end()
            if end is not None:
                return end
        return 0.0

    def __len__(self) -> int:
        return sum(1 if isinstance(item, Span) else len(item)
                   for item in self._items)

    def filter(self, phases: Iterable[Phase]) -> "Timeline":
        keep = set(phases)
        tl = Timeline()
        tl._items = [item.only(keep) if isinstance(item, TaskSpans) else item
                     for item in self._items
                     if isinstance(item, TaskSpans) or item.phase in keep]
        return tl

    def busy(self, phase: Phase | None = None) -> float:
        """Total resource-seconds spent in ``phase`` (all phases if None)."""
        return sum(s.duration for s in self._iter()
                   if phase is None or s.phase == phase)

    def wall(self, phase: Phase | None = None) -> float:
        """Length of the union of intervals of ``phase`` (all phases if None)."""
        total = 0.0
        cur_start: float | None = None
        cur_end = 0.0
        for a, b in sorted((s.start, s.end) for s in self._iter()
                           if phase is None or s.phase == phase):
            if cur_start is None:
                cur_start, cur_end = a, b
            elif a <= cur_end:
                cur_end = max(cur_end, b)
            else:
                total += cur_end - cur_start
                cur_start, cur_end = a, b
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    def span(self) -> float:
        """Makespan: last end minus first start (0 for an empty timeline)."""
        bounds = [b for b in ((i.start, i.end) if isinstance(i, Span)
                              else i.bounds() for i in self._items) if b]
        if not bounds:
            return 0.0
        return max(b for _, b in bounds) - min(a for a, _ in bounds)

    def by_resource(self) -> Mapping[str, float]:
        """Busy seconds per resource name."""
        out: dict[str, float] = {}
        for s in self._iter():
            out[s.resource] = out.get(s.resource, 0.0) + s.duration
        return out
