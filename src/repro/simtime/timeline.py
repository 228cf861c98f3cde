"""Phase timelines — the data behind Figure 5 of the paper.

The paper decomposes offload time into *host-target communication*, *Spark
overhead* and *computation*.  Internally we record finer-grained phases (gzip
compression, upload/download, broadcast, scheduling, intra-cluster shuffle,
JNI-style call overhead, the map computation itself) and roll them up into the
paper's three buckets with :meth:`Timeline.figure5_breakdown`.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


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
    # Recovery phases: backoff is charged on the host side of the channel;
    # resubmission/preemption handling is cluster-side overhead.
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


#: Process default for :class:`Timeline` coarsening (see
#: :func:`coarse_timelines`).  Off by default: every existing run records
#: exact per-activity spans, bit-identical to the historical behaviour.
_COARSE_DEFAULT = False


@contextmanager
def coarse_timelines(enabled: bool = True) -> Iterator[None]:
    """Make every :class:`Timeline` created in this scope coarse by default.

    Coarse timelines aggregate spans into one segment per (phase, resource)
    — per-worker segments instead of a million-element span list.  The
    scaling bench wraps its giant runs in this; ordinary runs never coarsen
    unless asked, so recorded traces and baselines stay exact.
    """
    global _COARSE_DEFAULT
    prev = _COARSE_DEFAULT
    _COARSE_DEFAULT = bool(enabled)
    try:
        yield
    finally:
        _COARSE_DEFAULT = prev


class Timeline:
    """An append-only collection of :class:`Span` with roll-up queries.

    The *critical-path* semantics of an offload run live in the recorded start
    and end times, not the sum of durations: parallel uploads overlap, map
    tasks overlap.  ``wall(phase)`` therefore measures the union of intervals
    of a phase, while ``busy(phase)`` sums raw durations (resource-seconds).

    A **coarse** timeline (``Timeline(coarse=True)``, or any timeline created
    under :func:`coarse_timelines`) does not retain individual spans: each
    ``record`` folds into the timeline's aggregate table — one entry per
    (phase, resource) holding the span count, the earliest start, the latest
    end and the exact busy-seconds sum.  1M task phases cost a few dict
    updates each and O(workers) memory instead of a 4M-element span list.

    Every timeline has both a span list and an aggregate table, and every
    query reads both: ``busy``/``by_resource``/``span`` stay exact; ``spans``
    shows each table entry as one merged segment (what the gantt/trace
    exporters draw as per-worker segments); ``wall`` unions those merged
    segments with the spans, an upper bound on the exact per-span union.
    ``coarse`` only decides where ``record`` puts a new activity, so a mixed
    chain — coarse job timeline -> long-lived fine device timeline -> coarse
    report — loses nothing: the final table is identical to an all-coarse
    chain.
    """

    def __init__(self, coarse: bool | None = None) -> None:
        self.coarse = _COARSE_DEFAULT if coarse is None else bool(coarse)
        self._spans: list[Span] = []
        # (phase, resource) -> [count, min_start, max_end, busy_sum]
        self._agg: dict[tuple[Phase, str], list] = {}

    def record(
        self,
        phase: Phase,
        start: float,
        end: float,
        resource: str = "",
        label: str = "",
    ) -> Span | None:
        """Record one activity.  Returns the stored span, or None when this
        timeline is coarse (aggregates don't keep individual spans)."""
        if self.coarse:
            if end < start:
                raise ValueError(
                    f"span ends before it starts: {phase} [{start}, {end})")
            e = self._agg.get((phase, resource))
            if e is None:
                self._agg[(phase, resource)] = [1, start, end, end - start]
            else:
                e[0] += 1
                if start < e[1]:
                    e[1] = start
                if end > e[2]:
                    e[2] = end
                e[3] += end - start
            return None
        span = Span(phase=phase, start=start, end=end, resource=resource, label=label)
        self._spans.append(span)
        return span

    def extend(self, other: "Timeline") -> None:
        # Spans first, then the table: the order busy sums accumulate in.
        if self.coarse:
            for s in other._spans:
                self.record(s.phase, s.start, s.end, s.resource)
        else:
            self._spans.extend(other._spans)
        for key, (cnt, lo, hi, busy) in other._agg.items():
            e = self._agg.get(key)
            if e is None:
                self._agg[key] = [cnt, lo, hi, busy]
            else:
                e[0] += cnt
                e[1] = min(e[1], lo)
                e[2] = max(e[2], hi)
                e[3] += busy

    @property
    def spans(self) -> tuple[Span, ...]:
        """The recorded spans, then one merged segment per table entry in a
        stable order."""
        return tuple(self._spans) + tuple(
            Span(phase=phase, start=lo, end=hi, resource=resource,
                 label=f"coarse:{cnt}")
            for (phase, resource), (cnt, lo, hi, _busy) in sorted(
                self._agg.items(),
                key=lambda kv: (kv[1][1], kv[0][0].value, kv[0][1])))

    def __len__(self) -> int:
        return len(self._spans) + len(self._agg)

    def filter(self, phases: Iterable[Phase]) -> "Timeline":
        keep = set(phases)
        tl = Timeline(coarse=self.coarse)
        tl._spans = [s for s in self._spans if s.phase in keep]
        tl._agg = {k: list(v) for k, v in self._agg.items() if k[0] in keep}
        return tl

    def busy(self, phase: Phase | None = None) -> float:
        """Total resource-seconds spent in ``phase`` (all phases if None).

        Exact in both modes: table entries carry the busy-seconds sum.
        """
        return (sum(s.duration for s in self._spans
                    if phase is None or s.phase == phase)
                + sum(v[3] for k, v in self._agg.items()
                      if phase is None or k[0] == phase))

    def _intervals(self, phase: Phase | None = None) -> list[tuple[float, float]]:
        """(start, end) of every span and merged table segment of ``phase``."""
        ivals = [(s.start, s.end) for s in self._spans
                 if phase is None or s.phase == phase]
        ivals.extend((v[1], v[2]) for k, v in self._agg.items()
                     if phase is None or k[0] == phase)
        return ivals

    def wall(self, phase: Phase | None = None) -> float:
        """Length of the union of intervals of ``phase`` (all phases if None).

        Table entries enter the union as their merged per-(phase, resource)
        segments, an upper bound on the per-span union.
        """
        total = 0.0
        cur_start: float | None = None
        cur_end = 0.0
        for a, b in sorted(self._intervals(phase)):
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
        ivals = self._intervals()
        if not ivals:
            return 0.0
        return max(b for _, b in ivals) - min(a for a, _ in ivals)

    def bucket_wall(self) -> dict[str, float]:
        """Union-of-intervals time per Figure-5 bucket."""
        out: dict[str, float] = {}
        for bucket in (BUCKET_HOST_COMM, BUCKET_SPARK, BUCKET_COMPUTE):
            phases = [p for p, b in _BUCKET_OF.items() if b == bucket]
            out[bucket] = self.filter(phases).wall()
        return out

    def figure5_breakdown(self, total: float | None = None) -> dict[str, float]:
        """Roll spans up into the paper's three stacked components.

        The three buckets are scaled so they sum to ``total`` (default: the
        observed makespan).  Scaling is needed because buckets overlap in time
        (computation proceeds while the next wave is being scheduled); Figure 5
        presents a stacked — i.e. partitioned — view.
        """
        walls = self.bucket_wall()
        s = sum(walls.values())
        total = self.span() if total is None else total
        if s <= 0.0:
            return {k: 0.0 for k in walls}
        return {k: v * total / s for k, v in walls.items()}

    def by_resource(self) -> Mapping[str, float]:
        """Busy seconds per resource name (exact in both modes)."""
        out: dict[str, float] = {}
        for s in self._spans:
            out[s.resource] = out.get(s.resource, 0.0) + s.duration
        for (_phase, resource), v in self._agg.items():
            out[resource] = out.get(resource, 0.0) + v[3]
        return out
