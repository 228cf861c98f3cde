"""Critical-path profiler: where an offload's wall clock actually went.

The observability layer *records* what happened (events, spans, metrics);
this module computes what *gated* end-to-end latency.  Given one offload's
:class:`~repro.core.report.OffloadReport` — and optionally its slice of the
event stream and the provider's billing ledger — :func:`profile_report`
builds an :class:`OffloadProfile`:

* a **span dependency graph** over the recorded timeline (stage -> upload ->
  submit -> tile waves -> collect -> download, plus the retry/resubmit and
  speculation edges the resilience machinery leaves behind);
* the **exact critical path**: the maximum-coverage chain of pairwise
  non-overlapping spans ending at the last recorded instant.  Every wait in
  the deterministic simulator is a ``max()`` over predecessor end times, so
  temporally adjacent spans really are dependent, the chain's length is the
  critical-path length, and by construction it can never exceed the
  makespan;
* **attribution** of seconds (critical-path self time per phase, partitioned
  so phases plus residual wait sum to the wall clock exactly), wire bytes
  (from ``map_upload``/``map_download``/``target_update`` events) and
  dollars (the billing ledger's instance line items, spread over named
  phases by critical-path share and over workers by busy share);
* **straggler/skew diagnostics**: max/median tile ratio, deterministic
  p50/p95/p99 tile quantiles via the metrics registry's histogram, idle-slot
  gaps per worker, and the calibrated lognormal model's *expected* skew for
  the same tile count (:meth:`~repro.perfmodel.compute.ComputeModel.straggler_noise`);
* a **what-if estimator**: forward re-timing of the dependency graph under
  adjusted span durations ("if upload were free / cached, end-to-end shrinks
  X%"), first-order but model-consistent because the communication model is
  linear in bytes.  (``repro profile``'s ``inferred_minimal_upload`` is not
  estimated: it reruns the offload with ``infer_maps=True``.)

Surfaces: ``repro profile <benchmark>`` (tree view / ``--json`` /
``--folded`` flamegraph via :mod:`repro.obs.flamegraph`), the Perfetto
critical-path track in :mod:`repro.metrics.tracing`, the glyph row in
:mod:`repro.metrics.gantt`, and the CI-gated ``profile_attribution`` bench.
See docs/OBSERVABILITY.md ("Profiling").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.obs.metrics_registry import Histogram
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.compute import ComputeModel
from repro.simtime.timeline import Phase, Span, Timeline

if TYPE_CHECKING:  # import would cycle: core -> cloud -> obs -> profile
    from repro.core.report import OffloadReport

#: Pseudo-phase name for makespan time no recorded span covers (failure
#: detection windows under faults, for example).  Always present in the
#: attribution so phases sum to the wall clock exactly.
WAIT = "wait"


def _eps_for(t1: float) -> float:
    """Adjacency tolerance: exact in theory (waits are ``max()`` of float
    end times), a hair of slack in practice for accumulated rounding."""
    return 1e-9 + 1e-12 * abs(t1)


@dataclass(frozen=True)
class Edge:
    """One dependency edge ``spans[src] -> spans[dst]``.

    Kinds: ``seq`` (same resource, back-to-back), ``dep`` (cross-resource
    adjacency — scatter feeding a task, a task feeding its collect),
    ``retry`` (backoff that led to a resubmission), ``speculate`` (a
    speculation launch feeding the copy's first span), and ``wait`` (a gap:
    the destination waited ``lag_s`` seconds on something unrecorded).
    """

    src: int
    dst: int
    kind: str
    lag_s: float = 0.0


class SpanGraph:
    """Dependency DAG over one offload's spans.

    Nodes are indices into ``spans`` (sorted by start time); edges point
    forward in time.  Adjacency — a span starting exactly when another ends
    — is the dependency criterion: the simulator derives every start time
    from a ``max()`` over predecessor end times, so temporal adjacency is
    dependency, not coincidence.  A span with no adjacent predecessor gets a
    single ``wait`` edge from the latest span ending before it (preserving
    the gap), so the graph stays connected for what-if re-timing.
    """

    def __init__(self, spans: Sequence[Span], eps: float) -> None:
        self.spans = tuple(spans)
        self.eps = eps
        n = len(self.spans)
        self.preds: list[list[Edge]] = [[] for _ in range(n)]
        self.succs: list[list[Edge]] = [[] for _ in range(n)]
        if n == 0:
            return
        t0 = min(s.start for s in self.spans)
        # Spans sorted by end time once, for both adjacency and gap queries.
        by_end = sorted(range(n), key=lambda i: (self.spans[i].end, i))
        ends = [self.spans[i].end for i in by_end]
        for v, sv in enumerate(self.spans):
            lo = bisect.bisect_left(ends, sv.start - eps)
            hi = bisect.bisect_right(ends, sv.start + eps)
            for k in range(lo, hi):
                u = by_end[k]
                su = self.spans[u]
                if u == v:
                    continue
                # Edges must point forward in the (start, index) order so the
                # graph stays acyclic even across zero-duration spans.
                if su.start > sv.start or (su.start == sv.start and u > v):
                    continue
                self._add(Edge(src=u, dst=v, kind=_edge_kind(su, sv)))
            if not self.preds[v] and sv.start > t0 + eps:
                k = bisect.bisect_left(ends, sv.start - eps) - 1
                if k >= 0:
                    u = by_end[k]
                    self._add(Edge(src=u, dst=v, kind=WAIT,
                                   lag_s=sv.start - self.spans[u].end))

    def _add(self, edge: Edge) -> None:
        self.preds[edge.dst].append(edge)
        self.succs[edge.src].append(edge)

    def edge_count(self) -> int:
        return sum(len(p) for p in self.preds)


def _edge_kind(u: Span, v: Span) -> str:
    if u.phase is Phase.RETRY_BACKOFF and v.phase is Phase.RESUBMIT:
        return "retry"
    if u.phase is Phase.SPECULATION and v.label.endswith("-spec"):
        return "speculate"
    return "seq" if (u.resource == v.resource) else "dep"


def _critical_chain(spans: Sequence[Span], eps: float) -> list[int]:
    """Indices (time-ordered) of the maximum-coverage non-overlapping chain
    ending at the last recorded instant.

    Classic weighted chain DP over spans sorted by end time: each span
    extends the best chain among those ending by its start (within ``eps``).
    Chain spans are pairwise non-overlapping inside the observed window, so
    the chain's coverage can never exceed the makespan — the profiler's
    central invariant comes from this construction, not from trust in the
    recording.  Deterministic: ties break toward the earliest sorted span.
    """
    n = len(spans)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: (spans[i].end, spans[i].start, i))
    ends_sorted = [spans[i].end for i in order]
    best = [0.0] * n       # best chain duration ending at span i
    prev = [-1] * n
    # prefix_best[k] = (value, span index) best among order[0..k]
    prefix_best: list[tuple[float, int]] = []
    for pos, i in enumerate(order):
        si = spans[i]
        cut = bisect.bisect_right(ends_sorted, si.start + eps) - 1
        # Only spans processed before this one are eligible (same-end ties
        # are not: they would overlap a zero-duration span's instant).
        cut = min(cut, pos - 1)
        base, parent = 0.0, -1
        if cut >= 0:
            base, parent = prefix_best[cut]
        best[i] = base + si.duration
        prev[i] = parent
        cur = (best[i], i)
        if prefix_best:
            last = prefix_best[-1]
            prefix_best.append(cur if cur[0] > last[0] else last)
        else:
            prefix_best.append(cur)
    t1 = max(s.end for s in spans)
    tail = -1
    for i in order:
        if spans[i].end >= t1 - eps:
            if tail == -1 or best[i] > best[tail]:
                tail = i
    chain: list[int] = []
    while tail != -1:
        chain.append(tail)
        tail = prev[tail]
    chain.reverse()
    return chain


@dataclass(frozen=True)
class StragglerStats:
    """Tile-level skew and idle-slot diagnostics for one offload."""

    tiles: int
    median_s: float
    max_s: float
    skew: float                       # max / median tile duration
    modeled_skew: float               # calibrated lognormal's expectation
    quantiles: Mapping[str, float]    # p50/p95/p99 via Histogram.quantile
    idle_s: Mapping[str, float]       # per-worker idle inside its window
    worst_idle_worker: str
    worst_idle_s: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "tiles": self.tiles,
            "median_s": self.median_s,
            "max_s": self.max_s,
            "skew": self.skew,
            "modeled_skew": self.modeled_skew,
            "quantiles": dict(self.quantiles),
            "idle_s": dict(self.idle_s),
            "worst_idle_worker": self.worst_idle_worker,
            "worst_idle_s": self.worst_idle_s,
        }


@dataclass(frozen=True)
class WhatIf:
    """One counterfactual: the estimated makespan under adjusted durations."""

    name: str
    estimate_s: float
    baseline_s: float

    @property
    def saved_s(self) -> float:
        return self.baseline_s - self.estimate_s

    @property
    def saved_pct(self) -> float:
        return (self.saved_s / self.baseline_s * 100.0
                if self.baseline_s > 0 else 0.0)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "estimate_s": self.estimate_s,
                "saved_s": self.saved_s, "saved_pct": self.saved_pct}


@dataclass
class OffloadProfile:
    """Everything the critical-path analysis derived from one offload."""

    region: str
    device: str
    mode: str
    correlation_id: str = ""
    spans: tuple[Span, ...] = ()
    graph: SpanGraph = field(default_factory=lambda: SpanGraph((), 0.0))
    t0: float = 0.0
    t1: float = 0.0
    critical_indices: tuple[int, ...] = ()
    critical_s: float = 0.0
    wait_s: float = 0.0
    #: Seconds each phase contributed *on the critical path* (self time).
    #: Includes the ``wait`` pseudo-phase; values sum to ``wall_s`` exactly.
    phase_self_s: dict[str, float] = field(default_factory=dict)
    #: Busy resource-seconds per phase over the whole timeline (total time).
    phase_total_s: dict[str, float] = field(default_factory=dict)
    #: Wire bytes attributed per phase (uploads, downloads, updates, fabric).
    phase_bytes_wire: dict[str, int] = field(default_factory=dict)
    #: Dollars attributed per phase (billing ledger spread by self-time share).
    phase_usd: dict[str, float] = field(default_factory=dict)
    billed_usd: float = 0.0
    billed_by_sku: dict[str, float] = field(default_factory=dict)
    worker_busy_s: dict[str, float] = field(default_factory=dict)
    worker_usd: dict[str, float] = field(default_factory=dict)
    #: Total slot seconds per tile (task id), speculation copies included.
    tile_s: dict[int, float] = field(default_factory=dict)
    straggler: StragglerStats | None = None

    # ------------------------------------------------------------- geometry
    @property
    def wall_s(self) -> float:
        """End-to-end wall clock: the timeline makespan."""
        return self.t1 - self.t0

    @property
    def critical_spans(self) -> tuple[Span, ...]:
        return tuple(self.spans[i] for i in self.critical_indices)

    @property
    def critical_share(self) -> float:
        return self.critical_s / self.wall_s if self.wall_s > 0 else 1.0

    # ------------------------------------------------------------- what-ifs
    def what_if(self, adjust: Callable[[Span], float]) -> float:
        """Estimated makespan when every span's duration becomes
        ``adjust(span)``.

        Forward re-timing over the dependency graph: each span starts at the
        latest adjusted end of its predecessors (``wait`` edges keep their
        recorded lag — the destination waited on something unrecorded, which
        the adjustment cannot shrink); spans with no predecessors keep their
        recorded start.  First-order: the schedule's shape (tile placement,
        wave structure) is held fixed while durations move.
        """
        spans = self.spans
        new_end = [0.0] * len(spans)
        for v, sv in enumerate(spans):
            dur = max(0.0, float(adjust(sv)))
            preds = self.graph.preds[v]
            if preds:
                start = max(new_end[e.src] + e.lag_s for e in preds)
            else:
                start = sv.start - self.t0
            new_end[v] = start + dur
        return max(new_end, default=0.0)

    def scaled_phases(self, scales: Mapping[Phase, float]) -> float:
        """:meth:`what_if` with per-phase duration multipliers."""
        return self.what_if(
            lambda s: s.duration * scales.get(s.phase, 1.0))

    def what_if_scenarios(self) -> list[WhatIf]:
        """The standard counterfactuals (docs/OBSERVABILITY.md, Profiling):

        * ``upload_free`` — host staging costs nothing (compress + upload);
        * ``upload_cached`` — the WAN transfer is skipped but the digest/
          compress pass stays (a staging-cache hit);
        * ``download_free`` — collect-side host communication costs nothing;
        * ``no_stragglers`` — every tile runs in at most the median tile
          time (what perfect speculation would recover).
        """
        base = self.wall_s
        median = self._median_compute_s()
        scenarios = [
            WhatIf("upload_free", self.scaled_phases(
                {Phase.HOST_COMPRESS: 0.0, Phase.HOST_UPLOAD: 0.0}), base),
            WhatIf("upload_cached", self.scaled_phases(
                {Phase.HOST_UPLOAD: 0.0}), base),
            WhatIf("download_free", self.scaled_phases(
                {Phase.HOST_DOWNLOAD: 0.0, Phase.HOST_DECOMPRESS: 0.0}),
                base),
            WhatIf("no_stragglers", self.what_if(
                lambda s: (min(s.duration, median)
                           if s.phase is Phase.COMPUTE else s.duration)),
                base),
        ]
        return scenarios

    def _median_compute_s(self) -> float:
        durs = sorted(s.duration for s in self.spans
                      if s.phase is Phase.COMPUTE)
        if not durs:
            return 0.0
        mid = len(durs) // 2
        return (durs[mid] if len(durs) % 2 else
                (durs[mid - 1] + durs[mid]) / 2.0)

    # ---------------------------------------------------------------- output
    def to_item(self) -> dict[str, Any]:
        """JSON-serializable view (one item of the shared report shape)."""
        chain = []
        prev_end: float | None = None
        for i in self.critical_indices:
            s = self.spans[i]
            gap = 0.0 if prev_end is None else max(0.0, s.start - prev_end)
            chain.append({
                "phase": s.phase.value,
                "label": s.label,
                "resource": s.resource,
                "start_s": s.start - self.t0,
                "duration_s": s.duration,
                "wait_before_s": gap,
            })
            prev_end = s.end
        return {
            "region": self.region,
            "device": self.device,
            "mode": self.mode,
            "correlation_id": self.correlation_id,
            "wall_s": self.wall_s,
            "critical_path_s": self.critical_s,
            "critical_share": self.critical_share,
            "wait_s": self.wait_s,
            "spans": len(self.spans),
            "edges": self.graph.edge_count(),
            "critical_path": chain,
            "phase_self_s": dict(self.phase_self_s),
            "phase_total_s": dict(self.phase_total_s),
            "phase_bytes_wire": dict(self.phase_bytes_wire),
            "phase_usd": dict(self.phase_usd),
            "billed_usd": self.billed_usd,
            "billed_by_sku": dict(self.billed_by_sku),
            "worker_busy_s": dict(self.worker_busy_s),
            "worker_usd": dict(self.worker_usd),
            "tile_s": {str(k): v for k, v in sorted(self.tile_s.items())},
            "straggler": (self.straggler.to_dict()
                          if self.straggler is not None else None),
            "what_if": [w.to_dict() for w in self.what_if_scenarios()],
        }

    def render(self, max_chain: int = 30) -> str:
        """Human tree view: chain, attribution, diagnostics, what-ifs."""
        out = [
            f"profile {self.region!r} on {self.device} ({self.mode})",
            f"  wall {self.wall_s:.3f} s   critical path {self.critical_s:.3f} s"
            f" ({self.critical_share * 100.0:.1f}%)   wait {self.wait_s:.3f} s"
            f"   {len(self.spans)} spans / {self.graph.edge_count()} edges",
            "  critical path:",
        ]
        chain = self.critical_indices
        shown = chain if len(chain) <= max_chain else chain[:max_chain]
        prev_end: float | None = None
        for i in shown:
            s = self.spans[i]
            gap = 0.0 if prev_end is None else max(0.0, s.start - prev_end)
            wait = f"  (+{gap:.3f} s wait)" if gap > self.graph.eps else ""
            label = s.label or s.phase.value
            out.append(f"    {s.start - self.t0:10.3f}  {s.phase.value:<17}"
                       f" {label:<22} {s.duration:10.3f} s  {s.resource}"
                       f"{wait}")
            prev_end = s.end
        if len(chain) > len(shown):
            out.append(f"    ... (+{len(chain) - len(shown)} more spans)")
        out.append("  attribution (self = on critical path; total = busy):")
        for name, self_s in sorted(self.phase_self_s.items(),
                                   key=lambda kv: -kv[1]):
            if self_s <= 0.0 and self.phase_total_s.get(name, 0.0) <= 0.0:
                continue
            share = self_s / self.wall_s * 100.0 if self.wall_s > 0 else 0.0
            extras = []
            nbytes = self.phase_bytes_wire.get(name, 0)
            if nbytes:
                extras.append(f"{nbytes / 1e6:.1f} MB wire")
            usd = self.phase_usd.get(name, 0.0)
            if usd:
                extras.append(f"${usd:.4f}")
            tail = ("  " + "  ".join(extras)) if extras else ""
            out.append(f"    {name:<17} self {self_s:10.3f} s ({share:5.1f}%)"
                       f"  total {self.phase_total_s.get(name, 0.0):10.3f} s"
                       f"{tail}")
        if self.straggler is not None and self.straggler.tiles:
            st = self.straggler
            q = st.quantiles
            out.append(
                f"  tiles: {st.tiles}  median {st.median_s:.3f} s  "
                f"max {st.max_s:.3f} s  skew {st.skew:.2f}x "
                f"(model expects {st.modeled_skew:.2f}x)  "
                f"p50 {q.get('p50', 0.0):.3f} p95 {q.get('p95', 0.0):.3f} "
                f"p99 {q.get('p99', 0.0):.3f}")
            if st.worst_idle_worker:
                out.append(f"  worst idle slot: {st.worst_idle_worker} "
                           f"({st.worst_idle_s:.3f} s idle in its window)")
        if self.billed_usd:
            sku = ", ".join(f"{k} ${v:.4f}"
                            for k, v in sorted(self.billed_by_sku.items()))
            out.append(f"  billed: ${self.billed_usd:.4f}  ({sku})")
        out.append("  what-if:")
        for w in self.what_if_scenarios():
            out.append(f"    {w.name:<15} {w.estimate_s:10.3f} s  "
                       f"(-{w.saved_s:.3f} s, -{w.saved_pct:.1f}%)")
        return "\n".join(out)


# ------------------------------------------------------------------ builders
def _phase_attribution(spans: Sequence[Span], chain: Sequence[int],
                       t0: float, t1: float) -> tuple[dict[str, float], float]:
    """Partition ``[t0, t1]`` over the chain's phases plus residual wait.

    Each chain span contributes its *uncovered* extent (clamped against the
    previous chain span, so eps-overlaps never double-count); what is left
    of the makespan is ``wait``.  The values sum to ``t1 - t0`` exactly, up
    to float addition."""
    self_s: dict[str, float] = {}
    covered = 0.0
    prev_end = t0
    for i in chain:
        s = spans[i]
        contrib = max(0.0, min(s.end, t1) - max(s.start, prev_end))
        if contrib > 0.0:
            self_s[s.phase.value] = self_s.get(s.phase.value, 0.0) + contrib
            covered += contrib
        prev_end = max(prev_end, s.end)
    wait = max(0.0, (t1 - t0) - covered)
    self_s[WAIT] = wait
    return self_s, covered


def _straggler_stats(spans: Sequence[Span], tile_s: Mapping[int, float],
                     calibration: Calibration) -> StragglerStats | None:
    compute = [s for s in spans if s.phase is Phase.COMPUTE and s.resource]
    if not tile_s:
        return None
    durs = sorted(tile_s.values())
    mid = len(durs) // 2
    median = (durs[mid] if len(durs) % 2 else
              (durs[mid - 1] + durs[mid]) / 2.0)
    top = durs[-1]
    skew = top / median if median > 0 else 1.0
    # What the calibrated lognormal noise alone would predict for this many
    # tiles (heterogeneity/contention excluded): max/median of the seeded
    # per-index multipliers.
    model = ComputeModel(calibration)
    noises = sorted(model.straggler_noise(i) for i in range(len(durs)))
    nmid = len(noises) // 2
    nmed = (noises[nmid] if len(noises) % 2 else
            (noises[nmid - 1] + noises[nmid]) / 2.0)
    modeled_skew = noises[-1] / nmed if nmed > 0 else 1.0
    # Deterministic quantiles through the metrics histogram, with bounds
    # scaled to the observed range so small simulated durations resolve.
    hi = max(top, 1e-9)
    bounds = [hi * f for f in
              (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
    hist = Histogram("repro_profile_tile_seconds",
                     "Per-tile slot durations seen by the profiler.",
                     buckets=bounds)
    for d in durs:
        hist.observe(d)
    quantiles = hist.quantiles((0.5, 0.95, 0.99))
    # Idle gaps: inside each worker's active window, time not covered by
    # any of its spans (compute or cluster-side transfer work).
    idle: dict[str, float] = {}
    windows: dict[str, list[Span]] = {}
    for s in compute:
        windows.setdefault(s.resource, []).append(s)
    for worker, ws in windows.items():
        lo = min(s.start for s in ws)
        hi_w = max(s.end for s in ws)
        tl = Timeline()
        for s in spans:
            if s.resource == worker and s.end > lo and s.start < hi_w:
                tl.record(s.phase, max(s.start, lo), min(s.end, hi_w))
        idle[worker] = max(0.0, (hi_w - lo) - tl.wall())
    worst = max(sorted(idle), key=lambda w: idle[w], default="")
    return StragglerStats(
        tiles=len(durs), median_s=median, max_s=top, skew=skew,
        modeled_skew=modeled_skew, quantiles=quantiles, idle_s=idle,
        worst_idle_worker=worst, worst_idle_s=idle.get(worst, 0.0),
    )


def profile_report(
    report: OffloadReport,
    events: Iterable[Any] = (),
    ledger: Any = None,
    correlation_id: str = "",
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> OffloadProfile:
    """Profile one offload.

    ``events`` may be a recorded :class:`~repro.obs.events.EventBus` stream;
    when ``correlation_id`` is given only matching events contribute (pass
    the whole history of a multi-offload run safely).  ``ledger`` is a
    :class:`~repro.cloud.billing.BillingLedger`
    (:attr:`CloudDevice.billing_ledger`); without one, dollar attribution
    falls back to ``report.billed_usd`` as a single unlabelled total.
    """
    spans = sorted(report.timeline.spans,
                   key=lambda s: (s.start, s.end, s.resource, s.phase.value,
                                  s.label))
    if spans:
        t0 = min(s.start for s in spans)
        t1 = max(s.end for s in spans)
    else:
        t0 = t1 = 0.0
    eps = _eps_for(t1)
    graph = SpanGraph(spans, eps)
    chain = _critical_chain(spans, eps)
    phase_self, critical_s = _phase_attribution(spans, chain, t0, t1)

    phase_total: dict[str, float] = {}
    for s in spans:
        phase_total[s.phase.value] = (phase_total.get(s.phase.value, 0.0)
                                      + s.duration)

    evs = [e for e in events
           if not correlation_id
           or getattr(e, "correlation_id", "") == correlation_id]

    # Wire bytes per phase.  Events give the exact split; the report's
    # totals are the fallback so the attribution never silently drops to
    # zero when history was off.
    phase_bytes: dict[str, int] = {}

    def add_bytes(phase: Phase, n: int) -> None:
        if n:
            phase_bytes[phase.value] = phase_bytes.get(phase.value, 0) + n

    saw_transfer_events = False
    for e in evs:
        kind = getattr(e, "kind", "")
        if kind == "map_upload":
            add_bytes(Phase.HOST_UPLOAD, e.bytes_wire)
            saw_transfer_events = True
        elif kind == "map_download":
            add_bytes(Phase.HOST_DOWNLOAD, e.bytes_wire)
            saw_transfer_events = True
        elif kind == "target_update":
            add_bytes(Phase.TARGET_UPDATE, e.bytes_wire)
            saw_transfer_events = True
    if not saw_transfer_events:
        add_bytes(Phase.HOST_UPLOAD, report.bytes_up_wire)
        add_bytes(Phase.HOST_DOWNLOAD, report.bytes_down_wire)
    add_bytes(Phase.INTRA_TRANSFER, report.cluster_bytes_wire)

    # Tiles: total slot seconds per task id (speculative copies included,
    # via events when available, else worker compute spans).
    tile_s: dict[int, float] = {}
    saw_task_events = False
    for e in evs:
        if getattr(e, "kind", "") == "task_end":
            tile_s[e.task_id] = tile_s.get(e.task_id, 0.0) + e.duration_s
            saw_task_events = True
    if not saw_task_events:
        for s in spans:
            if s.phase is Phase.COMPUTE and s.label.startswith("task-"):
                tid = s.label[len("task-"):].removesuffix("-spec")
                try:
                    key = int(tid)
                except ValueError:
                    continue
                tile_s[key] = tile_s.get(key, 0.0) + s.duration

    worker_busy: dict[str, float] = {}
    for s in spans:
        if s.phase is Phase.COMPUTE and s.resource:
            worker_busy[s.resource] = (worker_busy.get(s.resource, 0.0)
                                       + s.duration)

    # Dollars: ledger line items when available, else the report total.
    billed = 0.0
    by_sku: dict[str, float] = {}
    if ledger is not None:
        billed = float(ledger.total_usd())
        by_sku = dict(ledger.by_sku())
    if billed == 0.0 and report.billed_usd:
        billed = report.billed_usd
        by_sku = {"(instance-hours)": report.billed_usd}
    phase_usd: dict[str, float] = {}
    named_s = sum(v for k, v in phase_self.items() if k != WAIT)
    if billed > 0.0:
        if named_s > 0.0:
            for name, secs in phase_self.items():
                if name != WAIT and secs > 0.0:
                    phase_usd[name] = billed * secs / named_s
        else:
            phase_usd[WAIT] = billed
    worker_usd: dict[str, float] = {}
    busy_total = sum(worker_busy.values())
    if billed > 0.0 and busy_total > 0.0:
        for worker, busy in worker_busy.items():
            worker_usd[worker] = billed * busy / busy_total

    prof = OffloadProfile(
        region=report.region_name,
        device=report.device_name,
        mode=report.mode,
        correlation_id=correlation_id,
        spans=tuple(spans),
        graph=graph,
        t0=t0,
        t1=t1,
        critical_indices=tuple(chain),
        critical_s=critical_s,
        wait_s=phase_self.get(WAIT, 0.0),
        phase_self_s=phase_self,
        phase_total_s=phase_total,
        phase_bytes_wire=phase_bytes,
        phase_usd=phase_usd,
        billed_usd=billed,
        billed_by_sku=by_sku,
        worker_busy_s=worker_busy,
        worker_usd=worker_usd,
        tile_s=tile_s,
        straggler=_straggler_stats(spans, tile_s, calibration),
    )
    return prof


def profile_offloads(bus: Any, reports: Sequence[OffloadReport],
                     ledger: Any = None,
                     calibration: Calibration = DEFAULT_CALIBRATION,
                     ) -> list[OffloadProfile]:
    """Profile several offloads recorded on one history-keeping bus.

    Reports are paired with the bus's ``target_begin`` correlation ids in
    order — the order offloads were issued, which is the order the runtime
    opened their scopes."""
    begins = [e for e in bus.events if e.kind == "target_begin"
              and e.parent_id == 0]
    corr_ids = [e.correlation_id for e in begins]
    out = []
    for i, rep in enumerate(reports):
        corr = corr_ids[i] if i < len(corr_ids) else ""
        out.append(profile_report(rep, events=bus.events, ledger=ledger,
                                  correlation_id=corr,
                                  calibration=calibration))
    return out
