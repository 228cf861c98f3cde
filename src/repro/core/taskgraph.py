"""Deferred ``nowait`` offloads: region DAG construction and fusion.

The paper's runtime runs every ``target`` region as its own Spark job with a
full barrier after it, so chained regions (``chained_3mm``) serialize and
round-trip their intermediates through cluster storage even when a ``target
data`` environment keeps the buffers resident.  OpenMP 4.5 already has the
vocabulary for doing better: ``nowait`` turns a target region into a deferred
*target task* and ``depend(in/out/inout: ...)`` orders those tasks, with
``taskwait`` (or the end of the enclosing data environment) as the
synchronization point.

This module is the planning half of that extension:

* :class:`Depend` / :func:`depend` — the clause surface (`omp.depend`).
* :class:`TaskHandle` — the future-like value ``offload(..., nowait=True)``
  returns; resolved by ``omp.taskwait()``.
* :func:`build_plan` — turns the queue of deferred regions into a
  :class:`TaskGraphPlan`: dependence edges from explicit ``depend`` clauses
  and from inferred buffer dataflow (per-iteration access windows via
  :mod:`repro.analysis.infer` refine the edges — provably disjoint accesses
  do not order), fusion groups chosen under the legality rules below, and
  topological *waves* of independent groups.
* :func:`merge_group` — materializes a fusion group as one
  :class:`FusedRegion` whose member loops run inside a single Spark job and
  whose producer→consumer intermediates become region-local driver arrays
  (``locals_``) that never touch cluster storage.

Fusion legality (checked in :func:`build_plan`, reasons surfaced as
``FusionRejected`` entries in the offload report):

* every member resolves to the *same, available* cloud device
  (``host-fallback`` / ``device-mismatch``);
* identical execution modes and consistent scalar bindings
  (``mode-mismatch`` / ``scalar-conflict``);
* compatible tilings — every member loop has the same evaluated trip count,
  so tile boundaries per :mod:`repro.core.tiling` line up
  (``incompatible-tilings``);
* every producer→consumer intermediate is resident in the enclosing
  :class:`~repro.core.data_env.DataEnvironment`
  (``intermediate-not-resident``);
* no ``target update`` needs a materialized copy of an array the fusion
  would elide (``dirty-target-update``);
* the group is convex — no dependence path leaves the group and re-enters it
  (``dependency-interleaved``).

A group that fails any rule degrades to unfused, serialized execution of its
members; results are bit-identical either way, fusion only changes where
bytes and barriers go.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Union

from repro.core.api import ParallelLoop, RegionError, TargetRegion
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.exprs import ExprError
from repro.core.omp_ast import MapClause, MapItem, MapType

if TYPE_CHECKING:  # pragma: no cover - import cycle (runtime imports us)
    from repro.core.report import OffloadReport
    from repro.core.runtime import OffloadRuntime

__all__ = [
    "Depend",
    "DepEdge",
    "FusedRegion",
    "FusionGroup",
    "GraphNode",
    "PendingRegion",
    "TaskGraphPlan",
    "TaskHandle",
    "build_plan",
    "depend",
    "merge_group",
]

Scalars = Mapping[str, Union[int, float]]

#: Residency oracle: ``(device_name, buffer_name)`` -> the map-type value
#: ("to"/"from"/"tofrom"/"alloc") of a buffer currently mapped in that
#: device's data environment, else ``None``.
ResidencyOracle = Callable[[str, str], Optional[str]]


# ------------------------------------------------------------------ clauses
def _names(value: Union[str, Iterable[str], None]) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class Depend:
    """An OpenMP ``depend`` clause: ``depend(in: ...)``, ``depend(out: ...)``
    and ``depend(inout: ...)`` list items of one deferred target task.

    Dependences arise between two deferred regions that *both* carry depend
    clauses naming a common list item with at least one ``out``/``inout``
    side (OpenMP 4.5 §2.13.9).  Regions without clauses are ordered by
    inferred buffer dataflow instead — the runtime never reorders against a
    true data dependence it can see.
    """

    in_: tuple[str, ...] = ()
    out: tuple[str, ...] = ()
    inout: tuple[str, ...] = ()

    @property
    def reads(self) -> frozenset[str]:
        return frozenset(self.in_) | frozenset(self.inout)

    @property
    def writes(self) -> frozenset[str]:
        return frozenset(self.out) | frozenset(self.inout)

    def __str__(self) -> str:
        parts = []
        if self.in_:
            parts.append(f"depend(in: {', '.join(self.in_)})")
        if self.out:
            parts.append(f"depend(out: {', '.join(self.out)})")
        if self.inout:
            parts.append(f"depend(inout: {', '.join(self.inout)})")
        return " ".join(parts)


def depend(
    in_: Union[str, Iterable[str], None] = None,
    out: Union[str, Iterable[str], None] = None,
    inout: Union[str, Iterable[str], None] = None,
) -> Depend:
    """Build a :class:`Depend` clause (``omp.depend``).

    Accepts single names or iterables::

        omp.depend(in_=("A", "B"), out="E")
    """
    d = Depend(in_=_names(in_), out=_names(out), inout=_names(inout))
    if not (d.in_ or d.out or d.inout):
        raise RegionError("depend() needs at least one of in_/out/inout")
    return d


# ------------------------------------------------------------------- handles
class TaskHandle:
    """Future-like handle for one deferred (``nowait``) offload.

    ``wait()`` is a full ``taskwait`` — OpenMP has no per-task wait on
    target tasks, and neither does this runtime."""

    def __init__(self, region: str, runtime: "OffloadRuntime") -> None:
        self.region = region
        self.report: Optional["OffloadReport"] = None
        #: Name of the fused job this region became part of, if any.
        self.fused_into: Optional[str] = None
        self._runtime = runtime

    @property
    def done(self) -> bool:
        return self.report is not None

    def wait(self) -> "OffloadReport":
        """Flush the deferred queue (``taskwait``) and return this region's
        report (the fused job's report when the region was fused)."""
        if self.report is None:
            self._runtime.taskwait()
        if self.report is None:  # pragma: no cover - defensive
            raise RegionError(
                f"deferred region {self.region!r} did not resolve at taskwait")
        return self.report

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"TaskHandle({self.region!r}, {state})"


@dataclass
class PendingRegion:
    """One deferred offload sitting in the runtime's ``nowait`` queue."""

    region: TargetRegion
    buffers: dict[str, Buffer]
    scalars: dict[str, Union[int, float]]
    mode: ExecutionMode
    device: Union[int, str, None]
    infer_maps: bool
    strict: bool
    depend: Optional[Depend]
    handle: TaskHandle


# ----------------------------------------------------------------- plan model
@dataclass(frozen=True)
class GraphNode:
    """Planner's view of one deferred region (device already resolved)."""

    index: int
    region: TargetRegion
    device: str                  # resolved device name, for display/grouping
    host: bool                   # resolves to the host (or device is down)
    mode: str                    # ExecutionMode value
    strict: bool
    depend: Optional[Depend]
    scalars: Scalars
    nbytes: Mapping[str, int] = field(default_factory=dict)

    @property
    def reads(self) -> frozenset[str]:
        names = set(self.region.input_names)
        mapped = {i.name for c in self.region.maps for i in c.items}
        for loop in self.region.loops:
            names.update(n for n in loop.reads if n in mapped)
        return frozenset(names)

    @property
    def writes(self) -> frozenset[str]:
        names = set(self.region.output_names)
        mapped = {i.name for c in self.region.maps for i in c.items}
        for loop in self.region.loops:
            names.update(n for n in loop.writes if n in mapped)
        return frozenset(names)


@dataclass(frozen=True)
class DepEdge:
    """A dependence edge ``src -> dst`` (``src`` must run first)."""

    src: int
    dst: int
    arrays: tuple[str, ...]
    kind: str  # "depend" (explicit clauses) or "dataflow" (inferred)


@dataclass(frozen=True)
class FusionGroup:
    """One schedulable unit: either a single region or a fused chain."""

    members: tuple[int, ...]
    fused: bool
    wave: int = 0
    elided: tuple[str, ...] = ()        # intermediates that never materialize
    materialized: tuple[str, ...] = ()  # intermediates kept as `from` maps
    bytes_saved: int = 0                # estimated cluster<->storage bytes


@dataclass(frozen=True)
class TaskGraphPlan:
    """The full plan for one ``taskwait`` flush: DAG, groups, and waves."""

    nodes: tuple[GraphNode, ...]
    edges: tuple[DepEdge, ...]
    groups: tuple[FusionGroup, ...]
    waves: tuple[tuple[int, ...], ...]          # group indices per wave
    rejected: tuple[tuple[tuple[str, ...], str], ...]  # (member names, reason)

    def group_of(self, node_index: int) -> FusionGroup:
        for g in self.groups:
            if node_index in g.members:
                return g
        raise KeyError(node_index)


# ------------------------------------------------------------ window algebra
def _window_extent(
    node: GraphNode, name: str, kind: str
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Union of the evaluated access extent of ``name`` across the node's
    loops.  Returns ``(touches, extent)`` — ``extent`` is ``None`` when the
    analysis is incomplete (callers must stay conservative).

    Windows from :func:`analyze_ranges` are affine in the loop variable, so
    the union over iterations is bounded by the endpoint evaluations.
    """
    touches = False
    known = True
    lo: Optional[int] = None
    hi: Optional[int] = None
    for loop in node.region.loops:
        declared = loop.writes if kind == "write" else loop.reads
        if name not in declared:
            continue
        touches = True
        # Imported lazily: repro.analysis pulls in repro.core at package
        # import time, so a module-level import here would be circular.
        from repro.analysis.infer import analyze_ranges

        ranges = analyze_ranges(loop)
        # every window of an incomplete summary is None
        window = (ranges.write_windows if kind == "write" else ranges.read_windows).get(name)
        if window is None:
            known = False
            continue
        try:
            n = loop.trip_count_value(node.scalars)
        except (ExprError, RegionError):
            known = False
            continue
        if n <= 0:
            continue
        for iteration in (0, n - 1):
            scope: dict[str, Union[int, float]] = dict(node.scalars)
            scope[loop.loop_var] = iteration
            try:
                w_lo = int(window[0].eval(scope))
                w_hi = int(window[1].eval(scope))
            except ExprError:
                known = False
                break
            lo = w_lo if lo is None else min(lo, w_lo)
            hi = w_hi if hi is None else max(hi, w_hi)
        if not known:
            break
    if not touches:
        return False, (0, 0)
    if not known or lo is None or hi is None:
        return True, None
    return True, (lo, hi)


def _provably_disjoint(src: GraphNode, src_kind: str,
                       dst: GraphNode, dst_kind: str, name: str) -> bool:
    """True only when both access extents are known and do not overlap."""
    s_touch, s_ext = _window_extent(src, name, src_kind)
    d_touch, d_ext = _window_extent(dst, name, dst_kind)
    if not s_touch or not d_touch:
        return True  # one side never touches it at all
    if s_ext is None or d_ext is None:
        return False
    return s_ext[1] <= d_ext[0] or d_ext[1] <= s_ext[0]


# ----------------------------------------------------------------- DAG edges
def _edges_between(src: GraphNode, dst: GraphNode) -> Optional[DepEdge]:
    """Dependence edge from ``src`` to the later ``dst``, or ``None``."""
    explicit: set[str] = set()
    if src.depend is not None and dst.depend is not None:
        explicit |= src.depend.writes & dst.depend.reads   # RAW
        explicit |= src.depend.writes & dst.depend.writes  # WAW
        explicit |= src.depend.reads & dst.depend.writes   # WAR
    inferred: set[str] = set()
    for name in sorted(src.writes & dst.reads):            # RAW
        if not _provably_disjoint(src, "write", dst, "read", name):
            inferred.add(name)
    for name in sorted(src.writes & dst.writes):           # WAW
        if not _provably_disjoint(src, "write", dst, "write", name):
            inferred.add(name)
    for name in sorted(src.reads & dst.writes):            # WAR
        if not _provably_disjoint(src, "read", dst, "write", name):
            inferred.add(name)
    arrays = explicit | inferred
    if not arrays:
        return None
    kind = "depend" if explicit else "dataflow"
    return DepEdge(src=src.index, dst=dst.index,
                   arrays=tuple(sorted(arrays)), kind=kind)


def _build_edges(nodes: list[GraphNode]) -> list[DepEdge]:
    edges: list[DepEdge] = []
    for i, dst in enumerate(nodes):
        for src in nodes[:i]:
            edge = _edges_between(src, dst)
            if edge is not None:
                edges.append(edge)
    return edges


def _reachability(n: int, edges: list[DepEdge]) -> list[set[int]]:
    """``reach[i]`` = every node transitively reachable from ``i``."""
    succ: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        succ[e.src].add(e.dst)
    reach: list[set[int]] = [set(s) for s in succ]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra: set[int] = set()
            for j in reach[i]:
                extra |= reach[j]
            if not extra <= reach[i]:
                reach[i] |= extra
                changed = True
    return reach


# ------------------------------------------------------------ fusion grouping
def _trip_counts(node: GraphNode) -> Optional[frozenset[int]]:
    try:
        return frozenset(loop.trip_count_value(node.scalars)
                         for loop in node.region.loops)
    except (ExprError, RegionError):
        return None


def _attach_reason(
    members: list[GraphNode],
    node: GraphNode,
    raw_arrays: set[str],
    resident: ResidencyOracle,
) -> Optional[str]:
    """Why ``node`` cannot join the group, or ``None`` when it can."""
    if node.host or any(m.host for m in members):
        return "host-fallback"
    if any(m.device != node.device for m in members):
        return "device-mismatch"
    if any(m.mode != node.mode for m in members):
        return "mode-mismatch"
    for m in members:
        for key, value in m.scalars.items():
            if key in node.scalars and node.scalars[key] != value:
                return "scalar-conflict"
    trips = _trip_counts(node)
    if trips is None:
        return "incompatible-tilings"
    for m in members:
        m_trips = _trip_counts(m)
        if m_trips is None or m_trips != trips:
            return "incompatible-tilings"
    for name in sorted(raw_arrays):
        if resident(node.device, name) is None:
            return "intermediate-not-resident"
    return None


def build_plan(
    nodes: list[GraphNode],
    *,
    resident: ResidencyOracle,
    update_names: frozenset[str] = frozenset(),
) -> TaskGraphPlan:
    """Plan one ``taskwait`` flush.

    ``resident`` answers "is this buffer mapped in the (single) device data
    environment, and how" — fusion never invents residency.  ``update_names``
    are arrays a pending ``target update`` is about to touch; a group that
    would elide one of them is demoted (the update needs a materialized
    copy).
    """
    for pos, node in enumerate(nodes):
        if node.index != pos:
            raise RegionError(
                f"taskgraph nodes must be indexed by queue position "
                f"(node {node.region.name!r} has index {node.index}, "
                f"expected {pos})")
    edges = _build_edges(nodes)
    reach = _reachability(len(nodes), edges)
    preds: dict[int, list[DepEdge]] = {}
    for e in edges:
        preds.setdefault(e.dst, []).append(e)

    groups: list[list[int]] = []
    group_of: dict[int, int] = {}
    rejected: list[tuple[tuple[str, ...], str]] = []

    def names_of(indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(nodes[i].region.name for i in indices)

    for node in nodes:
        incoming = preds.get(node.index, [])
        # Candidate groups: those holding a direct producer of this node,
        # most recently formed first (the natural chain continuation).
        candidates: list[int] = []
        for e in incoming:
            g = group_of[e.src]
            if g not in candidates:
                candidates.append(g)
        candidates.sort(reverse=True)
        # Candidate group *sets*, most ambitious first: all producer groups
        # merged into one (a consumer legally bridging independent chains,
        # e.g. 3mm's G joining the E- and F-producers), then each single
        # group on its own.
        candidate_sets: list[tuple[int, ...]] = []
        if len(candidates) > 1:
            candidate_sets.append(tuple(sorted(candidates)))
        candidate_sets.extend((g,) for g in candidates)
        attached = False
        failure: Optional[tuple[tuple[str, ...], str]] = None
        for gs in candidate_sets:
            member_idx = sorted(i for g in gs for i in groups[g])
            members = [nodes[i] for i in member_idx]
            raw = {name for e in incoming
                   if group_of[e.src] in gs for name in e.arrays
                   if name in nodes[e.src].writes and name in node.reads}
            reason = _attach_reason(members, node, raw, resident)
            if reason is None:
                # Convexity: fusing must not sandwich an outside node that
                # sits on a dependence path between two merged nodes.
                merged = set(member_idx) | {node.index}
                for k in range(node.index):
                    if k in merged:
                        continue
                    if (any(k in reach[i] for i in merged)
                            and reach[k] & merged):
                        reason = "dependency-interleaved"
                        break
            if reason is None:
                target = min(gs)
                for g in gs:
                    if g == target:
                        continue
                    groups[target].extend(groups[g])
                    for i in groups[g]:
                        group_of[i] = target
                    groups[g] = []
                groups[target].sort()
                groups[target].append(node.index)
                group_of[node.index] = target
                attached = True
                break
            if failure is None:
                failure = (names_of([*member_idx, node.index]), reason)
        if not attached:
            if failure is not None:
                rejected.append(failure)
            group_of[node.index] = len(groups)
            groups.append([node.index])

    # Group-merge leaves emptied slots behind; queue order is preserved
    # inside each surviving group.
    groups = [g for g in groups if g]

    # ---- per-group elision decisions -----------------------------------
    final: list[FusionGroup] = []
    readers: dict[str, set[int]] = {}
    for n in nodes:
        for name in n.reads:
            readers.setdefault(name, set()).add(n.index)
    for indices in groups:
        if len(indices) == 1:
            final.append(FusionGroup(members=tuple(indices), fused=False))
            continue
        member_set = set(indices)
        intermediates: set[str] = set()
        for e in edges:
            if e.src in member_set and e.dst in member_set:
                intermediates.update(
                    name for name in e.arrays
                    if name in nodes[e.src].writes
                    and name in nodes[e.dst].reads)
        elided: list[str] = []
        materialized: list[str] = []
        bytes_saved = 0
        sizes: dict[str, int] = {}
        for n in (nodes[i] for i in indices):
            sizes.update(n.nbytes)
        device = nodes[indices[0]].device
        for name in sorted(intermediates):
            consumers = len(readers.get(name, set()) & member_set)
            external = readers.get(name, set()) - member_set
            map_type = resident(device, name)
            nbytes = sizes.get(name, 0)
            if map_type == MapType.ALLOC.value and not external:
                # Scratch residency: never copied home at environment exit,
                # so skipping the materialization is invisible to the host.
                elided.append(name)
                bytes_saved += nbytes * (1 + consumers)
            else:
                # The host (or a region outside the group) observes this
                # array: it still writes to storage once, but in-group
                # consumers read it from driver memory.
                materialized.append(name)
                bytes_saved += nbytes * consumers
        if update_names & set(elided):
            rejected.append((names_of(indices), "dirty-target-update"))
            for i in indices:
                final.append(FusionGroup(members=(i,), fused=False))
            continue
        final.append(FusionGroup(
            members=tuple(indices), fused=True,
            elided=tuple(elided), materialized=tuple(materialized),
            bytes_saved=bytes_saved))

    # ---- wave layering (Kahn levels over the group DAG) ----------------
    node_group: dict[int, int] = {}
    for gi, g in enumerate(final):
        for i in g.members:
            node_group[i] = gi
    gpreds: dict[int, set[int]] = {gi: set() for gi in range(len(final))}
    for e in edges:
        sg, dg = node_group[e.src], node_group[e.dst]
        if sg != dg:
            gpreds[dg].add(sg)
    level: dict[int, int] = {}
    remaining = set(range(len(final)))
    depth = 0
    while remaining:
        ready = sorted(gi for gi in remaining
                       if gpreds[gi] <= set(level))
        if not ready:  # pragma: no cover - DAG by construction (j < i edges)
            ready = sorted(remaining)
        for gi in ready:
            level[gi] = depth
        remaining -= set(ready)
        depth += 1
    waves: list[tuple[int, ...]] = [
        tuple(gi for gi in range(len(final)) if level[gi] == d)
        for d in range(depth)
    ]
    final = [
        FusionGroup(members=g.members, fused=g.fused, wave=level[gi],
                    elided=g.elided, materialized=g.materialized,
                    bytes_saved=g.bytes_saved)
        for gi, g in enumerate(final)
    ]
    return TaskGraphPlan(
        nodes=tuple(nodes), edges=tuple(edges), groups=tuple(final),
        waves=tuple(waves), rejected=tuple(dict.fromkeys(rejected)))


# ------------------------------------------------------------- region merging
class FusedRegion(TargetRegion):
    """A :class:`TargetRegion` assembled from a fusion group.

    Carries the member names (``fused_members``) and the elided
    intermediates (``fused_elided``) so the device plugin can journal the
    fused submission and spill elided locals for later re-staging."""

    def __init__(
        self,
        name: str,
        pragmas: tuple[str, ...],
        loops: list[ParallelLoop],
        locals_: dict[str, str],
        memory_intensity: float,
        fused_members: tuple[str, ...],
        fused_elided: tuple[str, ...],
    ) -> None:
        super().__init__(name, pragmas, loops, locals_=locals_,
                         memory_intensity=memory_intensity)
        self.fused_members = fused_members
        self.fused_elided = fused_elided


def _rename_loop(loop: ParallelLoop, suffix: str,
                 taken: set[str]) -> ParallelLoop:
    """Give the loop a collision-free loop variable, rewriting the bound
    expressions in its partition pragma to match.  ``dataclasses.replace``
    re-runs the pragma analysis, so partitions re-derive for the new name."""
    new_var = f"{loop.loop_var}{suffix}"
    while new_var in taken:
        new_var += "_"
    taken.add(new_var)
    partition = loop.partition_pragma
    if partition:
        partition = re.sub(rf"\b{re.escape(loop.loop_var)}\b", new_var,
                           partition)
    return dataclasses.replace(loop, loop_var=new_var,
                               partition_pragma=partition)


def merge_group(
    members: list[GraphNode],
    elided: tuple[str, ...],
    scalars: Scalars,
) -> FusedRegion:
    """Build the fused region for one group (members in queue order).

    Loops concatenate with unique loop variables (their checkpoint keys and
    partition specs stay distinct), elided intermediates become region-local
    driver arrays, and the merged map set is the minimal cover: inputs only
    when no in-group producer precedes the first read, outputs whenever any
    member declared one.
    """
    elided_set = set(elided)
    produced: set[str] = set()
    need_in: set[str] = set()
    need_out: set[str] = set()
    first_item: dict[str, MapItem] = {}
    order: list[str] = []
    for node in members:
        for clause in node.region.maps:
            for item in clause.items:
                if item.name in elided_set:
                    continue
                if item.name not in first_item:
                    first_item[item.name] = item
                    order.append(item.name)
                if clause.map_type.is_input and item.name not in produced:
                    need_in.add(item.name)
                if clause.map_type.is_output:
                    need_out.add(item.name)
        produced.update(node.region.output_names)

    def merged_type(name: str) -> MapType:
        if name in need_in and name in need_out:
            return MapType.TOFROM
        if name in need_in:
            return MapType.TO
        if name in need_out:
            return MapType.FROM
        return MapType.ALLOC

    clauses: list[MapClause] = []
    for map_type in (MapType.TO, MapType.FROM, MapType.TOFROM, MapType.ALLOC):
        items = tuple(first_item[name] for name in order
                      if merged_type(name) == map_type)
        if items:
            clauses.append(MapClause(map_type=map_type, items=items))

    locals_: dict[str, str] = {}
    for name in elided:
        length: Optional[int] = None
        for node in members:
            try:
                length = node.region.declared_length(name, dict(scalars))
                break
            except RegionError:
                continue
        if length is None:
            raise RegionError(
                f"cannot size elided intermediate {name!r} for fusion")
        locals_[name] = str(length)

    taken = {name for node in members for name in
             (loop.loop_var for loop in node.region.loops)}
    taken |= set(scalars)
    loops: list[ParallelLoop] = []
    for k, node in enumerate(members):
        for loop in node.region.loops:
            loops.append(_rename_loop(loop, f"__f{k}", taken))

    devices = {node.region.device for node in members
               if node.region.device is not None}
    target = "omp target"
    if len(devices) == 1:
        target += f" device({next(iter(devices))})"
    pragmas = (target, "omp " + " ".join(str(c) for c in clauses))
    name = "+".join(node.region.name for node in members)
    intensity = max(node.region.memory_intensity for node in members)
    return FusedRegion(
        name, pragmas, loops, locals_, intensity,
        fused_members=tuple(node.region.name for node in members),
        fused_elided=elided,
    )
