"""Clause synthesis: the offload verifier run in reverse.

The PR 2 verifier *checks* user-written ``map``/partition clauses against
what a tile body provably does.  This pass runs the same machinery the other
way: from the body summary the verifier reads
(:func:`repro.analysis.dataflow.analyze_body`) and the loop structure it
derives, per array,

* the **direction** data must flow (``to``/``from``/``tofrom``), from the
  summary's read/write sets taken in loop order;
* the **per-iteration element range** each iteration touches, the summary's
  windows: :mod:`repro.core.exprs` trees over the loop variable
  (``arrays["C"][lo*n:hi*n]`` under the tile contract ``[lo, hi)`` is
  the per-iteration window ``[i*N, (i+1)*N)``);

and then synthesizes the *minimal* region map clauses plus a partition spec
for every array whose per-iteration windows are provably monotone, disjoint
and exactly covering — validated numerically over the verifier's probe
environments, exactly like ``partition_check`` validates user pragmas.

Safety is asymmetric by design: a suggestion may be *missed* but never
*wrong*.  Whenever the dataflow summary is incomplete
(``BodyAccess.complete`` is ``False``), a window cannot be recovered, or the
synthesized region fails re-verification, the pass **degrades** to the
original clauses and says why (:class:`InferenceReport.reasons`).  The
inferred region is always re-verified before being returned as runnable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from repro.analysis.dataflow import BodyAccess, Window, analyze_body
from repro.analysis.diagnostics import Severity
from repro.analysis.partition_check import _adjacent_pairs, _sample_iterations
from repro.core.api import ParallelLoop, RegionError, TargetRegion
from repro.core.exprs import Expr, ExprError
from repro.core.omp_ast import MapItem, MapType

Scalars = Mapping[str, Union[int, float]]


def analyze_ranges(loop: ParallelLoop) -> BodyAccess:
    """The body summary of one loop, windows expressed over its loop variable."""
    if loop.body is None:
        return BodyAccess(source_available=False,
                          limits=("loop has no kernel body bound",))
    return analyze_body(loop.body, loop.loop_var)


# --------------------------------------------------------- numeric validation
@dataclass(frozen=True)
class _WindowFitness:
    """Whether a window may back a to-partition (monotone + in bounds) or a
    from/tofrom-partition (also disjoint + exactly covering the extent)."""

    in_ok: bool = False
    out_ok: bool = False


def _eval_window(window: Window, env: dict[str, int], loop_var: str,
                 iteration: int) -> Optional[tuple[int, int]]:
    scope = dict(env)
    scope[loop_var] = iteration
    try:
        lo = window[0].eval(scope)
        hi = window[1].eval(scope)
    except ExprError:
        return None
    return lo, hi


def _window_fitness(
    region: TargetRegion,
    loop: ParallelLoop,
    name: str,
    window: Window,
    envs: list[dict[str, int]],
) -> _WindowFitness:
    """Validate a synthesized window numerically, exactly the way
    ``partition_check`` validates user-written bounds."""
    in_ok = True
    out_ok = True
    checked = False
    for env in envs:
        try:
            n = loop.trip_count_value(env)
        except (ExprError, RegionError):
            continue
        if n <= 0:
            continue
        try:
            extent = region.declared_length(name, env)
        except (RegionError, ExprError):
            return _WindowFitness()
        iters = _sample_iterations(n)
        bounds: dict[int, tuple[int, int]] = {}
        for i in iters:
            b = _eval_window(window, env, loop.loop_var, i)
            if b is None or b[0] < 0 or b[1] < b[0] or b[1] > extent:
                return _WindowFitness()
            bounds[i] = b
        checked = True
        for a, b2 in _adjacent_pairs(iters):
            lo_a, hi_a = bounds[a]
            lo_b, hi_b = bounds[b2]
            if lo_b < lo_a or hi_b < hi_a:
                return _WindowFitness()  # not monotone: unusable either way
            if lo_b != hi_a:
                out_ok = False  # overlap or gap: no output partition
        if bounds[iters[0]][0] != 0 or bounds[iters[-1]][1] != extent:
            out_ok = False  # does not cover the extent exactly
    if not checked:
        return _WindowFitness()
    return _WindowFitness(in_ok=in_ok, out_ok=out_ok)


# ------------------------------------------------------------------ reporting
@dataclass(frozen=True)
class ArrayEvidence:
    """Why inference believes what it believes about one array in one loop."""

    name: str
    loop_var: str
    direction: str  # "read" | "write" | "readwrite" | "reduction"
    range_text: Optional[str]  # per-iteration window, None => whole array
    confidence: str  # "proven" | "whole" | "unknown"

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "loop": self.loop_var,
            "direction": self.direction,
            "range": self.range_text,
            "confidence": self.confidence,
        }


@dataclass
class InferenceReport:
    """Outcome of one synthesis run.

    ``region`` is always safe to execute: the synthesized region when
    inference succeeded and changed something, the *original* region when it
    degraded or found nothing to improve.
    """

    region: TargetRegion
    original: TargetRegion
    degraded: bool
    reasons: tuple[str, ...]
    narrowed: int
    partitions_added: int
    dropped: tuple[str, ...]
    evidence: tuple[ArrayEvidence, ...]
    map_pragma: Optional[str]
    #: keyed ``"<loop-index>:<loop-var>"`` (loop vars may repeat across loops)
    partition_pragmas: dict[str, Optional[str]]
    _suggestions: list[dict[str, object]] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return not self.degraded and bool(self.narrowed or self.partitions_added or self.dropped)

    def suggestions(self) -> list[dict[str, object]]:
        """Fix-it payloads (``kind`` is ``"map"`` or ``"partition"``)."""
        return list(self._suggestions)

    def to_item(self) -> dict[str, object]:
        """One entry of the ``repro infer --json`` report."""
        return {
            "region": self.original.name,
            "degraded": self.degraded,
            "changed": self.changed,
            "reasons": list(self.reasons),
            "narrowed": self.narrowed,
            "partitions_added": self.partitions_added,
            "dropped": list(self.dropped),
            "map_pragma": self.map_pragma,
            "partition_pragmas": dict(self.partition_pragmas),
            "evidence": [ev.to_dict() for ev in self.evidence],
            "suggestions": self.suggestions(),
        }

    def render(self) -> str:
        lines = [f"region {self.original.name!r}:"]
        if self.degraded:
            lines.append("  degraded to the user-written clauses:")
            lines.extend(f"    - {reason}" for reason in self.reasons)
        for ev in self.evidence:
            rng = ev.range_text if ev.range_text is not None else "<whole>"
            lines.append(
                f"  loop({ev.loop_var}) {ev.name}: {ev.direction} {rng} [{ev.confidence}]"
            )
        if self.map_pragma is not None:
            lines.append(f"  inferred: #pragma {self.map_pragma}")
        for key, text in self.partition_pragmas.items():
            if text is not None:
                loop_var = key.split(":", 1)[1]
                lines.append(f"  inferred: loop({loop_var}) #pragma {text}")
        if not self.changed and not self.degraded:
            lines.append("  user clauses already minimal; nothing to change")
        return "\n".join(lines)


# ------------------------------------------------------------------ synthesis
def _subset_type(inner: MapType, outer: MapType) -> bool:
    """True when ``inner`` moves no data in a direction ``outer`` does not."""
    return ((not inner.is_input or outer.is_input)
            and (not inner.is_output or outer.is_output))


def _item_for(region: TargetRegion, name: str) -> MapItem:
    sectioned: Optional[MapItem] = None
    bare: Optional[MapItem] = None
    for clause in region.maps:
        for item in clause.items:
            if item.name != name:
                continue
            if item.upper is not None and sectioned is None:
                sectioned = item
            elif bare is None:
                bare = item
    chosen = sectioned or bare
    assert chosen is not None
    return chosen


def _window_text(name: str, window: Window) -> str:
    return f"{name}[{window[0]}:{window[1]}]"


def _spec_text(name: str, spec_lower: Optional[Expr], spec_upper: Optional[Expr]) -> str:
    if spec_upper is None:
        return name
    lower = str(spec_lower) if spec_lower is not None else ""
    return f"{name}[{lower}:{spec_upper}]"


_MAP_ORDER = (MapType.TO, MapType.FROM, MapType.TOFROM, MapType.ALLOC)


def _map_pragma_text(clauses: Mapping[MapType, list[str]]) -> Optional[str]:
    parts = [
        f"map({mt.value}: {', '.join(items)})"
        for mt in _MAP_ORDER
        for items in [clauses.get(mt, [])]
        if items
    ]
    return "omp " + " ".join(parts) if parts else None


def naive_tofrom_region(region: TargetRegion) -> TargetRegion:
    """The region as a clause-less user would get it: every mapped variable
    becomes an implicit whole-extent ``tofrom`` and all partition pragmas are
    dropped — OpenMP's default mapping, and the wire-cost worst case the
    inference bench measures against."""
    items: dict[str, MapItem] = {}
    for clause in region.maps:
        for item in clause.items:
            if item.name not in items or (item.upper is not None
                                          and items[item.name].upper is None):
                items[item.name] = item
    pragmas = [f"omp target device({region.device})" if region.device else "omp target"]
    if items:
        pragmas.append("omp map(tofrom: " + ", ".join(str(i) for i in items.values()) + ")")
    loops = [
        ParallelLoop(
            pragma=loop.pragma,
            loop_var=loop.loop_var,
            trip_count=loop.trip_count,
            reads=loop.reads,
            writes=loop.writes,
            body=loop.body,
            partition_pragma=None,
            flops_per_iter=loop.flops_per_iter,
        )
        for loop in region.loops
    ]
    return TargetRegion(
        name=region.name,
        pragmas=pragmas,
        loops=loops,
        locals_=region.locals_,
        memory_intensity=region.memory_intensity,
    )


def _degraded(region: TargetRegion, reasons: list[str],
              evidence: list[ArrayEvidence]) -> InferenceReport:
    return InferenceReport(
        region=region,
        original=region,
        degraded=True,
        reasons=tuple(reasons),
        narrowed=0,
        partitions_added=0,
        dropped=(),
        evidence=tuple(evidence),
        map_pragma=None,
        partition_pragmas={},
    )


def infer_region(
    region: TargetRegion,
    scalars: Optional[Scalars] = None,
) -> InferenceReport:
    """Synthesize minimal map/partition clauses for ``region``.

    Never narrows on incomplete evidence: any analysis limit, unresolvable
    window, or re-verification finding above NOTE degrades the result to the
    original region (``degraded=True`` with the reasons).
    """
    from repro.analysis.verifier import probe_envs, verify_region

    ranges = [analyze_ranges(loop) for loop in region.loops]
    evidence: list[ArrayEvidence] = []
    reasons: list[str] = []
    reduction_names: set[str] = set()
    for loop, lr in zip(region.loops, ranges):
        red = set(loop.reduction_vars)
        reduction_names |= red
        for name in sorted(lr.reads | lr.writes | red):
            if name in red:
                direction = "reduction"
            elif name in lr.reads and name in lr.writes:
                direction = "readwrite"
            elif name in lr.writes:
                direction = "write"
            else:
                direction = "read"
            window = lr.write_windows.get(name) or lr.read_windows.get(name)
            if not lr.complete:
                confidence = "unknown"
            elif window is not None:
                confidence = "proven"
            else:
                confidence = "whole"
            evidence.append(ArrayEvidence(
                name=name,
                loop_var=loop.loop_var,
                direction=direction,
                range_text=(f"{window[0]}:{window[1]}" if window is not None else None),
                confidence=confidence,
            ))
        if not lr.complete:
            reasons.append(f"loop({loop.loop_var}): " + "; ".join(lr.limits))

    if reasons:
        return _degraded(region, reasons, evidence)

    envs = probe_envs(region, scalars)
    free_scalars: set[str] = set()
    for env in envs:
        free_scalars |= env.keys()

    # ------------------------------------------------- window fitness per loop
    fitness: dict[tuple[int, str, str], _WindowFitness] = {}
    for idx, (loop, lr) in enumerate(zip(region.loops, ranges)):
        for kind, windows in (("read", lr.read_windows), ("write", lr.write_windows)):
            for name, window in windows.items():
                if window is None:
                    fitness[(idx, name, kind)] = _WindowFitness()
                else:
                    fitness[(idx, name, kind)] = _window_fitness(
                        region, loop, name, window, envs)

    # --------------------------------------------- region-level map directions
    declared_reads: set[str] = set()
    declared_writes: set[str] = set()
    for loop in region.loops:
        red = set(loop.reduction_vars)
        declared_reads |= set(loop.reads) | red
        declared_writes |= set(loop.writes) | red

    produced: set[str] = set()
    needs_in: set[str] = set()
    needs_out: set[str] = set()
    accessed: set[str] = set()
    for idx, (loop, lr) in enumerate(zip(region.loops, ranges)):
        red = set(loop.reduction_vars)
        for name in lr.reads | red:
            accessed.add(name)
            if name not in produced:
                needs_in.add(name)
        for name in lr.writes | red:
            accessed.add(name)
            needs_out.add(name)
        for name, window in lr.write_windows.items():
            if name not in red and window is not None \
                    and fitness[(idx, name, "write")].out_ok:
                produced.add(name)

    mapped_order: list[str] = []
    for clause in region.maps:
        for item in clause.items:
            if item.name not in mapped_order:
                mapped_order.append(item.name)

    suggestions: list[dict[str, object]] = []
    new_clauses: dict[MapType, list[str]] = {}
    narrowed = 0
    dropped: list[str] = []
    #: the (possibly narrowed) region map type of every name that stays mapped
    region_type_of: dict[str, MapType] = {}
    for name in mapped_order:
        orig_type = region.map_type_of(name)
        assert orig_type is not None
        item = _item_for(region, name)
        if name in reduction_names or orig_type == MapType.ALLOC:
            region_type_of[name] = orig_type
            new_clauses.setdefault(orig_type, []).append(str(item))
            continue
        if name not in accessed and name not in declared_reads | declared_writes:
            dropped.append(name)
            suggestions.append({
                "region": region.name, "kind": "map", "loop": None, "name": name,
                "current": f"map({orig_type.value}: {item})",
                "suggested": f"drop the map: no loop touches {name!r}",
            })
            continue
        want_in = name in needs_in or name in declared_reads
        want_out = name in needs_out or name in declared_writes
        if want_in and want_out:
            new_type = MapType.TOFROM
        elif want_out:
            new_type = MapType.FROM
        else:
            new_type = MapType.TO
        if not _subset_type(new_type, orig_type):
            new_type = orig_type  # never widen: the verifier owns that story
        if new_type != orig_type:
            narrowed += 1
            suggestions.append({
                "region": region.name, "kind": "map", "loop": None, "name": name,
                "current": f"map({orig_type.value}: {item})",
                "suggested": f"map({new_type.value}: {item})",
            })
        region_type_of[name] = new_type
        new_clauses.setdefault(new_type, []).append(str(item))

    # ------------------------------------------------- partition specs per loop
    partitions_added = 0
    new_partition_pragmas: list[Optional[str]] = []
    partition_texts: dict[str, Optional[str]] = {}
    for idx, (loop, lr) in enumerate(zip(region.loops, ranges)):
        red = set(loop.reduction_vars)
        loop_changed = False
        if loop.loop_var in free_scalars:
            # The loop variable shadows a problem-size scalar: synthesized
            # bounds would be ambiguous.  Keep the user's pragma untouched.
            new_partition_pragmas.append(loop.partition_pragma)
            partition_texts[f"{idx}:{loop.loop_var}"] = None
            continue
        items_by_type: dict[str, list[str]] = {}
        for name, spec in loop.partitions.items():
            # Existing user partitions are kept verbatim: they already passed
            # the partition checker on the original region.
            items_by_type.setdefault(spec.map_type.value, []).append(
                _spec_text(name, spec.lower, spec.upper))
        for name in sorted(lr.reads | lr.writes):
            if name in red or name in loop.partitions or name in dropped:
                continue
            read_w = lr.read_windows.get(name)
            write_w = lr.write_windows.get(name)
            window: Optional[Window] = None
            ptype: Optional[str] = None
            if name in lr.writes:
                if write_w is None:
                    continue
                if name in lr.reads:
                    if read_w != write_w:
                        continue
                    if fitness[(idx, name, "write")].out_ok:
                        window, ptype = write_w, "tofrom"
                elif fitness[(idx, name, "write")].out_ok:
                    window, ptype = write_w, "from"
            elif read_w is not None and fitness[(idx, name, "read")].in_ok:
                window, ptype = read_w, "to"
            if window is None or ptype is None:
                continue
            deps = window[0].variables() | window[1].variables()
            if loop.loop_var not in deps:
                continue  # constant window: broadcast is already minimal
            if name not in region.locals_:
                part_mt = MapType(ptype)
                reg_mt = region_type_of.get(name)
                if reg_mt is None or not _subset_type(part_mt, reg_mt):
                    continue  # direction would contradict the region map
            items_by_type.setdefault(ptype, []).append(_window_text(name, window))
            partitions_added += 1
            loop_changed = True
            suggestion: dict[str, object] = {
                "region": region.name, "kind": "partition", "loop": loop.loop_var,
                "name": name, "current": loop.partition_pragma,
                "suggested": f"omp target data map({ptype}: {_window_text(name, window)})",
            }
            extent_note = _partition_note(region, loop, name, window, envs)
            if extent_note is not None:
                suggestion["note"] = extent_note
            suggestions.append(suggestion)
        if not loop_changed:
            new_partition_pragmas.append(loop.partition_pragma)
            partition_texts[f"{idx}:{loop.loop_var}"] = None
            continue
        parts = [
            f"map({mt.value}: {', '.join(items_by_type[mt.value])})"
            for mt in _MAP_ORDER
            if items_by_type.get(mt.value)
        ]
        text = "omp target data " + " ".join(parts)
        new_partition_pragmas.append(text)
        partition_texts[f"{idx}:{loop.loop_var}"] = text

    map_pragma = _map_pragma_text(new_clauses)
    report = InferenceReport(
        region=region,
        original=region,
        degraded=False,
        reasons=(),
        narrowed=narrowed,
        partitions_added=partitions_added,
        dropped=tuple(dropped),
        evidence=tuple(evidence),
        map_pragma=map_pragma,
        partition_pragmas=partition_texts,
        _suggestions=suggestions,
    )
    if not report.changed:
        return report

    # ------------------------------------------------ rebuild and re-verify
    pragmas = [f"omp target device({region.device})" if region.device else "omp target"]
    if map_pragma is not None:
        pragmas.append(map_pragma)
    try:
        loops = [
            ParallelLoop(
                pragma=loop.pragma,
                loop_var=loop.loop_var,
                trip_count=loop.trip_count,
                reads=loop.reads,
                writes=loop.writes,
                body=loop.body,
                partition_pragma=new_partition_pragmas[idx],
                flops_per_iter=loop.flops_per_iter,
            )
            for idx, loop in enumerate(region.loops)
        ]
        inferred = TargetRegion(
            name=region.name,
            pragmas=pragmas,
            loops=loops,
            locals_=region.locals_,
            memory_intensity=region.memory_intensity,
        )
    except RegionError as exc:
        return _degraded(region, [f"synthesized region is ill-formed: {exc}"], evidence)
    gate = verify_region(inferred, scalars, advisories=False)
    if gate.max_severity > Severity.NOTE:
        codes = ", ".join(sorted(gate.codes))
        return _degraded(
            region,
            [f"synthesized clauses failed re-verification ({codes})"],
            evidence,
        )
    report.region = inferred
    return report


def _partition_note(
    region: TargetRegion,
    loop: ParallelLoop,
    name: str,
    window: Window,
    envs: list[dict[str, int]],
) -> Optional[str]:
    """The over-broadness evidence: whole-extent vs per-iteration elements."""
    for env in envs:
        try:
            extent = region.declared_length(name, env)
            n = loop.trip_count_value(env)
        except (RegionError, ExprError):
            continue
        if n <= 0:
            continue
        bounds = _eval_window(window, env, loop.loop_var, 0)
        if bounds is None:
            continue
        return (f"broadcast ships {extent} elements per task; each iteration "
                f"provably touches {bounds[1] - bounds[0]}")
    return None
