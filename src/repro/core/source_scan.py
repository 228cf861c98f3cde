"""Scanning annotated C source for offloadable regions.

The paper's front end is Clang: it sees Listing 1 as written.  This module
brings the reproduction as close as Python can get — it scans real C source
text for the pragma groups and loop headers of the OmpCloud dialect and
builds the corresponding :class:`~repro.core.api.TargetRegion` skeletons.
Loop *bodies* stay native in the paper (JNI kernels); here they are supplied
as Python tile functions keyed by loop variable, playing the JNI kernel's
role.

Supported shape (exactly the paper's listings):

    #pragma omp target device(CLOUD)
    #pragma omp map(to: A[:N*N], B[:N*N]) map(from: C[:N*N])
    #pragma omp parallel for
    for (int i = 0; i < N; ++i)
        ...loop body...
        #pragma omp target data map(to: A[i*N:(i+1)*N]) map(from: C[i*N:(i+1)*N])
        ...

Multiple ``parallel for`` loops inside one target region (2MM/3MM style) are
recognized; a ``target data`` pragma between a loop header and the next loop
attaches to the *preceding* loop (the paper places it inside the loop body,
line 5 of Listing 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.api import ParallelLoop, TargetRegion
from repro.core.omp_ast import (
    ParallelForConstruct,
    TargetConstruct,
    TargetDataConstruct,
    UnsupportedConstruct,
)
from repro.core.parser import DirectiveError, parse_pragma


class SourceScanError(Exception):
    """The source does not follow the supported annotated shape."""


#: ``for (int i = 0; i < N; ++i)`` — the canonical normalized DOALL header.
_FOR_RE = re.compile(
    r"""for\s*\(\s*
        (?:int\s+)?(?P<var>[A-Za-z_]\w*)\s*=\s*0\s*;\s*
        (?P=var)\s*<\s*(?P<bound>[^;]+?)\s*;\s*
        (?:\+\+\s*(?P=var)|(?P=var)\s*\+\+)\s*
        \)""",
    re.VERBOSE,
)

_PRAGMA_RE = re.compile(r"^\s*#\s*pragma\s+(omp\s.*?)\s*$")


@dataclass
class ScannedLoop:
    """One ``parallel for`` found in the source."""

    loop_var: str
    trip_count: str
    pragma: str
    partition_pragma: str | None = None


@dataclass
class ScannedRegion:
    """One ``target`` region found in the source."""

    pragmas: list[str] = field(default_factory=list)
    loops: list[ScannedLoop] = field(default_factory=list)
    device: str | None = None


def scan_source(source: str) -> list[ScannedRegion]:
    """Extract the offloadable regions of annotated C source text."""
    events = _lex_events(source)
    regions: list[ScannedRegion] = []
    current: ScannedRegion | None = None
    pending_pf: str | None = None

    for kind, payload in events:
        if kind == "pragma":
            parsed = _parse(payload)
            nodes = parsed if isinstance(parsed, tuple) else (parsed,)
            for node in nodes:
                if isinstance(node, UnsupportedConstruct):
                    raise SourceScanError(
                        f"region uses unsupported '{node.name}' directive "
                        f"(paper Section III-D)"
                    )
                if isinstance(node, TargetConstruct):
                    if node.device is not None or current is None:
                        current = ScannedRegion()
                        regions.append(current)
                    current.pragmas.append(payload)
                    if node.device is not None:
                        current.device = node.device
                elif isinstance(node, ParallelForConstruct):
                    if current is None:
                        raise SourceScanError(
                            f"'parallel for' outside any target region: {payload!r}"
                        )
                    pending_pf = payload
                elif isinstance(node, TargetDataConstruct):
                    if current is None or not current.loops:
                        raise SourceScanError(
                            f"'target data' with no preceding loop: {payload!r}"
                        )
                    current.loops[-1].partition_pragma = payload
        else:  # for-header
            var, bound = payload
            if current is None or pending_pf is None:
                continue  # an un-annotated loop: not offloaded
            current.loops.append(
                ScannedLoop(loop_var=var, trip_count=bound, pragma=pending_pf)
            )
            pending_pf = None

    return [r for r in regions if r.loops]


def region_from_source(
    source: str,
    name: str,
    bodies: Mapping[str, Callable] | Callable | None = None,
    reads: Mapping[str, tuple[str, ...]] | None = None,
    writes: Mapping[str, tuple[str, ...]] | None = None,
    locals_: Mapping[str, str] | None = None,
    memory_intensity: float = 1.0,
    flops_per_iter: Mapping[str, object] | None = None,
) -> TargetRegion:
    """Build a runnable :class:`TargetRegion` from annotated C source.

    ``bodies`` maps loop variable -> tile body (or a single callable when the
    region has one loop); ``reads``/``writes`` map loop variable -> variable
    names the kernel touches (defaulting to the partition pragma's variables).
    """
    scanned = scan_source(source)
    if len(scanned) != 1:
        raise SourceScanError(
            f"expected exactly one target region in the source, found {len(scanned)}"
        )
    region = scanned[0]
    loops = []
    for sl in region.loops:
        body = None
        if callable(bodies):
            if len(region.loops) != 1:
                raise SourceScanError(
                    "a single body callable needs a single-loop region; "
                    "pass a {loop_var: body} mapping instead"
                )
            body = bodies
        elif bodies is not None:
            body = bodies.get(sl.loop_var)
        loop_reads = (reads or {}).get(sl.loop_var)
        loop_writes = (writes or {}).get(sl.loop_var)
        if loop_reads is None or loop_writes is None:
            inferred_r, inferred_w = _infer_access(sl, body)
            loop_reads = loop_reads if loop_reads is not None else inferred_r
            loop_writes = loop_writes if loop_writes is not None else inferred_w
            if sl.partition_pragma is None and not loop_reads and not loop_writes:
                # Nothing to infer from: without access sets the runtime
                # would silently ship *no* data and the kernel would compute
                # on garbage.  Refuse loudly instead.
                raise SourceScanError(
                    f"loop over {sl.loop_var!r} has no partition pragma and "
                    f"no explicit reads=/writes=; cannot infer which "
                    f"variables the kernel touches — pass "
                    f"reads={{{sl.loop_var!r}: (...)}} and "
                    f"writes={{{sl.loop_var!r}: (...)}}, or add a "
                    f"'target data map(...)' pragma inside the loop"
                )
        loops.append(
            ParallelLoop(
                pragma=sl.pragma,
                loop_var=sl.loop_var,
                trip_count=sl.trip_count,
                reads=loop_reads,
                writes=loop_writes,
                partition_pragma=sl.partition_pragma,
                body=body,
                flops_per_iter=(flops_per_iter or {}).get(sl.loop_var),
            )
        )
    return TargetRegion(
        name=name,
        pragmas=region.pragmas,
        loops=loops,
        locals_=locals_,
        memory_intensity=memory_intensity,
    )


# ------------------------------------------------------------------ internals
def _lex_events(source: str) -> list[tuple[str, object]]:
    """Interleave pragma lines and for-headers in source order."""
    events: list[tuple[int, str, object]] = []
    for m in _FOR_RE.finditer(source):
        events.append((m.start(), "for", (m.group("var"), m.group("bound").strip())))
    offset = 0
    for line in source.splitlines(keepends=True):
        m = _PRAGMA_RE.match(line)
        if m:
            events.append((offset, "pragma", m.group(1).strip()))
        offset += len(line)
    events.sort(key=lambda e: e[0])
    return [(kind, payload) for _, kind, payload in events]


def _parse(pragma_text: str):
    try:
        return parse_pragma(pragma_text)
    except DirectiveError as e:
        raise SourceScanError(str(e)) from e


def _infer_access(sl: ScannedLoop, body=None) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Default reads/writes for a scanned loop.

    With a kernel ``body`` bound, the shared dataflow pass
    (:func:`repro.analysis.dataflow.analyze_body`) is authoritative — the
    same analysis ``repro lint`` uses, so source scanning can no longer
    misclassify a write-only array as an input just because its partition
    says ``map(to:)``.  When the dataflow summary is *incomplete*, the
    body-derived sets are unioned with the pragma-derived ones (degrade by
    widening, never by dropping).  Without a body, the partition pragma's
    map types remain the only evidence, as before.
    """
    pragma_reads: list[str] = []
    pragma_writes: list[str] = []
    if sl.partition_pragma is not None:
        parsed = parse_pragma(sl.partition_pragma)
        assert isinstance(parsed, TargetDataConstruct)
        for clause in parsed.maps:
            for item in clause.items:
                if clause.map_type.is_input and item.name not in pragma_reads:
                    pragma_reads.append(item.name)
                if clause.map_type.is_output and item.name not in pragma_writes:
                    pragma_writes.append(item.name)
    if body is None:
        return tuple(pragma_reads), tuple(pragma_writes)
    # Imported here: repro.analysis builds on repro.core, not the reverse.
    from repro.analysis.dataflow import analyze_body

    access = analyze_body(body, sl.loop_var)
    if not access.source_available:
        return tuple(pragma_reads), tuple(pragma_writes)
    reads = sorted(access.reads)
    writes = sorted(access.writes)
    if not access.complete:
        reads = sorted(set(reads) | set(pragma_reads))
        writes = sorted(set(writes) | set(pragma_writes))
    return tuple(reads), tuple(writes)
