"""Pass 1 — map-clause lint — and pass 2 — kernel dataflow cross-checks.

The map-clause linter reasons from the *declared* access sets (``reads=`` /
``writes=`` plus reduction clauses): every read must be satisfiable from an
input map or an earlier loop's output, every write must reach the host
through an output map (or stay in a region-local buffer), and maps nobody
uses — or ``tofrom`` maps used in one direction only — cost real upload
dollars in the paper's model, so they are flagged.

The dataflow cross-check then compares those declarations against what the
tile body *actually does* (see :mod:`repro.analysis.dataflow`): undeclared
accesses corrupt the Spark merge (the runtime scatters/gathers only declared
variables), phantom declarations broadcast data nobody touches.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.analysis.dataflow import analyze_body
from repro.analysis.diagnostics import Diagnostic, Span
from repro.core.api import ParallelLoop, TargetRegion


def _reduction_names(loop: ParallelLoop) -> set[str]:
    return set(loop.reduction_vars)


def check_maps(region: TargetRegion, usage_reliable: bool = True) -> list[Diagnostic]:
    """Map-clause lint over the whole region.

    ``usage_reliable=False`` (source-scanned regions whose access sets were
    inferred from partition pragmas alone) skips the checks that reason from
    the *absence* of a declared access.
    """
    out: list[Diagnostic] = []
    reads_all: set[str] = set()
    writes_all: set[str] = set()
    for loop in region.loops:
        red = _reduction_names(loop)
        reads_all |= set(loop.reads) | red
        writes_all |= set(loop.writes) | red

    mapped = {item.name for clause in region.maps for item in clause.items}
    for name in sorted(mapped):
        map_type = region.map_type_of(name)
        assert map_type is not None
        span = Span(region.name, clause=f"map({map_type.value}: {name})")
        used_read = name in reads_all
        used_write = name in writes_all
        if usage_reliable and not used_read and not used_write:
            out.append(Diagnostic.make(
                "OMP103", span,
                f"{name!r} is mapped but no loop reads or writes it; the "
                f"transfer is paid for nothing",
                hint=f"drop {name!r} from the map clauses",
            ))
            continue
        if usage_reliable and map_type.value == "tofrom":
            if not used_write:
                out.append(Diagnostic.make(
                    "OMP104", span,
                    f"{name!r} is mapped tofrom but never written; the "
                    f"download back to the host is wasted",
                    hint=f"map(to: {name}) suffices",
                ))
            elif not used_read:
                out.append(Diagnostic.make(
                    "OMP104", span,
                    f"{name!r} is mapped tofrom but never read; the upload "
                    f"to the device is wasted",
                    hint=f"map(from: {name}) suffices",
                ))
        if used_write and not map_type.is_output:
            out.append(Diagnostic.make(
                "OMP102", span,
                f"{name!r} is written but mapped {map_type.value}-only: the "
                f"result never reaches the host",
                hint=f"map(from: {name}) or map(tofrom: {name})",
            ))

    # Read-before-write, in loop order: 'from'/'alloc' maps and region-local
    # buffers hold no host data, so a read needs an earlier producing loop.
    written: set[str] = set()
    for loop in region.loops:
        red = _reduction_names(loop)
        span = Span(region.name, loop=loop.loop_var)
        for name in loop.reads:
            if name in red or name in written:
                continue
            map_type = region.map_type_of(name)
            uninitialized = (
                name in region.locals_
                or (map_type is not None and not map_type.is_input)
            )
            if uninitialized:
                kind = ("region-local buffer" if name in region.locals_
                        else f"map({map_type.value}) variable")  # type: ignore[union-attr]
                out.append(Diagnostic.make(
                    "OMP105", span,
                    f"loop reads {name!r} but no earlier loop writes it; the "
                    f"{kind} is uninitialized on the device",
                    hint=f"map(to:/tofrom: {name}) or reorder the loops",
                ))
        written |= set(loop.writes) | red
    return out


def check_dataflow(region: TargetRegion, loop: ParallelLoop) -> list[Diagnostic]:
    """Cross-check one loop's declared access sets against its body."""
    out: list[Diagnostic] = []
    span = Span(region.name, loop=loop.loop_var)
    if loop.body is None:
        out.append(Diagnostic.make(
            "OMP190", span,
            "loop has no kernel body bound; dataflow checks skipped",
        ))
        return out
    access = analyze_body(loop.body, loop.loop_var)
    if not access.source_available:
        out.append(Diagnostic.make(
            "OMP190", span,
            f"dataflow checks skipped: {access.limits[0]}",
        ))
        return out

    red = _reduction_names(loop)
    declared_reads = set(loop.reads) | red
    declared_writes = set(loop.writes) | red
    known = ({item.name for clause in region.maps for item in clause.items}
             | set(region.locals_))

    for name in sorted((access.reads | access.writes) - known):
        out.append(Diagnostic.make(
            "OMP101", span,
            f"kernel body accesses {name!r}, which is neither mapped on "
            f"region {region.name!r} nor a region-local buffer",
            hint=f"add {name!r} to a map clause or to locals_",
        ))

    for name in sorted((access.reads & known) - declared_reads):
        out.append(Diagnostic.make(
            "OMP111", span,
            f"kernel body reads {name!r} but the loop does not declare it in "
            f"reads=; the runtime will not ship it to the workers",
            hint=f"add {name!r} to reads=",
        ))
    for name in sorted((access.writes & known) - declared_writes):
        out.append(Diagnostic.make(
            "OMP112", span,
            f"kernel body writes {name!r} but the loop does not declare it "
            f"in writes=; the Spark merge will drop the result",
            hint=f"add {name!r} to writes=",
        ))

    if access.complete:
        for name in sorted(declared_reads - access.reads - red):
            out.append(Diagnostic.make(
                "OMP113", span,
                f"declared read of {name!r} is never performed by the kernel "
                f"body; the broadcast is wasted",
                hint=f"remove {name!r} from reads=",
            ))
        for name in sorted(declared_writes - access.writes - red):
            out.append(Diagnostic.make(
                "OMP113", span,
                f"declared write of {name!r} is never performed by the "
                f"kernel body",
                hint=f"remove {name!r} from writes=",
            ))
    else:
        reasons = "; ".join(access.limits)
        out.append(Diagnostic.make(
            "OMP190", span,
            f"dataflow summary is incomplete ({reasons}); phantom-access "
            f"checks skipped",
        ))
    return out


def check_inferred_maps(
    region: TargetRegion,
    scalars: Optional[Mapping[str, Union[int, float]]] = None,
) -> list[Diagnostic]:
    """Advisory pass: OMP2xx notes wherever clause inference can prove the
    user's maps are wider than the kernel needs.

    Purely informational (NOTE severity, never fatal even in strict mode);
    the inferred clause rides along as the fix-it ``hint``.  Silent whenever
    inference degrades — an incomplete dataflow summary is already reported
    as OMP190 by :func:`check_dataflow`.
    """
    # Imported lazily: infer builds on the verifier driver, which calls this
    # pass — a module-level import would be a cycle.
    from repro.analysis.infer import infer_region

    rep = infer_region(region, scalars)
    if rep.degraded or not rep.changed:
        return []
    out: list[Diagnostic] = []
    for sug in rep.suggestions():
        kind = sug.get("kind")
        name = sug.get("name")
        loop = sug.get("loop")
        suggested = str(sug.get("suggested"))
        current = sug.get("current")
        if kind == "map":
            out.append(Diagnostic.make(
                "OMP201",
                Span(region.name, clause=str(current)),
                f"{name!r} is mapped more broadly than the kernel provably "
                f"needs ({current})",
                hint=suggested,
            ))
        else:
            note = sug.get("note")
            detail = f"; {note}" if note else ""
            out.append(Diagnostic.make(
                "OMP202",
                Span(region.name, loop=str(loop) if loop is not None else None),
                f"per-iteration accesses of {name!r} are provably disjoint "
                f"across iterations{detail}",
                hint=suggested,
            ))
    return out
