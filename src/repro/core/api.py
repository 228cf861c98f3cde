"""Public programming model: annotated target regions.

The C original of Listing 1 becomes, in this reproduction:

    region = TargetRegion(
        name="matmul",
        pragmas=[
            "omp target device(CLOUD)",
            "omp map(to: A[0:N*N], B[0:N*N]) map(from: C[0:N*N])",
        ],
        loops=[
            ParallelLoop(
                pragma="omp parallel for",
                loop_var="i",
                trip_count="N",
                reads=("A", "B"),
                writes=("C",),
                partition_pragma="omp target data map(to: A[i*N:(i+1)*N]) "
                                 "map(from: C[i*N:(i+1)*N])",
                body=matmul_tile,
            )
        ],
    )
    offload(region, arrays={"A": a, "B": b, "C": c}, scalars={"N": n})

The *tile body* is the loop body after Algorithm 1's tiling: it receives the
tile bounds ``[lo, hi)`` plus the mapped arrays — partitioned ones as
:class:`~repro.core.buffers.OffsetArray` windows addressed in **global**
coordinates, so the same body text works partitioned or not, exactly like the
paper's JNI kernels.

Multiple ``ParallelLoop`` s in one region become "successive map-reduce
transformations within the Spark job" (Section III-D); ``locals_`` declares
the intermediate buffers that live on the cluster between loops and never
cross the WAN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.buffers import Buffer, ExecutionMode
from repro.core.exprs import parse_expr
from repro.core.omp_ast import (
    MapClause,
    MapItem,
    MapType,
    ParallelForConstruct,
    TargetConstruct,
    TargetDataConstruct,
    UnsupportedConstruct,
)
from repro.core.parser import parse_pragma
from repro.core.partition import PartitionSpec, spec_from_map_item

#: body(lo, hi, arrays, scalars) -> None, writing into the output arrays.
TileBody = Callable[[int, int, Mapping[str, object], Mapping[str, Union[int, float]]], None]
#: flops consumed by iteration i given the scalar environment.  It may also be
#: called with an int64 index array ``i`` and then returns one value per
#: iteration, or one scalar for all of them; anything else (a raise, another
#: shape, values that scalar calls do not confirm) is evaluated one iteration
#: at a time.
FlopsPerIter = Callable[[int, Mapping[str, Union[int, float]]], float]

#: Below this bound a sum of integer-valued float64s is exact in any order.
_EXACT_SUM_BOUND = 2.0 ** 53


class RegionError(Exception):
    """Ill-formed target region."""


@dataclass
class ParallelLoop:
    """One ``parallel for`` inside a target region."""

    pragma: str
    loop_var: str
    trip_count: Union[str, int]
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    body: Optional[TileBody] = None
    partition_pragma: Optional[str] = None
    flops_per_iter: Union[FlopsPerIter, float, None] = None

    # Filled by _analyze().
    parallel_for: ParallelForConstruct = field(init=False, repr=False)
    partitions: dict[str, PartitionSpec] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._analyze()

    def _analyze(self) -> None:
        parsed = parse_pragma(self.pragma)
        if isinstance(parsed, tuple):
            raise RegionError(
                f"loop pragma must be a plain 'parallel for', got combined form: {self.pragma!r}"
            )
        if not isinstance(parsed, ParallelForConstruct):
            raise RegionError(f"loop pragma is not a parallel for: {self.pragma!r}")
        self.parallel_for = parsed
        self.partitions = {}
        if self.partition_pragma is not None:
            pdata = parse_pragma(self.partition_pragma)
            if not isinstance(pdata, TargetDataConstruct):
                raise RegionError(
                    f"partition pragma must be a 'target data map', got {self.partition_pragma!r}"
                )
            for clause in pdata.maps:
                for item in clause.items:
                    spec = spec_from_map_item(item, clause.map_type, self.loop_var)
                    if item.name in self.partitions:
                        raise RegionError(
                            f"variable {item.name!r} partitioned twice in {self.partition_pragma!r}"
                        )
                    self.partitions[item.name] = spec

    # ------------------------------------------------------------- queries
    @property
    def reduction_vars(self) -> dict[str, str]:
        """Map variable name -> reduction operator."""
        out: dict[str, str] = {}
        for red in self.parallel_for.reductions:
            for name in red.variables:
                out[name] = red.op
        return out

    def trip_count_value(self, env: Mapping[str, Union[int, float]]) -> int:
        if isinstance(self.trip_count, int):
            n = self.trip_count
        else:
            n = parse_expr(self.trip_count).eval(env)
        if n < 0:
            raise RegionError(f"negative trip count {n} for loop over {self.loop_var!r}")
        return n

    def tile_flops(
        self,
        lo: Union[int, np.ndarray],
        hi: Union[int, np.ndarray],
        env: Mapping[str, Union[int, float]],
    ) -> Union[float, np.ndarray]:
        """Flops of the tile ``[lo, hi)``, or of every tile when ``lo`` and
        ``hi`` are int64 arrays of tile bounds (then a float64 array).

        A callable ``flops_per_iter`` is evaluated once on the index array
        spanning all tiles; when that result cannot be shown to equal the
        per-iteration sum bit for bit, it is summed one iteration at a time.
        """
        fpi = self.flops_per_iter
        los = np.atleast_1d(np.asarray(lo, dtype=np.int64))
        his = np.atleast_1d(np.asarray(hi, dtype=np.int64))
        if fpi is None:
            out = np.zeros(len(los))
        elif not callable(fpi):
            out = float(fpi) * (his - los)
        else:
            out = _vector_flops(fpi, los, his, env)
            if out is None:
                out = _scalar_flops(fpi, los, his, env)
        return out if np.ndim(lo) else float(out[0])


def _scalar_flops(fpi: FlopsPerIter, lo: np.ndarray, hi: np.ndarray,
                  env: Mapping[str, Union[int, float]]) -> np.ndarray:
    """Per-tile flops, one call and one left-to-right add per iteration."""
    return np.fromiter(
        (sum(float(fpi(i, env)) for i in range(a, b))
         for a, b in zip(lo.tolist(), hi.tolist())),
        dtype=np.float64, count=len(lo))


def _vector_flops(fpi: FlopsPerIter, lo: np.ndarray, hi: np.ndarray,
                  env: Mapping[str, Union[int, float]]) -> Optional[np.ndarray]:
    """Per-tile flops from one call of ``fpi`` on ``arange(min lo, max hi)``,
    or None unless they provably equal :func:`_scalar_flops`: the values are
    finite integers whose sums stay below 2**53 (so any summation order is
    exact), and scalar calls at every tile's first iteration and at the last
    iteration agree with them."""
    if not len(lo) or hi.max() <= lo.min():
        return np.zeros(len(lo))
    base = int(lo.min())
    span = int(hi.max()) - base
    try:
        # A user callable may fail on an array in any way; the scalar path
        # then evaluates it exactly as before, raising what it raises.
        values = np.asarray(fpi(np.arange(base, base + span), env), dtype=np.float64)
    except Exception:
        return None
    if values.ndim and values.shape != (span,):
        return None
    if not (np.isfinite(values).all() and (values == np.floor(values)).all()):
        return None
    if float(np.abs(values).max()) * span >= _EXACT_SUM_BOUND:
        return None
    # The last iteration has the largest ``i``: a polynomial in ``i`` that
    # wraps in int64 (Python ints do not) overflows there first.
    samples = np.unique(np.append(lo[lo < hi], base + span - 1))
    try:
        expected = np.array([float(fpi(i, env)) for i in samples.tolist()])
    except Exception:
        return None
    got = values if values.ndim == 0 else values[samples - base]
    if not (got == expected).all():
        return None
    if values.ndim == 0:
        flops = float(values) * (hi - lo)
    else:
        prefix = np.concatenate(([0.0], np.cumsum(values)))
        flops = prefix[hi - base] - prefix[lo - base]
    # A sum starting from 0 is never -0.0; ``+ 0.0`` maps the -0.0 of a
    # negative value times an empty tile, or of a run of -0.0s, to 0.0.
    return flops + 0.0


class TargetRegion:
    """A ``target device(...)`` region: maps + one or more parallel loops."""

    def __init__(
        self,
        name: str,
        pragmas: Sequence[str],
        loops: Sequence[ParallelLoop],
        locals_: Mapping[str, Union[str, int]] | None = None,
        memory_intensity: float = 1.0,
    ) -> None:
        if not loops:
            raise RegionError(f"region {name!r} has no parallel loops")
        if not 0.0 <= memory_intensity <= 1.0:
            raise RegionError(f"memory_intensity must be in [0, 1], got {memory_intensity!r}")
        self.name = name
        self.pragma_sources = tuple(pragmas)
        self.loops = list(loops)
        self.locals_ = dict(locals_ or {})
        self.memory_intensity = memory_intensity
        self.device: str | None = None
        self.maps: list[MapClause] = []
        self._parse_pragmas()
        self._validate()

    # -------------------------------------------------------------- analysis
    def _parse_pragmas(self) -> None:
        for src in self.pragma_sources:
            parsed = parse_pragma(src)
            nodes = parsed if isinstance(parsed, tuple) else (parsed,)
            for node in nodes:
                if isinstance(node, UnsupportedConstruct):
                    raise RegionError(
                        f"region {self.name!r} uses '{node.name}', which needs shared "
                        f"memory; the cloud device does not support OpenMP "
                        f"synchronization constructs (paper Section III-D)"
                    )
                if isinstance(node, TargetConstruct):
                    if node.device is not None:
                        self.device = node.device
                    self.maps.extend(node.maps)
                elif isinstance(node, TargetDataConstruct):
                    raise RegionError(
                        f"'target data' belongs on a loop's partition_pragma, "
                        f"not on region {self.name!r}"
                    )
                elif isinstance(node, ParallelForConstruct):
                    raise RegionError(
                        f"'parallel for' belongs in a ParallelLoop, not in the "
                        f"region pragmas of {self.name!r}"
                    )

    def _validate(self) -> None:
        mapped = {i.name for c in self.maps for i in c.items}
        declared = mapped | set(self.locals_)
        for loop in self.loops:
            for name in (*loop.reads, *loop.writes):
                if name not in declared:
                    raise RegionError(
                        f"loop over {loop.loop_var!r} touches {name!r}, which is neither "
                        f"mapped on region {self.name!r} nor a region-local buffer"
                    )
            for name in loop.partitions:
                if name not in declared:
                    raise RegionError(
                        f"partition pragma names {name!r}, not declared on region {self.name!r}"
                    )
            for name, op in loop.reduction_vars.items():
                if name not in declared:
                    raise RegionError(
                        f"reduction({op}: {name}) names an undeclared variable "
                        f"on region {self.name!r}"
                    )

    # --------------------------------------------------------------- queries
    def map_items(self, map_type: MapType | None = None) -> list[MapItem]:
        out: list[MapItem] = []
        for clause in self.maps:
            if map_type is None or clause.map_type == map_type:
                out.extend(clause.items)
        return out

    def map_type_of(self, name: str) -> MapType | None:
        """The (merged) map type of a variable; tofrom wins over to/from."""
        found: MapType | None = None
        for clause in self.maps:
            for item in clause.items:
                if item.name != name:
                    continue
                if found is None:
                    found = clause.map_type
                elif found != clause.map_type:
                    found = MapType.TOFROM
        return found

    @property
    def input_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for clause in self.maps:
            if clause.map_type.is_input:
                for item in clause.items:
                    seen.setdefault(item.name, None)
        return list(seen)

    @property
    def output_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for clause in self.maps:
            if clause.map_type.is_output:
                for item in clause.items:
                    seen.setdefault(item.name, None)
        return list(seen)

    def declared_length(self, name: str, env: Mapping[str, Union[int, float]]) -> int:
        """Element count of a mapped or local variable from its declaration."""
        if name in self.locals_:
            decl = self.locals_[name]
            return int(decl) if isinstance(decl, int) else parse_expr(decl).eval(env)
        for clause in self.maps:
            for item in clause.items:
                if item.name == name and item.upper is not None:
                    lo = item.lower.eval(env) if item.lower is not None else 0
                    return item.upper.eval(env) - lo
        raise RegionError(f"cannot determine the length of {name!r} on region {self.name!r}")


def omp_get_num_devices(runtime=None) -> int:
    """User-level runtime routine from the accelerator model."""
    from repro.core.runtime import OffloadRuntime

    rt = runtime if runtime is not None else OffloadRuntime.default()
    return rt.num_devices()


@dataclass(frozen=True)
class OffloadOptions:
    """How to run an offload — one options surface shared by
    :func:`offload` and :meth:`~repro.core.decorators.OmpKernel.offload`,
    so ``strict``/``mode``/``device`` keywords behave identically whichever
    front end built the region.

    ``device`` overrides the region's ``device(...)`` clause (id or name);
    ``lengths``/``densities`` describe virtual buffers in modeled mode.
    Instances are immutable; per-call keywords layer on top via
    :func:`dataclasses.replace`.
    """

    runtime: object = None
    device: Union[int, str, None] = None
    mode: ExecutionMode = ExecutionMode.FUNCTIONAL
    strict: bool = False
    lengths: Mapping[str, int] | None = None
    densities: Mapping[str, float] | None = None
    #: Opt-in clause inference: before staging, replace the region's map and
    #: partition clauses with the provably minimal set synthesized by
    #: :func:`repro.analysis.infer.infer_region` (degrades to the original
    #: clauses whenever the analysis is incomplete).
    infer_maps: bool = False
    #: ``target ... nowait``: defer the region as a target task instead of
    #: executing it inline.  The call returns a
    #: :class:`~repro.core.taskgraph.TaskHandle`; execution happens at the
    #: next :func:`repro.omp.taskwait` (or when the enclosing ``target
    #: data`` scope closes), where chained deferred regions may fuse into a
    #: single Spark job (docs/TASKGRAPH.md).
    nowait: bool = False
    #: ``depend(in:...)/depend(out:...)/depend(inout:...)`` clauses built
    #: with :func:`repro.omp.depend`.  Per OpenMP 4.5 §2.13.9 they only
    #: order this task against sibling tasks that *also* carry depend
    #: clauses; the runtime additionally infers buffer dataflow as a safety
    #: net.  Only meaningful together with ``nowait=True``.
    depend: "object | None" = None


def offload(
    region: TargetRegion,
    arrays: Mapping[str, np.ndarray] | None = None,
    scalars: Mapping[str, Union[int, float]] | None = None,
    *,
    options: OffloadOptions | None = None,
    **overrides,
):
    """Execute a target region through the offloading runtime.

    Functional mode takes real ``arrays``; modeled mode takes ``lengths`` (and
    optional ``densities``) instead.  Returns the device's
    :class:`~repro.core.plugin_cloud.OffloadReport` — or, with
    ``nowait=True``, a :class:`~repro.core.taskgraph.TaskHandle` whose
    report materializes at the next :func:`repro.omp.taskwait`.

    Keyword arguments are the fields of :class:`OffloadOptions` — pass a
    prebuilt ``options=`` bundle, loose keywords (``mode=``, ``strict=``,
    ``device=``...), or both (keywords win).

    ``strict=True`` runs the static verifier (:mod:`repro.analysis`) against
    the region and the actual ``scalars`` first, raising
    :class:`~repro.analysis.AnalysisError` before any buffer is even built;
    the per-device ``[Analysis]`` configuration enables the same gate
    runtime-wide.
    """
    from dataclasses import replace

    from repro.core.runtime import OffloadRuntime

    if options is None:
        opts = OffloadOptions(**overrides)
    elif overrides:
        opts = replace(options, **overrides)
    else:
        opts = options
    rt = opts.runtime if opts.runtime is not None else OffloadRuntime.default()
    scalars = dict(scalars or {})
    if opts.strict:
        from repro.analysis import enforce_strict

        enforce_strict(region, scalars)
    densities = dict(opts.densities or {})
    buffers: dict[str, Buffer] = {}
    names = {i.name for c in region.maps for i in c.items}
    if opts.mode == ExecutionMode.FUNCTIONAL:
        arrays = arrays or {}
        for name in names:
            if name not in arrays:
                raise RegionError(f"functional offload of {region.name!r} misses array {name!r}")
            buffers[name] = Buffer(name, data=arrays[name],
                                   density=densities.get(name, 1.0))
    else:
        lengths = dict(opts.lengths or {})
        for name in names:
            length = lengths.get(name, None)
            if length is None:
                length = region.declared_length(name, scalars)
            buffers[name] = Buffer(name, length=length,
                                   density=densities.get(name, 1.0))
    if opts.nowait:
        return rt.target_nowait(region, buffers, scalars, mode=opts.mode,
                                device=opts.device, infer_maps=opts.infer_maps,
                                depend=opts.depend, strict=opts.strict)
    if opts.depend is not None:
        raise RegionError(
            f"offload of {region.name!r} passes depend= without nowait=True; "
            f"depend clauses only order deferred target tasks"
        )
    return rt.target(region, buffers, scalars, mode=opts.mode,
                     device=opts.device, infer_maps=opts.infer_maps)
